//! Per-server metrics: one value the [`App`](crate::App) owns.
//!
//! Every `srv.*` metric of a server lives in its [`ServerMetrics`]: the
//! acceptor counts sheds, samples the queue and opens a [`LiveGuard`] per
//! accepted connection, workers count the connections they take off the
//! queue, deadline sheds, header timeouts,
//! failed writes, caught panics and connection faults, and `App::handle` counts
//! requests by status class and times them into the `srv.request`
//! histogram. The counts are [`dim_obs::Counter`]s recorded through
//! [`Counter::observe`], outside the process registry, so two servers in
//! one process never see each other's traffic.
//! [`ServerMetrics::snapshot`] renders the value as a [`dim_obs::Snapshot`]
//! under the same metric names, for `GET /metrics` and the drain report.
//!
//! The one process-wide exception is the response cache's hit, miss and
//! eviction counts, which [`crate::cache::counters`] keeps for the load
//! tools; the snapshot reports them as `srv.cache.{hits,misses,evictions}`.

use dim_obs::{Counter, Histogram, Snapshot};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A last-value-wins level (queue depth).
#[derive(Default)]
pub struct Level(AtomicU64);

impl Level {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: usize) {
        self.0.store(v as u64, Ordering::Relaxed); // lint:allow(relaxed_ordering, last-value-wins cell; only the value matters)
    }

    /// The last level set.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // lint:allow(relaxed_ordering, last-value-wins cell; only the value matters)
    }
}

/// An exact count of live things, each held as a [`LiveGuard`].
#[derive(Default)]
pub struct Live(Arc<AtomicUsize>);

impl Live {
    /// Counts one more live thing until the returned guard drops.
    #[inline]
    pub fn guard(&self) -> LiveGuard {
        self.0.fetch_add(1, Ordering::Relaxed); // lint:allow(relaxed_ordering, pure counter; thread joins order the drain report's read)
        LiveGuard(Arc::clone(&self.0))
    }

    /// Guards alive now.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed) // lint:allow(relaxed_ordering, pure counter; thread joins order the drain report's read)
    }
}

/// One thing counted by a [`Live`]; dropping it counts it gone, whatever
/// the exit path (normal return, early return or panic unwind).
pub struct LiveGuard(Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed); // lint:allow(relaxed_ordering, pure counter; thread joins order the drain report's read)
    }
}

/// Every `srv.*` metric of one server.
pub struct ServerMetrics {
    /// `srv.requests`: requests routed through `App::handle`.
    pub requests: Counter,
    /// `srv.responses.2xx`.
    pub responses_2xx: Counter,
    /// `srv.responses.4xx`.
    pub responses_4xx: Counter,
    /// `srv.responses.5xx`, degraded responses to caught panics included.
    pub responses_5xx: Counter,
    /// `srv.degraded` and `srv.quarantined`: requests answered with the
    /// structured degraded `503` (each is also quarantined).
    pub degraded: Counter,
    /// `srv.request`: nanoseconds spent in `App::handle`.
    pub request: Histogram,
    /// `srv.connections` and `srv.queue.pushed`: queued connections a worker
    /// has taken up.
    pub connections: Counter,
    /// `srv.rejected`: connections refused at admission.
    pub rejected: Counter,
    /// `srv.admission.queue_full`: accepted connections refused because
    /// the queue was full.
    pub queue_full: Counter,
    /// `srv.deadline.shed`: requests shed because their deadline expired
    /// before dispatch.
    pub deadline_shed: Counter,
    /// `srv.deadline.shed_queue`: the subset that expired in the queue.
    pub deadline_shed_queue: Counter,
    /// `srv.header_timeouts`: requests over the header-read budget.
    pub header_timeouts: Counter,
    /// `srv.write_failed`: responses whose write failed.
    pub write_failed: Counter,
    /// `srv.panics_caught`: request panics the workers caught.
    pub panics_caught: Counter,
    /// `srv.conn_fault.stall`.
    pub conn_fault_stall: Counter,
    /// `srv.conn_fault.partial_write`.
    pub conn_fault_partial_write: Counter,
    /// `srv.conn_fault.abrupt_close`.
    pub conn_fault_abrupt_close: Counter,
    /// `srv.conn.open`: accepted connections not yet closed, queued, in
    /// service or being refused. Each one's [`LiveGuard`] rides in its
    /// connection task.
    pub conn_open: Live,
    /// `srv.queue.depth`: the queue depth the acceptor saw just before its
    /// last push.
    pub queue_depth: Level,
}

impl Default for ServerMetrics {
    fn default() -> ServerMetrics {
        ServerMetrics {
            requests: Counter::new("srv.requests"),
            responses_2xx: Counter::new("srv.responses.2xx"),
            responses_4xx: Counter::new("srv.responses.4xx"),
            responses_5xx: Counter::new("srv.responses.5xx"),
            degraded: Counter::new("srv.degraded"),
            request: Histogram::new("srv.request"),
            connections: Counter::new("srv.connections"),
            rejected: Counter::new("srv.rejected"),
            queue_full: Counter::new("srv.admission.queue_full"),
            deadline_shed: Counter::new("srv.deadline.shed"),
            deadline_shed_queue: Counter::new("srv.deadline.shed_queue"),
            header_timeouts: Counter::new("srv.header_timeouts"),
            write_failed: Counter::new("srv.write_failed"),
            panics_caught: Counter::new("srv.panics_caught"),
            conn_fault_stall: Counter::new("srv.conn_fault.stall"),
            conn_fault_partial_write: Counter::new("srv.conn_fault.partial_write"),
            conn_fault_abrupt_close: Counter::new("srv.conn_fault.abrupt_close"),
            conn_open: Live::default(),
            queue_depth: Level::default(),
        }
    }
}

impl ServerMetrics {
    /// Renders this server's metrics as one snapshot: the `srv.*` values,
    /// with `cache_entries` as the `srv.cache.entries` gauge and the
    /// process-wide cache counts, merged with the process registry's
    /// metrics. Each list is sorted by name.
    pub fn snapshot(&self, cache_entries: usize) -> Snapshot {
        let (hits, misses, evictions) = crate::cache::counters();
        let owned = [
            &self.requests,
            &self.responses_2xx,
            &self.responses_4xx,
            &self.responses_5xx,
            &self.degraded,
            &self.connections,
            &self.rejected,
            &self.queue_full,
            &self.deadline_shed,
            &self.deadline_shed_queue,
            &self.header_timeouts,
            &self.write_failed,
            &self.panics_caught,
            &self.conn_fault_stall,
            &self.conn_fault_partial_write,
            &self.conn_fault_abrupt_close,
        ];
        let counters = owned.into_iter().map(|c| (c.name(), c.get())).chain([
            ("srv.cache.evictions", evictions),
            ("srv.cache.hits", hits),
            ("srv.cache.misses", misses),
            ("srv.quarantined", self.degraded.get()),
            ("srv.queue.pushed", self.connections.get()),
        ]);
        let gauges = [
            ("srv.cache.entries", cache_entries as u64),
            ("srv.conn.open", self.conn_open.get() as u64),
            ("srv.queue.depth", self.queue_depth.get()),
        ];
        let mut snap = dim_obs::snapshot();
        let owned = |(name, v): (&str, u64)| (name.to_string(), v); // lint:allow(hot_alloc, snapshot rendering runs per scrape, not per request)
        snap.counters.extend(counters.map(owned));
        snap.gauges.extend(gauges.into_iter().map(owned));
        snap.histograms.push(self.request.stats());
        snap.counters.sort();
        snap.gauges.sort();
        snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }
}
