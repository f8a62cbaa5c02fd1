//! Admission control ahead of the worker queue.
//!
//! Two gates sit between `accept()` and the bounded queue:
//!
//! 1. **Connection gate** ([`ConnGate`]) — a hard cap on simultaneously open
//!    connections. The acceptor takes a [`ConnPermit`] per connection; if
//!    none is available the connection is answered with a deterministic
//!    `503` + `Retry-After` and closed before it can occupy a worker.
//!    Permits are RAII: dropping one (worker done, chaos abrupt-close,
//!    panic unwind) releases the slot, so the gate cannot leak under any
//!    exit path.
//!
//! 2. **Queue watermarks** ([`Watermarks`]) — hysteresis over queue depth.
//!    At or above the high watermark the acceptor starts shedding new
//!    connections *early*, before the queue is actually full; it keeps
//!    shedding until depth falls to the low watermark. Without hysteresis a
//!    queue oscillating around capacity alternates accept/reject per
//!    connection, which converts overload into client-visible flapping.
//!    Only the acceptor thread consults the watermarks, so the state is a
//!    plain `bool`, not an atomic.
//!
//! The server counts both sheds (`srv.admission.*`) and sets the
//! `srv.conn.open` gauge from [`ConnGate::open`]; both sheds carry
//! `Retry-After`, which the loadgen's seeded backoff client honors.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bounded count of simultaneously open connections.
pub struct ConnGate {
    open: AtomicUsize,
    limit: usize,
}

impl ConnGate {
    /// A gate admitting at most `limit` concurrent connections (clamped to
    /// at least 1 — a zero-limit server could never answer anything, not
    /// even its own shed responses).
    pub fn new(limit: usize) -> Arc<ConnGate> {
        Arc::new(ConnGate { open: AtomicUsize::new(0), limit: limit.max(1) })
    }

    /// The configured limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Connections currently admitted.
    pub fn open(&self) -> usize {
        self.open.load(Ordering::Acquire)
    }

    /// Tries to admit one connection. `None` means the gate is at its limit
    /// and the caller must shed.
    pub fn try_admit(self: &Arc<ConnGate>) -> Option<ConnPermit> {
        let mut current = self.open.load(Ordering::Relaxed); // lint:allow(relaxed_ordering, an optimistic first read; the CAS below is the synchronizing operation)
        loop {
            if current >= self.limit {
                return None;
            }
            match self.open.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed, // lint:allow(relaxed_ordering, the failure load only feeds the retry; no data is published on failure)
            ) {
                Ok(_) => return Some(ConnPermit { gate: Arc::clone(self) }),
                Err(seen) => current = seen,
            }
        }
    }
}

/// RAII admission slot; dropping it releases the connection's slot in the
/// gate regardless of how the connection ended.
pub struct ConnPermit {
    gate: Arc<ConnGate>,
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.gate.open.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Queue-depth hysteresis: shed at `high`, recover at `low`.
#[derive(Debug)]
pub struct Watermarks {
    high: usize,
    low: usize,
    shedding: bool,
}

impl Watermarks {
    /// Watermarks with `low` clamped below `high` (equal marks would make
    /// the hysteresis band empty and reintroduce flapping).
    pub fn new(high: usize, low: usize) -> Watermarks {
        let high = high.max(1);
        Watermarks { high, low: low.min(high - 1), shedding: false }
    }

    /// The conventional defaults for a queue of `capacity`: start shedding
    /// when the queue is actually full, stop once it has drained halfway.
    /// (High == capacity keeps the observable accept/reject behavior of the
    /// pre-watermark server, which rejected only on `PushError::Full`.)
    pub fn for_capacity(capacity: usize) -> Watermarks {
        Watermarks::new(capacity, capacity / 2)
    }

    /// Updates the hysteresis state with the current queue depth and says
    /// whether a new connection should be shed.
    pub fn should_shed(&mut self, depth: usize) -> bool {
        if self.shedding {
            if depth <= self.low {
                self.shedding = false;
            }
        } else if depth >= self.high {
            self.shedding = true;
        }
        self.shedding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_up_to_limit_and_permits_release() {
        let gate = ConnGate::new(2);
        let a = gate.try_admit().expect("slot 1");
        let _b = gate.try_admit().expect("slot 2");
        assert!(gate.try_admit().is_none(), "limit reached");
        assert_eq!(gate.open(), 2);
        drop(a);
        assert_eq!(gate.open(), 1);
        let _c = gate.try_admit().expect("slot freed by drop");
    }

    #[test]
    fn gate_zero_limit_clamps_to_one() {
        let gate = ConnGate::new(0);
        assert_eq!(gate.limit(), 1);
        let _p = gate.try_admit().expect("one slot");
        assert!(gate.try_admit().is_none());
    }

    #[test]
    fn gate_is_race_free_under_contention() {
        let gate = ConnGate::new(8);
        let admitted = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        if let Some(p) = gate.try_admit() {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            assert!(gate.open() <= 8, "over-admitted");
                            drop(p);
                        }
                    }
                });
            }
        });
        assert_eq!(gate.open(), 0, "all permits returned");
        assert!(admitted.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn watermarks_hysteresis_sheds_high_recovers_low() {
        let mut wm = Watermarks::new(8, 4);
        assert!(!wm.should_shed(7));
        assert!(wm.should_shed(8), "hit high");
        assert!(wm.should_shed(6), "still shedding above low");
        assert!(wm.should_shed(5));
        assert!(!wm.should_shed(4), "recovered at low");
        assert!(!wm.should_shed(7), "not shedding again until high");
        assert!(wm.should_shed(9));
    }

    #[test]
    fn watermarks_degenerate_configs_are_clamped() {
        let mut wm = Watermarks::new(1, 5);
        assert!(wm.should_shed(1));
        assert!(!wm.should_shed(0), "low clamped below high");
        let mut eq = Watermarks::new(4, 4);
        assert!(eq.should_shed(4));
        assert!(eq.should_shed(4));
        assert!(!eq.should_shed(3), "low forced to high-1");
    }
}
