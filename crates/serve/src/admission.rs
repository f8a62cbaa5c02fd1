//! Admission control ahead of the worker queue.
//!
//! Two bounds sit between `accept()` and the workers:
//!
//! 1. **Connection gate** ([`ConnGate`]) — a hard cap on simultaneously open
//!    connections. The acceptor takes a [`ConnPermit`] per connection; if
//!    none is available the connection is answered with a deterministic
//!    `503` + `Retry-After` and closed before it can occupy a worker.
//!    Permits are RAII: dropping one (worker done, chaos abrupt-close,
//!    panic unwind) releases the slot, so the gate cannot leak under any
//!    exit path.
//!
//! 2. **Queue bound** ([`Bounded`](crate::queue::Bounded)) — an admitted
//!    connection that finds the queue full is answered with the same kind
//!    of `503` + `Retry-After` and its permit released. A slot freed by a
//!    worker admits the next connection at once.
//!
//! The server counts both sheds (`srv.admission.gate_shed`,
//! `srv.admission.queue_full`) and sets the `srv.conn.open` gauge from
//! [`ConnGate::open`]; the loadgen's seeded backoff client honors the
//! `Retry-After`.

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
}
