//! A bounded MPMC queue with non-blocking producers and blocking consumers
//! — the backpressure point between the acceptor and the worker pool.
//!
//! The producer side never blocks: [`Bounded::push`] on a full queue
//! returns the item back immediately, which the server turns into a
//! deterministic `503` (counted as `srv.rejected` and
//! `srv.admission.queue_full`). This is the server's one queue-full check:
//! a slot a consumer frees is open to the very next push. The consumer side
//! blocks on a condvar until an item arrives or the queue is closed;
//! [`Bounded::close`] lets already-queued items drain before consumers see
//! the end-of-stream, which is exactly the graceful-shutdown order.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded MPMC queue.
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1).
    pub fn new(capacity: usize) -> Bounded<T> {
        Bounded {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Capacity the queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Enqueues `item` without blocking; a full or closed queue refuses and
    /// returns the item so the caller can answer with backpressure.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the next item, blocking while the queue is open and empty.
    /// Returns `None` only once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = match self.ready.wait(inner) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Closes the queue: new pushes fail, queued items still drain, blocked
    /// consumers wake (and see `None` once the backlog is gone).
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = Bounded::new(4);
        for i in 0..4 {
            q.push(i).expect("within capacity");
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn full_queue_refuses_without_blocking() {
        let q = Bounded::new(2);
        q.push(1).expect("ok");
        q.push(2).expect("ok");
        assert_eq!(q.push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        q.push(3).expect("space again");
    }

    #[test]
    fn close_drains_backlog_then_ends() {
        let q = Bounded::new(4);
        q.push("a").expect("ok");
        q.push("b").expect("ok");
        q.close();
        assert_eq!(q.push("c"), Err(PushError::Closed("c")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays ended");
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_close() {
        let q = Arc::new(Bounded::<u32>::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..20 {
            while q.push(i).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|h| h.join().expect("consumer thread"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }
}
