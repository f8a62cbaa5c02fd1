//! A sharded, seed-free, deterministic LRU response cache.
//!
//! Keys are routed to a shard by an FNV-1a hash — a pure function of the
//! key bytes, so the shard a request lands on is identical on every run,
//! machine, and thread width. Each shard is an independent LRU under its
//! own mutex, so concurrent workers only contend when they touch the same
//! shard. Eviction is strict least-recently-used *within* a shard, which
//! keeps the global contents deterministic for any fixed per-shard
//! operation order (the property the cross-width cache tests pin).
//!
//! Hits, misses and evictions are always-on counts shared by every cache
//! in the process ([`counters`]); the server's metrics snapshot reports
//! them as `srv.cache.{hits,misses,evictions}`, next to the
//! `srv.cache.entries` gauge it reads from [`ShardedLru::len`] when it
//! renders.

use dimkb::intern::fnv1a;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Counts one cache event.
fn bump(count: &AtomicU64) {
    count.fetch_add(1, Ordering::Relaxed); // lint:allow(relaxed_ordering, pure counter; atomicity alone gives a lossless total)
}

/// One shard: a queue ordered least- to most-recently-used. Capacities are
/// small (hundreds of entries), so the linear scans are cheaper than the
/// bookkeeping of an intrusive list.
#[derive(Default)]
struct Shard {
    entries: VecDeque<(String, String)>,
}

/// The sharded LRU cache.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl ShardedLru {
    /// A cache of `shards` independent LRUs (clamped to at least 1), each
    /// holding at most `per_shard_capacity` entries. Capacity 0 turns the
    /// cache off: inserts store nothing, so every lookup is a miss.
    pub fn new(shards: usize, per_shard_capacity: usize) -> ShardedLru {
        let shards = shards.max(1);
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Maximum entries per shard.
    pub fn per_shard_capacity(&self) -> usize {
        self.per_shard_capacity
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard index `key` routes to — a pure function of the key bytes.
    pub fn shard_of(&self, key: &str) -> usize {
        (fnv1a(key.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Looks `key` up, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &str) -> Option<String> {
        let mut shard = lock(&self.shards[self.shard_of(key)]); // lint:allow(no_panic, shard_of is hash % shards.len(), always in bounds; shards is non-empty by construction)
        let pos = shard.entries.iter().position(|(k, _)| k == key);
        match pos {
            Some(i) => {
                let entry = shard.entries.remove(i)?;
                let value = entry.1.clone();
                shard.entries.push_back(entry);
                bump(&HITS);
                Some(value)
            }
            None => {
                bump(&MISSES);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the shard's least-recently-
    /// used entry when it is at capacity. Returns the evicted key, if any.
    /// A zero-capacity cache stores nothing and never evicts.
    pub fn insert(&self, key: &str, value: String) -> Option<String> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let mut shard = lock(&self.shards[self.shard_of(key)]); // lint:allow(no_panic, shard_of is hash % shards.len(), always in bounds; shards is non-empty by construction)
        if let Some(i) = shard.entries.iter().position(|(k, _)| k == key) {
            shard.entries.remove(i);
        }
        shard.entries.push_back((key.to_string(), value));
        if shard.entries.len() > self.per_shard_capacity {
            bump(&EVICTIONS);
            shard.entries.pop_front().map(|(k, _)| k)
        } else {
            None
        }
    }

    /// The keys of one shard, least- to most-recently-used (test hook for
    /// the eviction-order contract).
    pub fn shard_keys(&self, shard: usize) -> Vec<String> {
        // lint:allow(no_panic, test hook; callers pass an index below shard_count, and a wrong index should fail loudly in tests)
        lock(&self.shards[shard]).entries.iter().map(|(k, _)| k.clone()).collect()
    }
}

/// Process-wide cache counts `(hits, misses, evictions)`: every
/// [`ShardedLru`] in the process counts into them, always (meaningful when
/// one cache exists, i.e. one server; the soak harness, perfbench and the
/// metrics snapshot read these).
pub fn counters() -> (u64, u64, u64) {
    let read = |count: &AtomicU64| count.load(Ordering::Relaxed); // lint:allow(relaxed_ordering, monotonic stat read; no data guarded by it)
    (read(&HITS), read(&MISSES), read(&EVICTIONS))
}

/// Locks a shard, recovering from poisoning: the cache holds plain data, so
/// a panic in some other worker (e.g. an injected chaos panic while the
/// lock was held) leaves it consistent enough to keep serving.
fn lock(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    match shard.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_miss_then_hit_roundtrips() {
        let cache = ShardedLru::new(4, 8);
        assert_eq!(cache.get("k"), None);
        cache.insert("k", "v".to_string());
        assert_eq!(cache.get("k"), Some("v".to_string()));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let cache = ShardedLru::new(8, 4);
        for key in ["a", "b", "POST /link {\"mention\":\"km\"}", "米", ""] {
            let s = cache.shard_of(key);
            assert!(s < 8);
            assert_eq!(s, cache.shard_of(key), "same key must route identically");
        }
    }

    #[test]
    fn eviction_is_least_recently_used_per_shard() {
        // One shard makes the global order the shard order.
        let cache = ShardedLru::new(1, 3);
        for k in ["a", "b", "c"] {
            cache.insert(k, format!("v-{k}"));
        }
        // Touch "a" so "b" becomes the LRU entry.
        assert!(cache.get("a").is_some());
        let evicted = cache.insert("d", "v-d".to_string());
        assert_eq!(evicted, Some("b".to_string()));
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.shard_keys(0), vec!["c", "a", "d"]);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn reinserting_refreshes_instead_of_duplicating() {
        let cache = ShardedLru::new(1, 2);
        cache.insert("a", "1".to_string());
        cache.insert("b", "2".to_string());
        cache.insert("a", "3".to_string());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("a"), Some("3".to_string()));
        // "b" is now LRU; a third key evicts it.
        assert_eq!(cache.insert("c", "4".to_string()), Some("b".to_string()));
    }

    #[test]
    fn hit_miss_counters_always_move() {
        let cache = ShardedLru::new(2, 4);
        let (hits0, misses0, _) = counters();
        assert_eq!(cache.get("absent"), None);
        cache.insert("present", "v".to_string());
        assert_eq!(cache.get("present"), Some("v".to_string()));
        // Deltas are ≥ because other tests in this process share the
        // counts; monotonicity makes the assertion race-free.
        let (hits1, misses1, _) = counters();
        assert!(misses1 > misses0);
        assert!(hits1 > hits0);
    }

    #[test]
    fn zero_capacity_turns_the_cache_off() {
        let cache = ShardedLru::new(0, 0);
        assert_eq!((cache.shard_count(), cache.per_shard_capacity()), (1, 0));
        let (_, misses0, _) = counters();
        for _ in 0..3 {
            assert_eq!(cache.insert("k", "v".to_string()), None, "nothing to evict");
            assert_eq!(cache.get("k"), None, "a disabled cache never hits");
        }
        assert!(cache.is_empty());
        assert!(counters().1 >= misses0 + 3, "every lookup counts a miss");
    }

    #[test]
    fn capacity_accounting_across_shards() {
        let cache = ShardedLru::new(4, 2);
        for i in 0..64 {
            cache.insert(&format!("key-{i}"), i.to_string());
        }
        assert!(cache.len() <= 4 * 2, "len {} exceeds total capacity", cache.len());
        for s in 0..4 {
            assert!(cache.shard_keys(s).len() <= 2);
        }
    }
}
