//! The compile-once cache: a bounded, least-recently-used table of shared
//! values. The solve service's registry keeps one program per source and
//! options in one; each program keeps one specialization per integer
//! parameter layout in another.
//!
//! A hit ([`LruCache::get`]) takes the read lock, scans (capacities are
//! small: a linear probe beats hashing), stamps a relaxed LRU tick and
//! clones the entry's `Arc`. On a miss the caller builds the value with no
//! lock held, so its fault hooks, trace events and timings stay its own
//! and a failed or panicking build poisons nothing; [`LruCache::insert`]
//! then takes the write lock only to double-check, evict and push. Of
//! racing builds of one key exactly one is published; the others adopt
//! it, as a hit. An evicted value lives on in its holders' `Arc`s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

struct Entry<K, V> {
    key: K,
    value: Arc<V>,
    /// Last-use tick (the LRU order), stored under the read lock.
    used: AtomicU64,
}

/// A bounded compile-once table. See the module docs for the locking
/// shape.
pub struct LruCache<K, V> {
    entries: RwLock<Vec<Entry<K, V>>>,
    capacity: usize,
    /// LRU clock: every hit and insert stamps its entry with `clock++`.
    clock: AtomicU64,
    built: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq, V> LruCache<K, V> {
    /// An empty table holding at most `capacity` values (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            entries: RwLock::new(Vec::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            built: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// `key`'s value among `entries`, counted as a hit and stamped with a
    /// fresh LRU tick when found.
    fn hit(&self, entries: &[Entry<K, V>], key: &K) -> Option<Arc<V>> {
        let e = entries.iter().find(|e| e.key == *key)?;
        e.used.store(self.tick(), Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&e.value))
    }

    /// The fast path: `key`'s value under the read lock, counted as a hit.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        self.hit(&self.entries.read().expect("cache poisoned"), key)
    }

    /// Publish `value`, built by the caller after a [`LruCache::get`] miss.
    /// If another caller published `key` meanwhile, theirs is returned
    /// with `adopted == true` (counted as a hit) and `value` is dropped;
    /// otherwise `value` is counted as built, evicting the least-recently
    /// used entry when the table is full.
    pub fn insert(&self, key: K, value: V) -> (Arc<V>, bool) {
        let value = Arc::new(value);
        let mut entries = self.entries.write().expect("cache poisoned");
        if let Some(theirs) = self.hit(&entries, &key) {
            return (theirs, true);
        }
        if entries.len() >= self.capacity {
            let lru = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.used.load(Ordering::Relaxed))
                .map(|(i, _)| i)
                .expect("a full table is nonempty");
            entries.swap_remove(lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        entries.push(Entry {
            key,
            value: Arc::clone(&value),
            used: AtomicU64::new(self.tick()),
        });
        self.built.fetch_add(1, Ordering::Relaxed);
        (value, false)
    }

    /// Values built and published so far (adopted race losers excluded).
    pub fn built(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }

    /// Lookups served from the table, adopted race losers included.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of values currently cached (≤ capacity).
    pub fn len(&self) -> usize {
        self.entries.read().expect("cache poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn racing_misses_publish_one_value() {
        // Both threads miss before either publishes (the barrier), so the
        // second insert deterministically finds the first one's value.
        let cache: LruCache<u32, String> = LruCache::new(4);
        let barrier = Barrier::new(2);
        let got: Vec<(Arc<String>, bool)> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|t| {
                    let (cache, barrier) = (&cache, &barrier);
                    scope.spawn(move || {
                        assert!(cache.get(&7).is_none());
                        barrier.wait();
                        cache.insert(7, format!("built by {t}"))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!((cache.built(), cache.hits()), (1, 1));
        assert!(Arc::ptr_eq(&got[0].0, &got[1].0), "the loser adopts");
        assert_eq!(got.iter().filter(|(_, adopted)| *adopted).count(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_the_least_recently_used() {
        let cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a").as_deref(), Some(&1)); // "b" is now the LRU
        let (c, adopted) = cache.insert("c", 3);
        assert_eq!((*c, adopted), (3, false));
        assert_eq!((cache.evictions(), cache.len()), (1, 2));
        assert!(cache.get(&"b").is_none(), "LRU entry evicted");
        assert_eq!(
            cache.get(&"a").as_deref(),
            Some(&1),
            "recently used survives"
        );
        assert_eq!(cache.get(&"c").as_deref(), Some(&3));
        // An evicted key is built again on demand, evicting the LRU ("a").
        cache.insert("b", 4);
        assert!(cache.get(&"a").is_none());
        assert_eq!((cache.built(), cache.evictions()), (4, 2));
    }
}
