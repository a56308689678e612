//! A small, dependency-free LRU cache.
//!
//! Used by the *Sequence Cache* and the *Cuboid Repository* of the prototype
//! architecture (Figure 6 of the paper), both of which the paper suggests
//! implementing "as a cache with an appropriate replacement policy such as
//! LRU".
//!
//! The implementation is a classic hash map over an intrusive doubly-linked
//! list laid out in a slab, giving O(1) get/insert/evict without `unsafe`.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// An LRU cache bounded by entry count and, optionally, by a caller-supplied
/// weight (e.g. bytes).
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    max_weight: Option<usize>,
    weight: usize,
    weigher: fn(&V) -> usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            max_weight: None,
            weight: 0,
            weigher: |_| 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Creates a cache additionally bounded by total weight, as computed by
    /// `weigher` (e.g. approximate bytes per entry).
    pub fn with_weight(capacity: usize, max_weight: usize, weigher: fn(&V) -> usize) -> Self {
        let mut c = Self::new(capacity);
        c.max_weight = Some(max_weight);
        c.weigher = weigher;
        c
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total weight of cached entries (0 unless weighted).
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// `(hits, misses)` counters since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Budget-driven evictions since creation (replacements and explicit
    /// removals are not counted).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, marking it most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                self.slab
                    .get(idx)
                    .and_then(|s| s.as_ref())
                    .map(|n| &n.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without touching recency or hit counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&idx| self.slab.get(idx))
            .and_then(|s| s.as_ref())
            .map(|n| &n.value)
    }

    /// Every cached `(key, value)`, in no particular order, without
    /// touching recency or the hit counters.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slab.iter().flatten().map(|n| (&n.key, &n.value))
    }

    /// Whether `key` is cached (no recency update).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts `key → value`, evicting least-recently-used entries as needed.
    /// Returns the previous value for `key`, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let new_weight = (self.weigher)(&value);
        let old = if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            let node = self.slab.get_mut(idx).and_then(|s| s.take());
            self.free.push(idx);
            self.map.remove(&key);
            if let Some(n) = &node {
                self.weight -= (self.weigher)(&n.value);
            }
            node.map(|n| n.value)
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        if let Some(slot) = self.slab.get_mut(idx) {
            *slot = Some(Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
        }
        self.map.insert(key, idx);
        self.weight += new_weight;
        self.push_front(idx);
        self.evict_over_budget(idx);
        old
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        let node = self.slab.get_mut(idx).and_then(|s| s.take())?;
        self.free.push(idx);
        self.weight -= (self.weigher)(&node.value);
        Some(node.value)
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.weight = 0;
    }

    /// Removes every entry for which `keep` returns false, returning how
    /// many were removed (explicit removals: not counted as evictions).
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let doomed: Vec<K> = self
            .map
            .iter()
            .filter(|(_, &idx)| {
                self.slab
                    .get(idx)
                    .and_then(|s| s.as_ref())
                    .is_some_and(|n| !keep(&n.key, &n.value))
            })
            .map(|(k, _)| k.clone())
            .collect();
        for k in &doomed {
            self.remove(k);
        }
        doomed.len()
    }

    fn evict_over_budget(&mut self, just_inserted: usize) {
        while self.map.len() > self.capacity
            || self
                .max_weight
                .is_some_and(|mw| self.weight > mw && self.map.len() > 1)
        {
            let victim = self.tail;
            if victim == NIL || victim == just_inserted && self.map.len() == 1 {
                break;
            }
            self.unlink(victim);
            let Some(node) = self.slab.get_mut(victim).and_then(|s| s.take()) else {
                break;
            };
            self.free.push(victim);
            self.map.remove(&node.key);
            self.weight -= (self.weigher)(&node.value);
            self.evictions += 1;
        }
    }

    fn push_front(&mut self, idx: usize) {
        let head = self.head;
        if let Some(node) = self.slab.get_mut(idx).and_then(|s| s.as_mut()) {
            node.prev = NIL;
            node.next = head;
        }
        if self.head != NIL {
            if let Some(h) = self.slab.get_mut(self.head).and_then(|s| s.as_mut()) {
                h.prev = idx;
            }
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let Some((prev, next)) = self
            .slab
            .get(idx)
            .and_then(|s| s.as_ref())
            .map(|n| (n.prev, n.next))
        else {
            return;
        };
        if prev != NIL {
            if let Some(p) = self.slab.get_mut(prev).and_then(|s| s.as_mut()) {
                p.next = next;
            }
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            if let Some(n) = self.slab.get_mut(next).and_then(|s| s.as_mut()) {
                n.prev = prev;
            }
        } else if self.tail == idx {
            self.tail = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // a becomes MRU
        c.insert("c", 3); // evicts b
        assert!(c.contains(&"a"));
        assert!(!c.contains(&"b"));
        assert!(c.contains(&"c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut c = LruCache::new(2);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.insert("a", 7), Some(1));
        assert_eq!(c.get(&"a"), Some(&7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_and_clear() {
        let mut c = LruCache::new(4);
        c.insert(1, "x");
        c.insert(2, "y");
        assert_eq!(c.remove(&1), Some("x"));
        assert_eq!(c.remove(&1), None);
        c.clear();
        assert!(c.is_empty());
        c.insert(3, "z"); // reusable after clear
        assert_eq!(c.get(&3), Some(&"z"));
    }

    #[test]
    fn weight_budget_evicts() {
        let mut c: LruCache<&str, Vec<u8>> = LruCache::with_weight(100, 10, |v| v.len());
        c.insert("a", vec![0; 6]);
        c.insert("b", vec![0; 6]); // 12 > 10 → evict a
        assert!(!c.contains(&"a"));
        assert!(c.contains(&"b"));
        assert_eq!(c.weight(), 6);
    }

    #[test]
    fn single_oversized_entry_is_kept() {
        let mut c: LruCache<&str, Vec<u8>> = LruCache::with_weight(100, 10, |v| v.len());
        c.insert("big", vec![0; 50]);
        assert!(c.contains(&"big"));
    }

    #[test]
    fn hit_miss_stats() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.get(&"a");
        c.get(&"zz");
        assert_eq!(c.stats(), (1, 1));
        assert_eq!(c.peek(&"a"), Some(&1));
        assert_eq!(c.stats(), (1, 1)); // peek does not count
    }

    #[test]
    fn eviction_counter_counts_only_budget_evictions() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("a", 2); // replacement: not an eviction
        c.insert("b", 3);
        assert_eq!(c.evictions(), 0);
        c.insert("c", 4); // evicts "a"
        assert_eq!(c.evictions(), 1);
        c.remove(&"b"); // explicit removal: not an eviction
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn retain_invalidates() {
        let mut c = LruCache::new(8);
        for i in 0..6 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.retain(|k, _| k % 2 == 0), 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 0, "retain is not a budget eviction");
        assert!(c.contains(&4) && !c.contains(&3));
        // Cache still functions after retain.
        c.insert(7, 70);
        assert_eq!(c.get(&7), Some(&70));
    }

    #[test]
    fn heavy_churn_is_consistent() {
        let mut c = LruCache::new(16);
        for i in 0..1000u32 {
            c.insert(i % 40, i);
            assert!(c.len() <= 16);
        }
        // The 16 most recently inserted distinct keys must be present.
        let mut expected: Vec<u32> = Vec::new();
        for i in (0..1000u32).rev() {
            let k = i % 40;
            if !expected.contains(&k) {
                expected.push(k);
            }
            if expected.len() == 16 {
                break;
            }
        }
        for k in expected {
            assert!(c.contains(&k), "missing key {k}");
        }
    }
}
