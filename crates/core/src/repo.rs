//! The Cuboid Repository (Figure 6): a bounded cache of computed S-cuboids.
//!
//! "Given an S-cuboid query, the S-OLAP Engine searches a Cuboid Repository
//! to see if such an S-cuboid has been previously computed and stored …
//! (If storage space is limited, the Cuboid Repository could be implemented
//! as a cache with an appropriate replacement policy such as LRU.)"
//!
//! The paper leaves the replacement policy open; this implementation keeps
//! the cuboids whose loss would hurt most per byte of heap they occupy
//! (benefit per byte): the victim minimizes
//! `rebuild_nanos × (1 + hits) / bytes` — cost-to-rebuild (measured when
//! the cuboid was constructed) times observed demand, per byte — with ties
//! broken toward the least recently used. DE-HEAD and DE-TAIL lean on this
//! cache, and the planner's ancestor-reuse path probes it without touching
//! recency ([`CuboidRepo::peek`]) so that costing alternatives never
//! perturbs what it is costing.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use solap_eventdb::seqcache::version_span;

use crate::cuboid::SCuboid;

/// Cache key: spec fingerprint + database version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    spec: u64,
    db_version: u64,
}

/// A point-in-time snapshot of the repository's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepoStats {
    /// Cuboids currently cached.
    pub entries: usize,
    /// Approximate heap bytes cached.
    pub bytes: usize,
    /// Lookups that found their cuboid.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries sacrificed to stay within capacity.
    pub evictions: u64,
}

/// One cached cuboid plus the bookkeeping eviction scores.
struct Entry {
    cuboid: Arc<SCuboid>,
    bytes: usize,
    build_nanos: u64,
    hits: u64,
    tick: u64,
}

impl Entry {
    /// Benefit-per-byte retention score: higher is more worth keeping.
    fn score(&self) -> f64 {
        (self.build_nanos.saturating_add(1) as f64) * (1 + self.hits) as f64
            / self.bytes.max(1) as f64
    }
}

struct Inner {
    map: HashMap<Key, Entry>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A thread-safe bounded repository of computed cuboids.
pub struct CuboidRepo {
    inner: Mutex<Inner>,
    capacity: usize,
    max_bytes: usize,
}

impl CuboidRepo {
    /// Creates a repository bounded by entry count and approximate bytes,
    /// evicting by benefit per byte. A zero capacity is clamped to one.
    pub fn new(capacity: usize, max_bytes: usize) -> Self {
        CuboidRepo {
            inner: Mutex::ranked(
                parking_lot::rank::CORE_CUBOID_REPO,
                "core.cuboid_repo",
                Inner {
                    map: HashMap::new(),
                    tick: 0,
                    bytes: 0,
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                },
            ),
            capacity: capacity.max(1),
            max_bytes,
        }
    }

    /// Fetches a cached cuboid, refreshing its recency and demand counters.
    pub fn get(&self, spec_fp: u64, db_version: u64) -> Option<Arc<SCuboid>> {
        let key = Key {
            spec: spec_fp,
            db_version,
        };
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(e) => {
                e.tick = tick;
                e.hits += 1;
                let c = Arc::clone(&e.cuboid);
                inner.hits += 1;
                Some(c)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inspects a cached cuboid without touching recency, demand or
    /// hit/miss counters — the planner costs alternatives through this so
    /// EXPLAIN and rejected candidates leave no trace.
    pub fn peek(&self, spec_fp: u64, db_version: u64) -> Option<Arc<SCuboid>> {
        let inner = self.inner.lock();
        inner
            .map
            .get(&Key {
                spec: spec_fp,
                db_version,
            })
            .map(|e| Arc::clone(&e.cuboid))
    }

    /// Whether a cuboid is cached, without touching any counters.
    pub fn contains(&self, spec_fp: u64, db_version: u64) -> bool {
        self.inner.lock().map.contains_key(&Key {
            spec: spec_fp,
            db_version,
        })
    }

    /// Stores a computed cuboid along with what it cost to build (the
    /// benefit-per-byte score's rebuild-cost input), then evicts until
    /// back under budget. A single entry larger than `max_bytes` is kept —
    /// matching the LRU cache's contract elsewhere in the engine.
    pub fn insert(&self, spec_fp: u64, db_version: u64, cuboid: Arc<SCuboid>, build_nanos: u64) {
        let key = Key {
            spec: spec_fp,
            db_version,
        };
        let bytes = cuboid.heap_bytes();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                cuboid,
                bytes,
                build_nanos,
                hits: 0,
                tick,
            },
        ) {
            inner.bytes = inner.bytes.saturating_sub(old.bytes);
        }
        inner.bytes += bytes;
        while inner.map.len() > self.capacity
            || (inner.bytes > self.max_bytes && inner.map.len() > 1)
        {
            let victim = inner
                .map
                .iter()
                .min_by(|(_, a), (_, b)| {
                    a.score()
                        .partial_cmp(&b.score())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.tick.cmp(&b.tick))
                })
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(e) = inner.map.remove(&victim) {
                inner.bytes = inner.bytes.saturating_sub(e.bytes);
                inner.evictions += 1;
            }
        }
    }

    /// Drops every cuboid computed at a database version older than
    /// `version` and returns how many went (neither hits nor evictions
    /// count them). A superseded cuboid can never be hit again, yet its
    /// benefit-per-byte score — demand it collected while current — would
    /// otherwise outrank every fresh entry, whose demand starts at zero.
    pub fn retire_before(&self, version: u64) -> usize {
        let mut inner = self.inner.lock();
        let before = inner.map.len();
        let mut freed = 0;
        inner.map.retain(|k, e| {
            let keep = k.db_version >= version;
            if !keep {
                freed += e.bytes;
            }
            keep
        });
        inner.bytes = inner.bytes.saturating_sub(freed);
        before - inner.map.len()
    }

    /// The oldest and newest database versions held (`None` when empty).
    pub fn versions(&self) -> Option<(u64, u64)> {
        version_span(self.inner.lock().map.keys().map(|k| k.db_version))
    }

    /// Number of cached cuboids.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().map.is_empty()
    }

    /// Approximate bytes cached (the "0.3MB of cuboids" of §5.1).
    pub fn total_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RepoStats {
        let inner = self.inner.lock();
        RepoStats {
            entries: inner.map.len(),
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// Drops every entry (counters survive).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.bytes = 0;
    }
}

impl Default for CuboidRepo {
    fn default() -> Self {
        CuboidRepo::new(128, 256 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuboid::CellKey;
    use solap_pattern::{AggFunc, AggValue};

    fn cuboid() -> Arc<SCuboid> {
        Arc::new(SCuboid::new(vec![], vec![], AggFunc::Count))
    }

    fn sized(cells: u64) -> Arc<SCuboid> {
        let mut c = SCuboid::new(vec![], vec![], AggFunc::Count);
        for i in 0..cells {
            c.insert(
                CellKey {
                    global: vec![],
                    pattern: vec![i],
                },
                AggValue::Count(1),
            );
        }
        Arc::new(c)
    }

    #[test]
    fn roundtrip_and_version_separation() {
        let repo = CuboidRepo::default();
        repo.insert(1, 10, sized(2), 5_000);
        assert!(repo.get(1, 10).is_some());
        assert!(repo.get(1, 11).is_none(), "new db version misses");
        assert!(repo.get(2, 10).is_none(), "different spec misses");
        assert_eq!(repo.len(), 1);
        let stats = repo.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 2));
        assert!(stats.bytes > 0);
        repo.clear();
        assert!(repo.is_empty());
    }

    #[test]
    fn peek_and_contains_leave_no_trace() {
        let repo = CuboidRepo::default();
        repo.insert(1, 10, cuboid(), 5_000);
        assert!(repo.peek(1, 10).is_some());
        assert!(repo.peek(9, 10).is_none());
        assert!(repo.contains(1, 10));
        assert!(!repo.contains(9, 10));
        let stats = repo.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn retire_before_drops_only_older_versions() {
        let repo = CuboidRepo::default();
        repo.insert(1, 10, sized(2), 5_000);
        assert!(repo.get(1, 10).is_some());
        repo.insert(2, 10, sized(3), 5_000);
        repo.insert(1, 11, sized(2), 5_000);
        assert_eq!(repo.versions(), Some((10, 11)));
        assert_eq!(repo.retire_before(10), 0, "nothing is older than 10");
        assert_eq!(repo.retire_before(11), 2);
        assert_eq!(repo.versions(), Some((11, 11)));
        assert!(repo.contains(1, 11), "current entry kept");
        let stats = repo.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 0));
        assert_eq!(stats.bytes, sized(2).heap_bytes());
        assert_eq!(repo.retire_before(12), 1);
        assert_eq!((repo.versions(), repo.total_bytes()), (None, 0));
    }

    #[test]
    fn equal_scores_evict_the_least_recent() {
        let repo = CuboidRepo::new(2, usize::MAX);
        repo.insert(1, 0, cuboid(), 1);
        repo.insert(2, 0, cuboid(), 1);
        repo.insert(3, 0, cuboid(), 1);
        assert!(!repo.contains(1, 0), "oldest of three equal scores goes");
        assert!(repo.contains(2, 0) && repo.contains(3, 0));
        assert_eq!(repo.stats().evictions, 1);
    }

    #[test]
    fn benefit_policy_keeps_expensive_hot_entries() {
        let repo = CuboidRepo::new(2, usize::MAX);
        // Entry 1: expensive to rebuild and frequently hit, but stale.
        repo.insert(1, 0, sized(4), 1_000_000);
        for _ in 0..5 {
            assert!(repo.get(1, 0).is_some());
        }
        // Entry 2: cheap, unloved, recently used. LRU would keep it.
        repo.insert(2, 0, sized(4), 10);
        repo.insert(3, 0, sized(4), 10);
        assert!(repo.contains(1, 0), "high-benefit entry survives");
        assert!(!repo.contains(2, 0), "cheap cold entry is the victim");
        assert!(repo.contains(3, 0));
    }

    #[test]
    fn byte_budget_keeps_one_oversized_entry() {
        let repo = CuboidRepo::new(8, 1);
        repo.insert(1, 0, sized(4), 1);
        assert_eq!(repo.len(), 1, "single oversized entry is kept");
        repo.insert(2, 0, sized(4), 1);
        assert_eq!(repo.len(), 1, "second entry forces eviction to budget");
    }
}
