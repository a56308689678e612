//! The Sequence Cache of the prototype architecture (Figure 6).
//!
//! Steps 1–4 of S-cuboid formation depend only on the `WHERE`, `CLUSTER BY`,
//! `SEQUENCE BY` and `SEQUENCE GROUP BY` clauses; iterative S-OLAP queries
//! (obtained via the six pattern operations) share them, so the constructed
//! sequence groups are cached and reused across the whole exploration
//! session.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::Result;
use crate::fail_point;
use crate::govern::QueryGovernor;
use crate::lru::LruCache;
use crate::metrics::Counter;
use crate::seqquery::{build_sequence_groups_governed, SeqQuerySpec, SequenceGroups};
use crate::store::EventDb;

/// Cache key: spec fingerprint + database version (appends invalidate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    spec: u64,
    db_version: u64,
}

/// A thread-safe LRU cache of [`SequenceGroups`].
pub struct SequenceCache {
    inner: Mutex<LruCache<Key, Arc<SequenceGroups>>>,
}

impl SequenceCache {
    /// Creates a cache bounded by `capacity` entries and `max_bytes` of
    /// (approximate) sequence-group payload.
    pub fn new(capacity: usize, max_bytes: usize) -> Self {
        SequenceCache {
            inner: Mutex::ranked(
                parking_lot::rank::EVENTDB_SEQ_CACHE,
                "eventdb.seq_cache",
                LruCache::with_weight(capacity, max_bytes, |sg| sg.heap_bytes()),
            ),
        }
    }

    /// Returns the sequence groups for `spec`, building them on a miss.
    pub fn get_or_build(&self, db: &EventDb, spec: &SeqQuerySpec) -> Result<Arc<SequenceGroups>> {
        self.get_or_build_governed(db, spec, &QueryGovernor::unbounded())
    }

    /// [`SequenceCache::get_or_build`] under a [`QueryGovernor`].
    ///
    /// The build runs outside the cache lock and the result is inserted
    /// only on success, so an aborted or failed build leaves no partial
    /// entry behind — the cache is never poisoned by a governed abort, a
    /// panic, or an injected failpoint.
    pub fn get_or_build_governed(
        &self,
        db: &EventDb,
        spec: &SeqQuerySpec,
        gov: &QueryGovernor,
    ) -> Result<Arc<SequenceGroups>> {
        let key = Key {
            spec: spec.fingerprint(),
            db_version: db.version(),
        };
        let rec = gov.recorder();
        if let Some(hit) = self.inner.lock().get(&key) {
            if let Some(rec) = rec {
                rec.add(Counter::SeqCacheHits, 1);
            }
            return Ok(Arc::clone(hit));
        }
        if let Some(rec) = rec {
            rec.add(Counter::SeqCacheMisses, 1);
        }
        fail_point!("seqcache.build");
        let built = Arc::new(build_sequence_groups_governed(db, spec, gov)?);
        {
            let mut inner = self.inner.lock();
            let before = inner.evictions();
            inner.insert(key, Arc::clone(&built));
            if let Some(rec) = rec {
                rec.add(Counter::SeqCacheEvictions, inner.evictions() - before);
            }
        }
        Ok(built)
    }

    /// Peeks the entry for `spec` at an explicit database version without
    /// building on a miss and without touching recency or the hit/miss
    /// counters. The store path uses this to find carry-forward
    /// candidates — groups cached at the pre-append version that
    /// incremental update (§6) can extend instead of rebuilding — and
    /// EXPLAIN to learn the sequence count without perturbing the cache.
    pub fn cached(&self, spec: &SeqQuerySpec, db_version: u64) -> Option<Arc<SequenceGroups>> {
        let key = Key {
            spec: spec.fingerprint(),
            db_version,
        };
        self.inner.lock().peek(&key).cloned()
    }

    /// Inserts pre-built groups for `spec` at an explicit database version
    /// — the write half of the store path's carry-forward.
    pub fn put(&self, spec: &SeqQuerySpec, db_version: u64, groups: Arc<SequenceGroups>) {
        let key = Key {
            spec: spec.fingerprint(),
            db_version,
        };
        self.inner.lock().insert(key, groups);
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        self.inner.lock().stats()
    }

    /// Budget-driven evictions since creation.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions()
    }

    /// Drops every entry stamped with a database version older than
    /// `version` and returns how many went. Such entries can never be hit
    /// again: every lookup asks for the version it reads.
    pub fn retire_before(&self, version: u64) -> usize {
        self.inner.lock().retain(|k, _| k.db_version >= version)
    }

    /// The oldest and newest database versions held (`None` when empty).
    pub fn versions(&self) -> Option<(u64, u64)> {
        version_span(self.inner.lock().iter().map(|(k, _)| k.db_version))
    }

    /// Approximate payload bytes held (the LRU weight).
    pub fn total_bytes(&self) -> usize {
        self.inner.lock().weight()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Drops everything (e.g. after a bulk load).
    pub fn clear(&self) {
        self.inner.lock().clear()
    }
}

/// The `(oldest, newest)` of a cache's version stamps — the shared helper
/// behind every version-stamped cache's `versions()` gauge.
pub fn version_span(versions: impl Iterator<Item = u64>) -> Option<(u64, u64)> {
    versions.fold(None, |span, v| match span {
        None => Some((v, v)),
        Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
    })
}

impl Default for SequenceCache {
    fn default() -> Self {
        // 64 cached group sets / 256 MiB — generous for interactive use.
        SequenceCache::new(64, 256 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::Pred;
    use crate::schema::ColumnType;
    use crate::seqquery::{AttrLevel, SortKey};
    use crate::store::EventDbBuilder;
    use crate::value::Value;

    fn db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("sess", ColumnType::Int)
            .dimension("page", ColumnType::Str)
            .build()
            .unwrap();
        for (s, p) in [(1, "a"), (1, "b"), (2, "a")] {
            db.push_row(&[Value::Int(s), Value::from(p)]).unwrap();
        }
        db
    }

    fn spec() -> SeqQuerySpec {
        SeqQuerySpec {
            filter: Pred::True,
            cluster_by: vec![AttrLevel::new(0, 0)],
            sequence_by: vec![SortKey {
                attr: 0,
                ascending: true,
            }],
            group_by: vec![],
        }
    }

    #[test]
    fn caches_and_reuses() {
        let db = db();
        let cache = SequenceCache::default();
        let a = cache.get_or_build(&db, &spec()).unwrap();
        let b = cache.get_or_build(&db, &spec()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn db_mutation_invalidates() {
        let mut db = db();
        let cache = SequenceCache::default();
        let a = cache.get_or_build(&db, &spec()).unwrap();
        db.push_row(&[Value::Int(3), Value::from("c")]).unwrap();
        let b = cache.get_or_build(&db, &spec()).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.total_sequences, 3);
    }

    #[test]
    fn tiny_byte_budget_churns_but_stays_correct() {
        let db = db();
        // 1-byte budget: every insert immediately evicts down to the
        // single-entry floor, so each distinct spec alternation misses.
        let cache = SequenceCache::new(64, 1);
        let mut s2 = spec();
        s2.cluster_by = vec![AttrLevel::new(1, 0)];
        let fresh_a = build_sequence_groups_governed(&db, &spec(), &QueryGovernor::unbounded())
            .unwrap()
            .groups
            .clone();
        let fresh_b = build_sequence_groups_governed(&db, &s2, &QueryGovernor::unbounded())
            .unwrap()
            .groups
            .clone();
        for _ in 0..10 {
            let a = cache.get_or_build(&db, &spec()).unwrap();
            let b = cache.get_or_build(&db, &s2).unwrap();
            assert_eq!(a.groups, fresh_a);
            assert_eq!(b.groups, fresh_b);
            assert!(cache.len() <= 1, "budget must keep at most one entry");
        }
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 20, "every lookup is counted exactly once");
        assert!(misses >= 10, "churn under a tiny budget must keep missing");
    }

    #[test]
    fn failed_build_leaves_no_entry() {
        let db = db();
        let cache = SequenceCache::default();
        let mut bad = spec();
        // Comparing the Str `page` column to an Int is a TypeMismatch.
        bad.filter = Pred::cmp(1, crate::pred::CmpOp::Eq, Value::Int(3));
        assert!(cache.get_or_build(&db, &bad).is_err());
        assert!(cache.is_empty(), "failed builds must not be cached");
        // A governed abort must not poison the cache either.
        let gov = QueryGovernor::new(None, Some(0), None);
        assert!(cache.get_or_build_governed(&db, &spec(), &gov).is_err());
        assert!(cache.is_empty());
        let ok = cache.get_or_build(&db, &spec()).unwrap();
        assert_eq!(ok.total_sequences, 2);
    }

    #[test]
    fn cached_is_a_peek() {
        let db = db();
        let cache = SequenceCache::default();
        cache.get_or_build(&db, &spec()).unwrap();
        let before = cache.stats();
        assert!(cache.cached(&spec(), db.version()).is_some());
        assert!(cache.cached(&spec(), db.version() + 1).is_none());
        assert_eq!(cache.stats(), before, "probes must not count");
    }

    #[test]
    fn retire_before_drops_only_older_versions() {
        let mut db = db();
        let cache = SequenceCache::default();
        let v0 = db.version();
        cache.get_or_build(&db, &spec()).unwrap();
        db.push_row(&[Value::Int(3), Value::from("c")]).unwrap();
        let v1 = db.version();
        cache.get_or_build(&db, &spec()).unwrap();
        assert_eq!(cache.versions(), Some((v0, v1)));
        assert!(cache.total_bytes() > 0);
        assert_eq!(cache.retire_before(v0), 0, "nothing is older than v0");
        assert_eq!(cache.retire_before(v1), 1);
        assert_eq!(cache.versions(), Some((v1, v1)));
        assert!(cache.cached(&spec(), v1).is_some(), "current entry kept");
        assert_eq!(cache.retire_before(v1 + 1), 1);
        assert_eq!((cache.versions(), cache.total_bytes()), (None, 0));
    }

    #[test]
    fn distinct_specs_distinct_entries() {
        let db = db();
        let cache = SequenceCache::default();
        cache.get_or_build(&db, &spec()).unwrap();
        let mut s2 = spec();
        s2.cluster_by = vec![AttrLevel::new(1, 0)];
        cache.get_or_build(&db, &s2).unwrap();
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }
}
