//! The index store: cached inverted indices per sequence group.
//!
//! Answering a query "is a by-product: the creation of new inverted
//! indices … such indices can assist the processing of a follow-up query"
//! (§4.2). The store caches every index built — offline-precomputed or
//! created on demand — keyed by the owning sequence group and the index's
//! structural signature, with an LRU byte budget.

use std::sync::Arc;

use parking_lot::Mutex;

use solap_eventdb::lru::LruCache;
use solap_eventdb::seqcache::version_span;
use solap_eventdb::LevelValue;
use solap_pattern::TemplateSignature;

use crate::inverted::InvertedIndex;

/// A per-position slice: `Some((slice_level, value))` fixes the value of a
/// pattern position (compared after rolling the position's value up to
/// `slice_level`); `None` leaves it free.
pub type PosSlice = Vec<Option<(usize, LevelValue)>>;

/// Identifies an index: which sequence-group set it was built over (the
/// spec that forms the groups and the database version they cover), which
/// group within it, the structural signature of its patterns, and — for
/// slice-restricted assemblies — the position slice its lists were
/// filtered by (empty = unsliced, covering every pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexKey {
    /// Fingerprint of the sequence-group spec (`SeqQuerySpec::fingerprint`).
    pub groups_fp: u64,
    /// Database version the groups — and so the index — cover.
    pub db_version: u64,
    /// Ordinal of the group within the sequence groups.
    pub group_idx: usize,
    /// Structural identity of the index's patterns.
    pub sig: TemplateSignature,
    /// The fixed positions baked into the lists; see [`IndexKey::new`].
    pub slice: PosSlice,
}

impl IndexKey {
    /// The key of an index over `sig` restricted by `slice`. Only the
    /// positions the signature has count, and trailing free positions are
    /// dropped, so a prefix of a longer sliced template shares the keys of
    /// the shorter one and every unsliced key carries the empty slice.
    pub fn new(
        groups_fp: u64,
        db_version: u64,
        group_idx: usize,
        sig: TemplateSignature,
        slice: &[Option<(usize, LevelValue)>],
    ) -> Self {
        let fixed = slice.iter().take(sig.m()).rposition(Option::is_some);
        IndexKey {
            groups_fp,
            db_version,
            group_idx,
            slice: fixed.map_or_else(Vec::new, |last| slice[..=last].to_vec()),
            sig,
        }
    }

    /// The key of the complete (unsliced) index over `sig`.
    pub fn unsliced(
        groups_fp: u64,
        db_version: u64,
        group_idx: usize,
        sig: TemplateSignature,
    ) -> Self {
        IndexKey::new(groups_fp, db_version, group_idx, sig, &[])
    }

    /// Whether an index cached under this key can serve `slice` by
    /// filtering: every position this key fixes, `slice` fixes alike.
    fn refined_by(&self, slice: &[Option<(usize, LevelValue)>]) -> bool {
        self.slice
            .iter()
            .enumerate()
            .all(|(p, fixed)| fixed.is_none() || slice.get(p) == Some(fixed))
    }
}

/// A thread-safe LRU store of inverted indices.
pub struct IndexStore {
    inner: Mutex<LruCache<IndexKey, Arc<InvertedIndex>>>,
}

impl IndexStore {
    /// Creates a store bounded by entry count and total index bytes.
    pub fn new(capacity: usize, max_bytes: usize) -> Self {
        IndexStore {
            inner: Mutex::ranked(
                parking_lot::rank::INDEX_STORE,
                "index.store",
                LruCache::with_weight(capacity, max_bytes, |ix| ix.heap_bytes()),
            ),
        }
    }

    /// Fetches an index (LRU touch).
    pub fn get(&self, key: &IndexKey) -> Option<Arc<InvertedIndex>> {
        self.inner.lock().get(key).cloned()
    }

    /// Whether an index is present (no LRU touch).
    pub fn contains(&self, key: &IndexKey) -> bool {
        self.inner.lock().contains(key)
    }

    /// Stores an index.
    pub fn insert(&self, key: IndexKey, index: Arc<InvertedIndex>) {
        self.inner.lock().insert(key, index);
    }

    /// Finds the **largest available prefix index** for a target signature
    /// (Figure 15 line 8 joins "the largest available inverted index"):
    /// the greatest `k` in `[2, m]` such that an index over `sig.prefix(k)`
    /// is cached under a slice that `slice` **refines** — the unsliced
    /// index, the one cached for exactly this slice, or one cached for a
    /// slice fixing fewer positions. Each holds every list the request can
    /// need, so the caller filters it instead of rebuilding. Among equal
    /// lengths the most restricted (smallest) wins. Returns the index and
    /// its length.
    pub fn largest_prefix(
        &self,
        groups_fp: u64,
        db_version: u64,
        group_idx: usize,
        sig: &TemplateSignature,
        slice: &[Option<(usize, LevelValue)>],
    ) -> Option<(Arc<InvertedIndex>, usize)> {
        let m = sig.m();
        let prefixes: Vec<TemplateSignature> = (m.min(2)..=m).map(|k| sig.prefix(k)).collect();
        let mut guard = self.inner.lock();
        let best = guard
            .iter()
            .map(|(key, _)| key)
            .filter(|key| {
                key.groups_fp == groups_fp
                    && key.db_version == db_version
                    && key.group_idx == group_idx
                    && prefixes.contains(&key.sig)
                    && key.refined_by(slice)
            })
            .max_by_key(|key| (key.sig.m(), key.slice.iter().flatten().count()))
            .cloned()
            // Nothing to start from: counted as a miss on the index asked for.
            .unwrap_or_else(|| IndexKey::new(groups_fp, db_version, group_idx, sig.clone(), slice));
        guard.get(&best).map(|ix| (Arc::clone(ix), best.sig.m()))
    }

    /// Total bytes of cached indices.
    pub fn total_bytes(&self) -> usize {
        self.inner.lock().weight()
    }

    /// Number of cached indices.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Drops every index keyed to a database version older than
    /// `version` and returns how many went — see
    /// [`solap_eventdb::seqcache::SequenceCache::retire_before`].
    pub fn retire_before(&self, version: u64) -> usize {
        self.inner.lock().retain(|k, _| k.db_version >= version)
    }

    /// The oldest and newest database versions held (`None` when empty).
    pub fn versions(&self) -> Option<(u64, u64)> {
        version_span(self.inner.lock().iter().map(|(k, _)| k.db_version))
    }

    /// Drops everything.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        self.inner.lock().stats()
    }
}

impl Default for IndexStore {
    fn default() -> Self {
        // 256 indices / 512 MiB default budget.
        IndexStore::new(256, 512 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_pattern::{PatternKind, PatternTemplate};

    fn sig(syms: &[&str]) -> TemplateSignature {
        let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
        for &s in syms {
            if !bindings.iter().any(|(n, _, _)| *n == s) {
                bindings.push((s, 0, 0));
            }
        }
        PatternTemplate::new(PatternKind::Substring, syms, &bindings)
            .unwrap()
            .signature()
    }

    fn key(syms: &[&str]) -> IndexKey {
        IndexKey::unsliced(42, 1, 0, sig(syms))
    }

    fn empty_index(syms: &[&str]) -> Arc<InvertedIndex> {
        Arc::new(InvertedIndex::new(sig(syms)))
    }

    #[test]
    fn insert_get_roundtrip() {
        let store = IndexStore::default();
        let k = key(&["X", "Y"]);
        store.insert(k.clone(), empty_index(&["X", "Y"]));
        assert!(store.contains(&k));
        assert!(store.get(&k).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn largest_prefix_prefers_longer() {
        let store = IndexStore::default();
        store.insert(key(&["X", "Y"]), empty_index(&["X", "Y"]));
        store.insert(key(&["X", "Y", "Y"]), empty_index(&["X", "Y", "Y"]));
        let target = sig(&["X", "Y", "Y", "X"]);
        let (_, k) = store.largest_prefix(42, 1, 0, &target, &[]).unwrap();
        assert_eq!(k, 3, "the length-3 prefix (X,Y,Y) must win over (X,Y)");
        // A different group, spec or database version sees nothing.
        assert!(store.largest_prefix(42, 1, 1, &target, &[]).is_none());
        assert!(store.largest_prefix(7, 1, 0, &target, &[]).is_none());
        assert!(store.largest_prefix(42, 2, 0, &target, &[]).is_none());
    }

    #[test]
    fn prefix_matching_is_structural() {
        let store = IndexStore::default();
        // Cache an (A, B) index; the prefix of (P, Q, Q, P) is structurally
        // identical, so it must be found.
        store.insert(key(&["A", "B"]), empty_index(&["A", "B"]));
        let target = sig(&["P", "Q", "Q", "P"]);
        let (_, k) = store.largest_prefix(42, 1, 0, &target, &[]).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn a_refining_slice_finds_the_coarser_cached_index() {
        let store = IndexStore::default();
        let xyz = sig(&["X", "Y", "Z"]);
        let on_x: PosSlice = vec![Some((0, 7))];
        let on_xz: PosSlice = vec![Some((0, 7)), None, Some((0, 9))];
        store.insert(key(&["X", "Y"]), empty_index(&["X", "Y"]));
        store.insert(
            IndexKey::new(42, 1, 0, xyz.clone(), &on_x),
            empty_index(&["X", "Y", "Z"]),
        );
        // {X, Z} refines {X}: the length-3 index serves it by filtering …
        assert_eq!(store.largest_prefix(42, 1, 0, &xyz, &on_xz).unwrap().1, 3);
        // … a slice on another value of X does not, and falls back to the
        // unsliced (X, Y); so does the unsliced request itself.
        let other: PosSlice = vec![Some((0, 8))];
        assert_eq!(store.largest_prefix(42, 1, 0, &xyz, &other).unwrap().1, 2);
        assert_eq!(store.largest_prefix(42, 1, 0, &xyz, &[]).unwrap().1, 2);
        // Keys only carry the positions their signature has.
        assert_eq!(
            IndexKey::new(42, 1, 0, sig(&["X", "Y"]), &on_xz),
            IndexKey::new(42, 1, 0, sig(&["X", "Y"]), &on_x)
        );
        assert_eq!(
            IndexKey::new(42, 1, 0, sig(&["X", "Y"]), &[None, None, Some((0, 9))]),
            key(&["X", "Y"])
        );
    }

    #[test]
    fn retire_before_drops_only_older_versions() {
        let store = IndexStore::default();
        let at = |version: u64, syms: &[&str]| IndexKey::unsliced(42, version, 0, sig(syms));
        store.insert(at(1, &["X", "Y"]), empty_index(&["X", "Y"]));
        store.insert(at(1, &["X", "Y", "Y"]), empty_index(&["X", "Y", "Y"]));
        store.insert(at(2, &["X", "Y"]), empty_index(&["X", "Y"]));
        assert_eq!(store.versions(), Some((1, 2)));
        assert_eq!(store.retire_before(1), 0, "nothing is older than 1");
        assert_eq!(store.retire_before(2), 2);
        assert_eq!(store.versions(), Some((2, 2)));
        assert!(store.contains(&at(2, &["X", "Y"])), "current entry kept");
        assert_eq!(store.retire_before(3), 1);
        assert_eq!((store.versions(), store.len()), (None, 0));
    }
}
