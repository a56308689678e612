//! The store path and incremental update (§6 "Incremental Update").
//!
//! "When a day of new transactions (events) are added to the event
//! database, we could create a new sequence group and precompute the
//! corresponding inverted indices for that day … it is necessary to devise
//! methods to incrementally update the precomputed inverted indices."
//!
//! [`Engine::append_events`] runs one `STORE` batch in four steps, all
//! under the engine's ingest lock:
//!
//! 1. **Stage.** Validate the batch, commit it to the write-ahead log
//!    (durable engines), then push its rows behind the database's published
//!    prefix ([`EventDb::stage_rows`]). Readers keep seeing the old version
//!    together with every cache entry it has.
//! 2. **Carry.** Under a *read* guard, so readers stay concurrent, extend
//!    the cached sequence groups ([`extend_groups`]) and stored base
//!    indices ([`extend_index`]) of recently executed specs over the staged
//!    rows, and insert them at the staged version.
//! 3. **Publish.** One brief write lock moves the published prefix over
//!    the batch ([`EventDb::publish`]), so the new version appears together
//!    with its carried entries. A scope guard publishes even when the carry
//!    errors or panics: acknowledged ⇒ published ⇒ WAL-committed.
//! 4. **Retire.** Drop every cache entry of an older version.
//!
//! The two incremental pieces:
//!
//! * [`extend_index`] — appends new sequences to an existing inverted
//!   index without rescanning the old ones (sids must continue the old
//!   range, which holds when a batch of events forms new clusters — e.g.
//!   a new day under day-level clustering).
//! * [`extend_groups`] — extends a [`SequenceGroups`] with the sequences
//!   formed by a range of appended rows, verifying the new events do
//!   **not** touch existing clusters (if they do, the caller must rebuild —
//!   the paper's "may also invalidate the cached sequence groups … of the
//!   same week" caveat).

use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use parking_lot::RwLock;
use solap_eventdb::metrics::{self, Counter, QueryProfile, QueryRecorder};
use solap_eventdb::{
    build_sequence_groups, fail_point, form_sequences, Error, EventDb, LevelValue, QueryGovernor,
    Result, RowId, SeqQuerySpec, Sequence, SequenceGroups, Sid, Value,
};
use solap_index::{build_index, IndexKey, InvertedIndex};
use solap_pattern::PatternTemplate;

use crate::engine::{Engine, EngineConfig};
use crate::spec::SCuboidSpec;

/// How many recently executed specs the engine remembers for incremental
/// cache maintenance on the store path.
const LIVE_SPECS_CAP: usize = 32;

/// What one acknowledged [`Engine::append_events`] batch did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Events appended.
    pub appended: usize,
    /// Database version after the append.
    pub version: u64,
    /// Whether the batch was committed to the write-ahead log (per the
    /// fsync policy) before it was applied or acknowledged.
    pub durable: bool,
    /// Cached sequence-group sets carried forward incrementally (§6).
    pub groups_extended: usize,
    /// Stored inverted indices carried forward incrementally (§6).
    pub indexes_extended: usize,
    /// Cached sequence-group sets abandoned because the batch touched an
    /// existing cluster ([`Error::ClusterInvalidated`]) or the extension
    /// failed — the next query rebuilds them from scratch.
    pub rebuild_fallbacks: usize,
    /// Superseded-version entries retired from the sequence cache, the
    /// index store and the cuboid repository after the carry-forward.
    pub entries_retired: usize,
}

/// Publishes the database's staged rows when dropped: after the carry, on
/// an early error return and while a panic unwinds alike, so rows the WAL
/// holds never stay invisible. Drop it only with no guard of the same lock
/// held.
struct PublishOnDrop<'a>(&'a RwLock<EventDb>);

impl Drop for PublishOnDrop<'_> {
    fn drop(&mut self) {
        self.0.write().publish();
    }
}

impl Engine {
    /// Appends a batch of events under the engine defaults — see
    /// [`Engine::append_events_configured`].
    pub fn append_events(&self, rows: &[Vec<Value>]) -> Result<StoreReport> {
        self.append_events_configured(rows, &self.config)
    }

    /// Appends a batch of events through `&self` — the serving-path write
    /// API behind the query language's `STORE` statement.
    ///
    /// The batch is validated against the schema first, then (on durable
    /// engines) committed to the write-ahead log — group commit, fsynced
    /// per the [`solap_eventdb::FsyncPolicy`] — and only then staged in the
    /// in-memory database, so a WAL-committed batch can never fail to apply
    /// and an acknowledged batch is durable. Appends are serialised (WAL
    /// order equals database order).
    ///
    /// Staged rows stay invisible while the cached derivations of recently
    /// executed specs are carried forward over them (§6 "Incremental
    /// Update"); a batch that lands in an existing cluster trips
    /// [`Error::ClusterInvalidated`] internally and falls back to
    /// rebuild-on-next-query (counted in the report, never an error). Only
    /// then is the batch published, so concurrent queries see the old
    /// version with its caches until the new version appears with its
    /// own. Every entry of the sequence cache, the index store and the
    /// cuboid repository stamped with an older version is retired last.
    /// Runs under the configured [`solap_eventdb::QueryGovernor`] limits and
    /// the same panic isolation as [`Engine::execute`]; a batch whose carry
    /// panics is still published, and the call reports the panic.
    pub fn append_events_configured(
        &self,
        rows: &[Vec<Value>],
        config: &EngineConfig,
    ) -> Result<StoreReport> {
        self.isolated(|| self.append_inner(rows, config))
    }

    fn append_inner(&self, rows: &[Vec<Value>], config: &EngineConfig) -> Result<StoreReport> {
        let gov = Engine::governor(config);
        // One ingest at a time: the log mutex serialises writers end to
        // end, so WAL order always equals database order.
        let mut log = self.log.lock();
        {
            let db = self.db.read();
            for row in rows {
                gov.tick()?;
                db.validate_row(row)?;
            }
        }
        // Durability point: the validated batch is WAL-committed (and
        // fsynced per policy) before it is applied or acknowledged.
        let mut durable = false;
        let (mut wal_fsyncs, mut wal_rotations) = (0, 0);
        if let Some(log) = log.as_mut() {
            let (f0, r0) = (log.fsyncs(), log.rotations());
            log.append_batch(rows)?;
            wal_fsyncs = log.fsyncs() - f0;
            wal_rotations = log.rotations() - r0;
            durable = true;
        }
        // Stage. A validated batch cannot fail to stage, so the database
        // never falls behind a WAL-committed batch.
        let (old_version, staged, new_version) = {
            let mut db = self.db.write();
            let staged = db.stage_rows(rows)?;
            (db.version(), staged, db.staged_version())
        };
        let mut report = StoreReport {
            appended: rows.len(),
            version: new_version,
            durable,
            ..Default::default()
        };
        {
            let publish = PublishOnDrop(&self.db);
            if new_version != old_version {
                let db = self.db.read();
                self.maintain_caches(&db, old_version, new_version, staged, &mut report);
            }
            fail_point!("ingest.publish");
            drop(publish);
        }
        // Retire only now, once the carry-forward has read the entries it
        // extends and readers ask for the new version.
        report.entries_retired = self.seq_cache.retire_before(new_version)
            + self.index_store.retire_before(new_version)
            + self.cuboid_repo.retire_before(new_version);
        if !rows.is_empty() {
            let rec = QueryRecorder::default();
            rec.add(Counter::StoreEvents, rows.len() as u64);
            rec.add(Counter::WalFsyncs, wal_fsyncs);
            rec.add(Counter::WalRotations, wal_rotations);
            rec.add(Counter::IngestGroupsExtended, report.groups_extended as u64);
            rec.add(
                Counter::IngestIndexesExtended,
                report.indexes_extended as u64,
            );
            rec.add(
                Counter::IngestRebuildFallbacks,
                report.rebuild_fallbacks as u64,
            );
            rec.add(Counter::IngestEntriesRetired, report.entries_retired as u64);
            rec.add(Counter::GovernorTicks, gov.events_ticked());
            metrics::global().record(&QueryProfile::from_recorder(&rec));
        }
        Ok(report)
    }

    /// Carries cached derivations of recently executed specs forward over
    /// the staged `rows` to the staged version where the incremental-update
    /// invariants (§6) allow. Best-effort by design: correctness comes
    /// from version-keyed cache lookups, so a skipped spec simply
    /// rebuilds on its next query — this only decides *rebuild vs
    /// extend*, never *right vs wrong*.
    fn maintain_caches(
        &self,
        db: &EventDb,
        old_version: u64,
        new_version: u64,
        rows: Range<RowId>,
        report: &mut StoreReport,
    ) {
        let live: Vec<SCuboidSpec> = self.live.lock().clone();
        for spec in &live {
            let Some(old_groups) = self.seq_cache.cached(&spec.seq, old_version) else {
                continue;
            };
            match extend_groups(db, &spec.seq, &old_groups, rows.clone()) {
                Ok((extended, new_sids)) => {
                    let renumbered = new_sids
                        .iter()
                        .any(|&sid| (sid as usize) < old_groups.total_sequences);
                    let extended = Arc::new(extended);
                    self.seq_cache
                        .put(&spec.seq, new_version, Arc::clone(&extended));
                    report.groups_extended += 1;
                    if renumbered {
                        // Existing sids shifted: the stored per-group
                        // indices no longer line up, so leave them to be
                        // retired and rebuild on demand.
                        continue;
                    }
                    report.indexes_extended += self.carry_indexes_forward(
                        db,
                        spec,
                        &extended,
                        &new_sids,
                        old_version,
                        new_version,
                    );
                }
                // ClusterInvalidated (the batch extends a cluster that
                // already has sequences) or any other extension failure:
                // drop the carry-forward, rebuild on the next query.
                Err(_) => report.rebuild_fallbacks += 1,
            }
        }
    }

    /// Extends the stored base inverted indices of `spec` (one per
    /// sequence group, unsliced) with the newly appended sequences and
    /// re-keys them under the post-append database version. Returns how
    /// many indices were carried forward.
    fn carry_indexes_forward(
        &self,
        db: &EventDb,
        spec: &SCuboidSpec,
        extended: &SequenceGroups,
        new_sids: &[Sid],
        old_version: u64,
        new_version: u64,
    ) -> usize {
        let groups_fp = spec.seq.fingerprint();
        let sig = spec.template.signature();
        let fresh_sids: HashSet<Sid> = new_sids.iter().copied().collect();
        let mut carried = 0;
        for (group_idx, group) in extended.groups.iter().enumerate() {
            let key = IndexKey::unsliced(groups_fp, old_version, group_idx, sig.clone());
            let Some(base) = self.index_store.get(&key) else {
                continue;
            };
            let fresh: Vec<Sequence> = group
                .sequences
                .iter()
                .filter(|s| fresh_sids.contains(&s.sid))
                .cloned()
                .collect();
            let next = if fresh.is_empty() {
                base
            } else {
                match extend_index(db, &base, &fresh, &spec.template) {
                    Ok(ix) => Arc::new(ix),
                    Err(_) => continue,
                }
            };
            self.index_store.insert(
                IndexKey::unsliced(groups_fp, new_version, group_idx, sig.clone()),
                next,
            );
            carried += 1;
        }
        carried
    }

    /// Remembers `spec` as recently executed (MRU, bounded) so the store
    /// path knows which cached derivations are worth carrying forward.
    pub(crate) fn remember_live_spec(&self, spec: &SCuboidSpec) {
        let mut live = self.live.lock();
        let fp = spec.fingerprint();
        if let Some(i) = live.iter().position(|s| s.fingerprint() == fp) {
            let s = live.remove(i);
            live.push(s);
            return;
        }
        live.push(spec.clone());
        if live.len() > LIVE_SPECS_CAP {
            live.remove(0);
        }
    }
}

/// Appends sequences to an inverted index in place-by-copy: the returned
/// index contains the old lists plus entries for `new_sequences`. New sids
/// must be strictly greater than every sid already indexed (checked).
pub fn extend_index(
    db: &EventDb,
    base: &InvertedIndex,
    new_sequences: &[Sequence],
    template: &PatternTemplate,
) -> Result<InvertedIndex> {
    debug_assert_eq!(base.sig, template.signature());
    let max_old = base
        .lists
        .values()
        .flat_map(|s| s.iter())
        .max()
        .unwrap_or(0);
    if let Some(bad) = new_sequences
        .iter()
        .find(|s| !base.lists.is_empty() && s.sid <= max_old)
    {
        return Err(Error::InvalidOperation(format!(
            "incremental extend requires fresh sids; sid {} is not greater than {}",
            bad.sid, max_old
        )));
    }
    let (fresh, _) = build_index(db, new_sequences, template)?;
    let mut out = base.clone();
    out.append(fresh);
    Ok(out)
}

/// Extends `old` (built over the rows before `rows`) with the sequences
/// formed by `rows`, returning the extended groups **and the sids of the
/// newly added sequences**. `rows` is explicit so the store path can read
/// rows it has staged but not yet published. Fails with
/// [`Error::ClusterInvalidated`] if a new event lands in an existing
/// cluster — the batch then straddles old sequences and a full rebuild is
/// required (the engine's store path catches exactly that variant and
/// falls back to rebuilding on the next query).
///
/// Use the returned sid list to find the new sequences — when a batch
/// lands in a group that is not last in traversal order, *all* sids after
/// it are renumbered to keep the contiguous-per-group invariant, so
/// "sid ≥ old total" does **not** identify the new sequences.
pub fn extend_groups(
    db: &EventDb,
    spec: &SeqQuerySpec,
    old: &SequenceGroups,
    rows: Range<RowId>,
) -> Result<(SequenceGroups, Vec<Sid>)> {
    // Steps 1–3 over the new rows only, through the same kernel as a
    // full build; a new event landing in an old cluster stops the scan.
    let old_clusters: HashSet<&[LevelValue]> = old
        .iter_sequences()
        .map(|seq| seq.cluster_key.as_slice())
        .collect();
    let fresh = form_sequences(db, spec, rows, &QueryGovernor::unbounded(), |key| {
        if old_clusters.contains(key) {
            return Err(Error::ClusterInvalidated {
                cluster: format!("{key:?}"),
            });
        }
        Ok(())
    })?;
    let mut next_sid = old.total_sequences as u32;
    // Group new sequences and merge into a copy of the old structure.
    let mut result = old.clone();
    let mut appended: BTreeMap<Vec<LevelValue>, Vec<Sequence>> = BTreeMap::new();
    for (ckey, rows) in fresh {
        let Some(&first) = rows.first() else {
            continue;
        };
        let mut gkey = Vec::with_capacity(spec.group_by.len());
        for al in &spec.group_by {
            gkey.push(db.value_at_level(first, al.attr, al.level)?);
        }
        appended.entry(gkey).or_default().push(Sequence {
            sid: 0, // assigned below in deterministic order
            cluster_key: ckey,
            rows,
        });
    }
    // Tag new sequences with provisional sids past the old range so they
    // can be recognised after the lookup rebuild renumbers everything.
    let first_provisional = next_sid;
    for (gkey, mut seqs) in appended {
        for s in &mut seqs {
            s.sid = next_sid;
            next_sid += 1;
        }
        match result.groups.iter_mut().find(|g| g.key == gkey) {
            Some(g) => g.sequences.extend(seqs),
            None => result.groups.push(solap_eventdb::SequenceGroup {
                key: gkey,
                sequences: seqs,
            }),
        }
    }
    let provisional_new: Vec<Sid> = (first_provisional..next_sid).collect();
    // Rebuild the sid lookup; this may renumber, so translate the
    // provisional new sids to their final values by position.
    let (rebuilt, mapping) = rebuild_lookup(result);
    let new_sids: Vec<Sid> = provisional_new
        .iter()
        .map(|p| mapping.get(p).copied().unwrap_or(*p))
        .collect();
    Ok((rebuilt, new_sids))
}

/// Recomputes the sid lookup of a hand-assembled [`SequenceGroups`]. The
/// engine's lookup assumes contiguous per-group sid ranges, which no longer
/// holds after appends — so this reassembles the groups into a fresh,
/// contiguous numbering **only when needed**, returning the structure (with
/// `sequence(sid)` valid for all sids) plus the old-sid → new-sid mapping
/// of any renumbering performed (empty when numbering was already
/// contiguous).
fn rebuild_lookup(mut groups: SequenceGroups) -> (SequenceGroups, BTreeMap<Sid, Sid>) {
    // Check contiguity; if violated, renumber deterministically.
    let mut expected = 0u32;
    let mut contiguous = true;
    for g in &groups.groups {
        for s in &g.sequences {
            if s.sid != expected {
                contiguous = false;
            }
            expected += 1;
        }
    }
    let mut mapping = BTreeMap::new();
    if !contiguous {
        let mut sid = 0u32;
        for g in &mut groups.groups {
            for s in &mut g.sequences {
                if s.sid != sid {
                    mapping.insert(s.sid, sid);
                }
                s.sid = sid;
                sid += 1;
            }
        }
    }
    // Reassemble through the canonical path to refresh offsets.
    let global_dims = groups.global_dims.clone();
    let gs = std::mem::take(&mut groups.groups);
    let mut offsets = Vec::with_capacity(gs.len());
    let mut total = 0u32;
    for g in &gs {
        offsets.push(total);
        total += g.sequences.len() as u32;
    }
    (
        SequenceGroups::from_parts(global_dims, gs, total as usize, offsets),
        mapping,
    )
}

/// Verifies an incremental extension against a from-scratch rebuild —
/// exposed so integration tests and the harness can assert equivalence.
pub fn rebuild_reference(db: &EventDb, spec: &SeqQuerySpec) -> Result<SequenceGroups> {
    build_sequence_groups(db, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{fig8_engine, q3};
    use crate::engine::Strategy;
    use solap_eventdb::{AttrLevel, ColumnType, EventDbBuilder, Pred, SortKey};
    use solap_pattern::PatternKind;

    fn db_with_days(days: &[&[(&str, i64)]]) -> EventDb {
        // (item, day) pairs; cluster by day.
        let mut db = EventDbBuilder::new()
            .dimension("day", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("item", ColumnType::Str)
            .build()
            .unwrap();
        for day in days {
            for (i, (item, d)) in day.iter().enumerate() {
                db.push_row(&[Value::Int(*d), Value::Int(i as i64), Value::from(*item)])
                    .unwrap();
            }
        }
        db
    }

    fn spec() -> SeqQuerySpec {
        SeqQuerySpec {
            filter: Pred::True,
            cluster_by: vec![AttrLevel::new(0, 0)],
            sequence_by: vec![SortKey {
                attr: 1,
                ascending: true,
            }],
            group_by: vec![],
        }
    }

    fn template() -> PatternTemplate {
        PatternTemplate::new(
            PatternKind::Substring,
            &["X", "Y"],
            &[("X", 2, 0), ("Y", 2, 0)],
        )
        .unwrap()
    }

    #[test]
    fn extend_groups_matches_rebuild() {
        let day1: &[(&str, i64)] = &[("a", 1), ("b", 1), ("c", 1)];
        let mut db = db_with_days(&[day1]);
        let old = build_sequence_groups(&db, &spec()).unwrap();
        let from_row = db.len() as u32;
        for (i, item) in ["b", "c", "a"].iter().enumerate() {
            db.push_row(&[Value::Int(2), Value::Int(i as i64), Value::from(*item)])
                .unwrap();
        }
        let (extended, new_sids) =
            extend_groups(&db, &spec(), &old, from_row..db.len() as u32).unwrap();
        assert_eq!(new_sids.len(), 1);
        let rebuilt = rebuild_reference(&db, &spec()).unwrap();
        assert_eq!(extended.total_sequences, rebuilt.total_sequences);
        // Same sequences per cluster key (sid numbering may differ).
        let flat = |g: &SequenceGroups| -> Vec<(Vec<u64>, Vec<u32>)> {
            let mut v: Vec<_> = g
                .iter_sequences()
                .map(|s| (s.cluster_key.clone(), s.rows.clone()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(flat(&extended), flat(&rebuilt));
        // sid lookup works for every sid.
        for s in extended.iter_sequences() {
            assert_eq!(extended.sequence(s.sid).unwrap().rows, s.rows);
        }
    }

    #[test]
    fn extend_groups_rejects_straddling_batches() {
        let day1: &[(&str, i64)] = &[("a", 1), ("b", 1)];
        let mut db = db_with_days(&[day1]);
        let old = build_sequence_groups(&db, &spec()).unwrap();
        let from_row = db.len() as u32;
        // New event lands in day 1's existing cluster.
        db.push_row(&[Value::Int(1), Value::Int(9), Value::from("c")])
            .unwrap();
        let err = extend_groups(&db, &spec(), &old, from_row..db.len() as u32).unwrap_err();
        let Error::ClusterInvalidated { cluster } = err else {
            panic!("expected ClusterInvalidated, got {err:?}");
        };
        assert!(cluster.contains('1'), "cluster key rendered: {cluster}");
    }

    #[test]
    fn extend_index_matches_full_rebuild() {
        let day1: &[(&str, i64)] = &[("a", 1), ("b", 1), ("a", 1)];
        let mut db = db_with_days(&[day1]);
        let old_groups = build_sequence_groups(&db, &spec()).unwrap();
        let t = template();
        let (old_index, _) = build_index(&db, old_groups.iter_sequences(), &t).unwrap();
        let from_row = db.len() as u32;
        for (i, item) in ["b", "a"].iter().enumerate() {
            db.push_row(&[Value::Int(2), Value::Int(i as i64), Value::from(*item)])
                .unwrap();
        }
        let (extended_groups, new_sids) =
            extend_groups(&db, &spec(), &old_groups, from_row..db.len() as u32).unwrap();
        let new_seqs: Vec<Sequence> = new_sids
            .iter()
            .map(|&sid| extended_groups.sequence(sid).unwrap().clone())
            .collect();
        assert_eq!(new_seqs.len(), 1);
        let extended = extend_index(&db, &old_index, &new_seqs, &t).unwrap();
        let (rebuilt, _) = build_index(&db, extended_groups.iter_sequences(), &t).unwrap();
        assert_eq!(extended.list_count(), rebuilt.list_count());
        for (k, v) in &rebuilt.lists {
            assert_eq!(extended.lists[k].to_vec(), v.to_vec(), "pattern {k:?}");
        }
    }

    #[test]
    fn new_sids_are_correct_even_when_renumbering() {
        // Group by day parity so the new batch lands in a group that is
        // NOT last in traversal order, forcing a renumber.
        let mut db = EventDbBuilder::new()
            .dimension("day", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("item", ColumnType::Str)
            .build()
            .unwrap();
        for day in 0..3i64 {
            for pos in 0..2i64 {
                db.push_row(&[Value::Int(day), Value::Int(pos), Value::from("x")])
                    .unwrap();
            }
        }
        db.attach_int_level(0, "parity", |d| format!("p{}", d % 2))
            .unwrap();
        let spec = SeqQuerySpec {
            filter: Pred::True,
            cluster_by: vec![AttrLevel::new(0, 0)],
            sequence_by: vec![SortKey {
                attr: 1,
                ascending: true,
            }],
            group_by: vec![AttrLevel::new(0, 1)],
        };
        let old = build_sequence_groups(&db, &spec).unwrap();
        assert_eq!(old.groups.len(), 2);
        let from_row = db.len() as u32;
        db.add_int_mapping(0, 4, "p0").unwrap();
        for pos in 0..2i64 {
            db.push_row(&[Value::Int(4), Value::Int(pos), Value::from("y")])
                .unwrap();
        }
        let (ext, new_sids) = extend_groups(&db, &spec, &old, from_row..db.len() as u32).unwrap();
        assert_eq!(new_sids.len(), 1);
        // The reported new sequence really is the `y` one.
        let s = ext.sequence(new_sids[0]).unwrap();
        assert_eq!(db.value(s.rows[0], 2), Value::from("y"));
        // And the whole structure matches a rebuild.
        let rebuilt = rebuild_reference(&db, &spec).unwrap();
        let flat = |g: &SequenceGroups| -> Vec<(Vec<u64>, Vec<u32>)> {
            let mut v: Vec<_> = g
                .iter_sequences()
                .map(|s| (s.cluster_key.clone(), s.rows.clone()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(flat(&ext), flat(&rebuilt));
        for s in ext.iter_sequences() {
            assert_eq!(
                ext.sequence(s.sid).unwrap().rows,
                s.rows,
                "lookup consistent"
            );
        }
    }

    #[test]
    fn extend_index_rejects_stale_sids() {
        let day1: &[(&str, i64)] = &[("a", 1), ("b", 1)];
        let db = db_with_days(&[day1]);
        let groups = build_sequence_groups(&db, &spec()).unwrap();
        let t = template();
        let (index, _) = build_index(&db, groups.iter_sequences(), &t).unwrap();
        let stale = groups.iter_sequences().next().unwrap().clone();
        assert!(extend_index(&db, &index, &[stale], &t).is_err());
    }

    /// An event row in the Figure-8 schema: `(sid, pos, location, action)`
    /// with actions alternating in/out like the seed data.
    fn ev(sid: i64, pos: i64, station: &str) -> Vec<Value> {
        let action = if pos % 2 == 0 { "in" } else { "out" };
        vec![
            Value::Int(sid),
            Value::Int(pos),
            Value::from(station),
            Value::from(action),
        ]
    }

    #[test]
    fn append_new_cluster_extends_live_caches() {
        let e = fig8_engine(EngineConfig {
            strategy: Strategy::InvertedIndex,
            ..Default::default()
        });
        let spec = q3(&e.db());
        e.execute(&spec).unwrap(); // registers the live spec + caches
        let report = e
            .append_events(&[ev(9, 0, "Pentagon"), ev(9, 1, "Wheaton")])
            .unwrap();
        assert_eq!(report.appended, 2);
        assert!(!report.durable, "in-memory engine has no WAL");
        assert_eq!(report.groups_extended, 1, "cached groups carried forward");
        assert_eq!(report.rebuild_fallbacks, 0);
        assert!(report.indexes_extended >= 1, "base II carried forward");
        // Groups, base index and cuboid of the superseded version retired.
        assert!(report.entries_retired >= 3, "{report:?}");
        assert_only_current(&e);
        // The carried-forward caches must answer identically to a fresh
        // engine rebuilt over the same post-append data.
        let after = e.execute(&spec).unwrap();
        let fresh = Engine::with_config(
            e.db().clone(),
            EngineConfig {
                strategy: Strategy::InvertedIndex,
                ..Default::default()
            },
        );
        let expect = fresh.execute(&spec).unwrap();
        assert_eq!(after.cuboid.cells(), expect.cuboid.cells());
    }

    #[test]
    fn append_into_existing_cluster_falls_back_to_rebuild() {
        let e = fig8_engine(EngineConfig::default());
        let spec = q3(&e.db());
        e.execute(&spec).unwrap();
        // Sid 0 already has sequences: extension trips ClusterInvalidated
        // and the engine abandons the carry-forward instead of corrupting
        // the cache.
        let report = e.append_events(&[ev(0, 99, "Glenmont")]).unwrap();
        assert_eq!(report.appended, 1);
        assert_eq!(report.groups_extended, 0);
        assert_eq!(report.rebuild_fallbacks, 1);
        // Retirement runs even when every live spec fell back.
        assert!(report.entries_retired >= 3, "{report:?}");
        assert_only_current(&e);
        let after = e.execute(&spec).unwrap();
        let fresh = Engine::new(e.db().clone());
        assert_eq!(
            after.cuboid.cells(),
            fresh.execute(&spec).unwrap().cuboid.cells(),
            "rebuild-on-demand must see the appended event"
        );
    }

    /// Each version-stamped cache holds entries of `e`'s current database
    /// version only (or nothing).
    fn assert_only_current(e: &Engine) {
        let v = e.db().version();
        for (name, span) in [
            ("sequence cache", e.sequence_cache().versions()),
            ("index store", e.index_store().versions()),
            ("cuboid repo", e.cuboid_repo().versions()),
        ] {
            assert!(
                span.is_none_or(|(lo, _)| lo >= v),
                "{name} holds {span:?} at {v}"
            );
        }
    }

    #[test]
    fn store_retires_even_without_live_specs() {
        let e = fig8_engine(EngineConfig::default());
        let spec = q3(&e.db());
        // Precomputation fills the sequence cache and the index store
        // without registering a live spec: nothing is carried forward.
        e.precompute_index(&spec, 2, 0, 2).unwrap();
        let cached = e.sequence_cache().len() + e.index_store().len();
        assert!(cached >= 2);
        let report = e.append_events(&[ev(9, 0, "Pentagon")]).unwrap();
        assert_eq!(report.groups_extended, 0);
        assert_eq!(report.entries_retired, cached);
        assert!(e.sequence_cache().is_empty() && e.index_store().is_empty());
    }

    #[test]
    fn explain_and_store_leave_sequence_cache_stats_unchanged() {
        let e = fig8_engine(EngineConfig::default());
        let spec = q3(&e.db());
        e.execute(&spec).unwrap();
        let before = e.sequence_cache().stats();
        e.explain(&spec).unwrap();
        // The carry-forward probes the pre-append groups and re-inserts
        // them extended: neither is a lookup.
        let report = e.append_events(&[ev(9, 0, "Pentagon")]).unwrap();
        assert_eq!(report.groups_extended, 1);
        assert_eq!(e.sequence_cache().stats(), before);
    }

    #[test]
    fn append_rejects_invalid_rows_atomically() {
        let e = fig8_engine(EngineConfig::default());
        // Two statements, not one tuple: each `db()` guard must drop
        // before the next read of the same lock.
        let len0 = e.db().len();
        let v0 = e.db().version();
        let bad = vec![Value::Int(1)]; // wrong arity
        let err = e.append_events(&[ev(5, 0, "Pentagon"), bad]).unwrap_err();
        assert_eq!(err.code(), "arity_mismatch");
        assert_eq!(e.db().len(), len0, "no partial batch applied");
        assert_eq!(e.db().version(), v0, "version untouched on rejection");
    }

    #[test]
    fn append_empty_batch_is_a_noop() {
        let e = fig8_engine(EngineConfig::default());
        let v0 = e.db().version();
        let report = e.append_events(&[]).unwrap();
        assert_eq!(report.appended, 0);
        assert_eq!(report.version, v0);
        assert_eq!(e.db().version(), v0);
    }

    #[test]
    fn durable_engine_persists_and_recovers() {
        let dir = std::env::temp_dir().join(format!("solap-engine-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = || {
            EventDbBuilder::new()
                .dimension("sid", ColumnType::Int)
                .dimension("pos", ColumnType::Int)
                .dimension("location", ColumnType::Str)
                .dimension("action", ColumnType::Str)
                .build()
                .unwrap()
        };
        {
            let e = Engine::builder(schema())
                .durable_with_policy(&dir, solap_eventdb::FsyncPolicy::Always)
                .unwrap()
                .build();
            assert!(e.is_durable());
            assert_eq!(e.recovery_report().unwrap().wal_events, 0);
            let report = e
                .append_events(&[ev(1, 0, "Pentagon"), ev(1, 1, "Wheaton")])
                .unwrap();
            assert!(report.durable);
            e.sync().unwrap();
        }
        let e = Engine::builder(schema())
            .durable_with_policy(&dir, solap_eventdb::FsyncPolicy::Always)
            .unwrap()
            .build();
        assert_eq!(e.db().len(), 2, "acknowledged events survive reopen");
        assert_eq!(e.recovery_report().unwrap().wal_events, 2);
        let spec = q3(&e.db());
        let out = e.execute(&spec).unwrap();
        assert_eq!(out.stats.sequences_scanned, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
