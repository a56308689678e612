//! The sequence query engine: steps 1–4 of S-cuboid formation (Figure 4).
//!
//! 1. **Selection** — the `WHERE` predicate picks events of interest.
//! 2. **Clustering** — `CLUSTER BY` attributes (each at an abstraction
//!    level) partition events into clusters; e.g. events sharing the same
//!    `card-id` (at `individual`) and the same `time` (at `day`).
//! 3. **Sequence formation** — `SEQUENCE BY` sorts each cluster, turning it
//!    into exactly one data sequence.
//! 4. **Sequence grouping** — `SEQUENCE GROUP BY` groups sequences whose
//!    events share the same *global dimension* values (e.g. fare-group and
//!    day); if absent, all sequences form a single group.
//!
//! The paper offloads these steps to "an existing sequence database query
//! engine" and caches the result in the Sequence Cache; this module is that
//! engine.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::govern::QueryGovernor;
use crate::metrics::{self, Counter, Stage};
use crate::pred::Pred;
use crate::schema::AttrId;
use crate::store::EventDb;
use crate::value::{LevelValue, RowId, Sid};

/// An attribute pinned at an abstraction level (`card-id AT individual`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrLevel {
    /// The attribute.
    pub attr: AttrId,
    /// The abstraction level (0 = base).
    pub level: usize,
}

impl AttrLevel {
    /// Shorthand constructor.
    pub fn new(attr: AttrId, level: usize) -> Self {
        AttrLevel { attr, level }
    }
}

/// A `SEQUENCE BY` sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SortKey {
    /// The attribute ordered by.
    pub attr: AttrId,
    /// Ascending (`true`) or descending.
    pub ascending: bool,
}

/// The first four clauses of an S-cuboid specification — everything needed
/// to build sequence groups (and the key of the Sequence Cache).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeqQuerySpec {
    /// Step 1: event selection.
    pub filter: Pred,
    /// Step 2: clustering attributes with abstraction levels.
    pub cluster_by: Vec<AttrLevel>,
    /// Step 3: sort keys forming the sequence order.
    pub sequence_by: Vec<SortKey>,
    /// Step 4: global dimensions. Empty = one big group.
    pub group_by: Vec<AttrLevel>,
}

impl SeqQuerySpec {
    /// A stable hash of the spec, combined with the database version to key
    /// the Sequence Cache.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// One data sequence: an ordered list of event rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    /// Unique sequence id, dense in `0..total_sequences` and stable for a
    /// given spec and database version.
    pub sid: Sid,
    /// The cluster key that formed this sequence.
    pub cluster_key: Vec<LevelValue>,
    /// Event rows in `SEQUENCE BY` order.
    pub rows: Vec<RowId>,
}

impl Sequence {
    /// Sequence length in events.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the sequence has no events (never produced by the engine).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A group of sequences sharing global-dimension values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceGroup {
    /// Values of the global dimensions (aligned with
    /// [`SequenceGroups::global_dims`]).
    pub key: Vec<LevelValue>,
    /// The sequences of the group, in deterministic (cluster-key) order.
    pub sequences: Vec<Sequence>,
}

/// The output of steps 1–4: all sequence groups, with sid lookup.
#[derive(Debug, Clone)]
pub struct SequenceGroups {
    /// The global dimensions (the `q` dimensions of the paper's
    /// q-dimensional group array).
    pub global_dims: Vec<AttrLevel>,
    /// The groups, sorted by key for determinism.
    pub groups: Vec<SequenceGroup>,
    /// Total number of sequences across groups.
    pub total_sequences: usize,
    /// `sid_offsets[g]` = first sid of group `g` (sids are assigned
    /// contiguously per group).
    sid_offsets: Vec<Sid>,
}

impl SequenceGroups {
    /// Assembles a `SequenceGroups` from parts. Callers (e.g. incremental
    /// update) are responsible for the invariant that sids are contiguous
    /// per group in traversal order, with `sid_offsets[g]` the first sid of
    /// group `g`.
    pub fn from_parts(
        global_dims: Vec<AttrLevel>,
        groups: Vec<SequenceGroup>,
        total_sequences: usize,
        sid_offsets: Vec<Sid>,
    ) -> Self {
        debug_assert_eq!(groups.len(), sid_offsets.len());
        SequenceGroups {
            global_dims,
            groups,
            total_sequences,
            sid_offsets,
        }
    }

    /// Locates a sequence by sid. A sid outside the assigned range is a
    /// typed [`Error::Internal`] (sids come from indices built over these
    /// same groups, so a miss means the caller mixed groups and indices).
    pub fn sequence(&self, sid: Sid) -> Result<&Sequence> {
        let g = self.group_of(sid)?;
        let (group, &first) = match (self.groups.get(g), self.sid_offsets.get(g)) {
            (Some(group), Some(first)) => (group, first),
            _ => {
                return Err(Error::Internal(format!(
                    "sid {sid}: group table out of sync"
                )))
            }
        };
        group
            .sequences
            .get((sid - first) as usize)
            .ok_or_else(|| Error::Internal(format!("unknown sid {sid}")))
    }

    /// The group a sid belongs to, erring on sids below the first group.
    pub fn group_of(&self, sid: Sid) -> Result<usize> {
        match self.sid_offsets.binary_search(&sid) {
            Ok(g) => Ok(g),
            Err(0) => Err(Error::Internal(format!(
                "unknown sid {sid} (below the first group)"
            ))),
            Err(ins) => Ok(ins - 1),
        }
    }

    /// Iterates all sequences across groups.
    pub fn iter_sequences(&self) -> impl Iterator<Item = &Sequence> {
        self.groups.iter().flat_map(|g| g.sequences.iter())
    }

    /// Approximate heap bytes (for the Sequence Cache weight budget).
    pub fn heap_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| {
                g.key.len() * 8
                    + g.sequences
                        .iter()
                        .map(|s| s.rows.len() * 4 + s.cluster_key.len() * 8 + 48)
                        .sum::<usize>()
            })
            .sum()
    }
}

/// Runs steps 1–4 against the database.
///
/// The result is deterministic: clusters and groups are ordered by their
/// keys and sids are assigned in that order, so repeated runs (and the
/// CB/II equivalence property tests) see identical sids.
///
/// Note on step 4: per the paper, sequences are grouped by dimension values
/// their *events* share; this engine reads the group key off each sequence's
/// first event, which is exact whenever the `SEQUENCE GROUP BY` attributes
/// are constant within a sequence — true by construction when they are
/// coarsenings of `CLUSTER BY` attributes, as in all of the paper's queries.
pub fn build_sequence_groups(db: &EventDb, spec: &SeqQuerySpec) -> Result<SequenceGroups> {
    build_sequence_groups_governed(db, spec, &QueryGovernor::unbounded())
}

/// [`build_sequence_groups`] under a [`QueryGovernor`]: the selection scan
/// ticks once per event row and each new cluster and group is charged
/// against the cell budget, so an over-limit query aborts within one check
/// interval.
pub fn build_sequence_groups_governed(
    db: &EventDb,
    spec: &SeqQuerySpec,
    gov: &QueryGovernor,
) -> Result<SequenceGroups> {
    // Step 1 + 2: select and cluster in one pass. Counted into locals and
    // flushed once so the per-row cost of profiling stays zero.
    let rec = gov.recorder();
    let mut selected: u64 = 0;
    {
        let _span = metrics::span(rec, Stage::SelectCluster);
        let mut clusters = Clusters::new(db, &spec.cluster_by);
        let mut ckey = Vec::with_capacity(spec.cluster_by.len());
        let scan = (|| -> Result<()> {
            for row in 0..db.len() as RowId {
                gov.tick()?;
                if !spec.filter.eval(db, row)? {
                    continue;
                }
                selected += 1;
                ckey.clear();
                for al in &spec.cluster_by {
                    ckey.push(db.value_at_level(row, al.attr, al.level)?);
                }
                if clusters.push(&ckey, row) {
                    gov.charge_cells(1)?;
                }
            }
            Ok(())
        })();
        if let Some(rec) = rec {
            rec.add(Counter::EventsScanned, db.len() as u64);
            rec.add(Counter::EventsSelected, selected);
            rec.add(Counter::SequencesFormed, clusters.rows.len() as u64);
        }
        scan.map(|()| clusters.into_sorted())
    }
    .and_then(|clusters| build_groups_from_clusters(db, spec, gov, clusters))
}

/// A cluster: its key and its event rows in arrival order.
type ClusterRows = (Vec<LevelValue>, Vec<RowId>);

/// Step 2's table: the clusters in first-seen order, found by key. The key
/// is looked up before it is cloned, a row whose key repeats the previous
/// row's goes straight to that cluster (event logs arrive sequence by
/// sequence; nothing depends on it), and the lookup key is one integer
/// when the clustering attributes' domains fit 64 bits.
struct Clusters {
    rows: Vec<ClusterRows>,
    /// The cluster the previous row joined.
    last: usize,
    index: ClusterIndex,
}

enum ClusterIndex {
    /// Bit width per clustering attribute, and clusters by packed key.
    Packed(Vec<u32>, HashMap<u64, usize>),
    Wide(HashMap<Vec<LevelValue>, usize>),
}

impl Clusters {
    fn new(db: &EventDb, cluster_by: &[AttrLevel]) -> Self {
        // Dictionary-coded levels need the bits of their cardinality; raw
        // integers and time buckets all 64.
        let widths: Vec<u32> = cluster_by
            .iter()
            .map(|al| match db.level_domain_size(al.attr, al.level) {
                Some(n) => u64::BITS - (n.max(1) as u64 - 1).leading_zeros(),
                None => u64::BITS,
            })
            .collect();
        let index = if widths.iter().map(|&w| u64::from(w)).sum::<u64>() <= 64 {
            ClusterIndex::Packed(widths, HashMap::new())
        } else {
            ClusterIndex::Wide(HashMap::new())
        };
        Clusters {
            rows: Vec::new(),
            last: 0,
            index,
        }
    }

    /// Adds `row` to the cluster of `key`; `true` if that created it.
    fn push(&mut self, key: &[LevelValue], row: RowId) -> bool {
        if let Some((last_key, rows)) = self.rows.get_mut(self.last) {
            if last_key == key {
                rows.push(row);
                return false;
            }
        }
        let next = self.rows.len();
        self.last = match &mut self.index {
            ClusterIndex::Packed(widths, by_code) => {
                let code = widths
                    .iter()
                    .zip(key)
                    .fold(0u64, |code, (&w, &v)| code.checked_shl(w).unwrap_or(0) | v);
                *by_code.entry(code).or_insert(next)
            }
            ClusterIndex::Wide(by_key) => match by_key.get(key) {
                Some(&found) => found,
                None => {
                    by_key.insert(key.to_vec(), next);
                    next
                }
            },
        };
        match self.rows.get_mut(self.last) {
            Some((_, rows)) => {
                rows.push(row);
                false
            }
            None => {
                self.rows.push((key.to_vec(), vec![row]));
                true
            }
        }
    }

    /// The clusters in key order — the order sids are assigned in.
    fn into_sorted(mut self) -> Vec<ClusterRows> {
        self.rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        self.rows
    }
}

/// Steps 3–4: sorts each cluster into a sequence and groups sequences by
/// global-dimension values.
fn build_groups_from_clusters(
    db: &EventDb,
    spec: &SeqQuerySpec,
    gov: &QueryGovernor,
    clusters: Vec<ClusterRows>,
) -> Result<SequenceGroups> {
    let rec = gov.recorder();
    let _span = metrics::span(rec, Stage::FormGroup);

    // Step 3: sort each cluster into a sequence.
    let sort_keys: Vec<(AttrId, bool)> = spec
        .sequence_by
        .iter()
        .map(|k| (k.attr, k.ascending))
        .collect();
    // Step 4: group sequences by global-dimension values.
    let mut grouped: BTreeMap<Vec<LevelValue>, Vec<ClusterRows>> = BTreeMap::new();
    for (ckey, mut rows) in clusters {
        gov.check_now()?;
        if !sort_keys.is_empty() {
            rows.sort_unstable_by(|&a, &b| db.cmp_rows(a, b, &sort_keys));
        }
        let Some(&first) = rows.first() else {
            return Err(Error::Internal("empty cluster in sequence grouping".into()));
        };
        let mut gkey = Vec::with_capacity(spec.group_by.len());
        for al in &spec.group_by {
            gkey.push(db.value_at_level(first, al.attr, al.level)?);
        }
        grouped.entry(gkey).or_default().push((ckey, rows));
    }

    let mut groups = Vec::with_capacity(grouped.len());
    let mut sid_offsets = Vec::with_capacity(grouped.len());
    let mut next_sid: Sid = 0;
    for (gkey, seqs) in grouped {
        gov.check_now()?;
        sid_offsets.push(next_sid);
        let sequences: Vec<Sequence> = seqs
            .into_iter()
            .map(|(cluster_key, rows)| {
                let s = Sequence {
                    sid: next_sid,
                    cluster_key,
                    // The group set outlives the query in the sequence
                    // cache: an exact copy, and the push-grown buffers go
                    // back to the allocator for the next scan to grow into.
                    rows: rows.as_slice().to_vec(),
                };
                next_sid += 1;
                s
            })
            .collect();
        groups.push(SequenceGroup {
            key: gkey,
            sequences,
        });
    }
    if let Some(rec) = rec {
        rec.add(Counter::GroupsFormed, groups.len() as u64);
    }

    Ok(SequenceGroups {
        global_dims: spec.group_by.clone(),
        groups,
        total_sequences: next_sid as usize,
        sid_offsets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::TimeHierarchy;
    use crate::pred::CmpOp;
    use crate::schema::ColumnType;
    use crate::store::EventDbBuilder;
    use crate::time::timestamp;
    use crate::value::Value;

    /// A small transit database: two passengers over two days.
    fn db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("time", ColumnType::Time)
            .dimension("card-id", ColumnType::Int)
            .dimension("location", ColumnType::Str)
            .dimension("action", ColumnType::Str)
            .measure("amount", ColumnType::Float)
            .build()
            .unwrap();
        db.set_time_hierarchy(0, TimeHierarchy::time_day_week())
            .unwrap();
        // Deliberately out of time order to exercise SEQUENCE BY.
        let rows = [
            (timestamp(2007, 10, 1, 9, 0, 0), 688, "Pentagon", "out"),
            (timestamp(2007, 10, 1, 8, 0, 0), 688, "Glenmont", "in"),
            (timestamp(2007, 10, 1, 8, 30, 0), 23456, "Pentagon", "in"),
            (timestamp(2007, 10, 1, 9, 30, 0), 23456, "Wheaton", "out"),
            (timestamp(2007, 10, 2, 8, 0, 0), 688, "Wheaton", "in"),
            (timestamp(2007, 10, 2, 9, 0, 0), 688, "Pentagon", "out"),
        ];
        for (t, c, l, a) in rows {
            db.push_row(&[
                Value::Time(t),
                Value::Int(c),
                Value::from(l),
                Value::from(a),
                Value::Float(0.0),
            ])
            .unwrap();
        }
        db.attach_int_level(1, "fare-group", |id| {
            if id == 688 {
                "regular".into()
            } else {
                "student".into()
            }
        })
        .unwrap();
        db
    }

    fn spec() -> SeqQuerySpec {
        SeqQuerySpec {
            filter: Pred::True,
            cluster_by: vec![AttrLevel::new(1, 0), AttrLevel::new(0, 1)], // card-id AT individual, time AT day
            sequence_by: vec![SortKey {
                attr: 0,
                ascending: true,
            }],
            group_by: vec![AttrLevel::new(0, 1)], // time AT day
        }
    }

    #[test]
    fn clusters_by_card_and_day() {
        let db = db();
        let sg = build_sequence_groups(&db, &spec()).unwrap();
        // Day 1: card 688 and card 23456; day 2: card 688 → 3 sequences.
        assert_eq!(sg.total_sequences, 3);
        assert_eq!(sg.groups.len(), 2); // grouped by day
        assert_eq!(sg.groups[0].sequences.len(), 2);
        assert_eq!(sg.groups[1].sequences.len(), 1);
    }

    #[test]
    fn sequences_are_time_ordered() {
        let db = db();
        let sg = build_sequence_groups(&db, &spec()).unwrap();
        let s688_day1 = sg
            .iter_sequences()
            .find(|s| s.cluster_key[0] == 688)
            .unwrap();
        // Events were inserted out of order; the sequence must be sorted.
        assert_eq!(s688_day1.rows, vec![1, 0]); // Glenmont(8:00) then Pentagon(9:00)
    }

    #[test]
    fn descending_order() {
        let db = db();
        let mut sp = spec();
        sp.sequence_by[0].ascending = false;
        let sg = build_sequence_groups(&db, &sp).unwrap();
        let s = sg
            .iter_sequences()
            .find(|s| s.cluster_key[0] == 688)
            .unwrap();
        assert_eq!(s.rows, vec![0, 1]);
    }

    #[test]
    fn where_clause_filters() {
        let db = db();
        let mut sp = spec();
        sp.filter = Pred::cmp(0, CmpOp::Ge, Value::from("2007-10-02T00:00"));
        let sg = build_sequence_groups(&db, &sp).unwrap();
        assert_eq!(sg.total_sequences, 1);
        assert_eq!(sg.groups[0].sequences[0].rows, vec![4, 5]);
    }

    #[test]
    fn empty_group_by_forms_single_group() {
        let db = db();
        let mut sp = spec();
        sp.group_by.clear();
        let sg = build_sequence_groups(&db, &sp).unwrap();
        assert_eq!(sg.groups.len(), 1);
        assert!(sg.groups[0].key.is_empty());
        assert_eq!(sg.total_sequences, 3);
    }

    #[test]
    fn group_by_fare_group() {
        let db = db();
        let mut sp = spec();
        sp.group_by = vec![AttrLevel::new(1, 1)];
        let sg = build_sequence_groups(&db, &sp).unwrap();
        assert_eq!(sg.groups.len(), 2); // regular vs student
        let sizes: Vec<usize> = sg.groups.iter().map(|g| g.sequences.len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]); // 688 has 2 sequences, 23456 has 1
    }

    #[test]
    fn sid_lookup_is_consistent() {
        let db = db();
        let sg = build_sequence_groups(&db, &spec()).unwrap();
        for s in sg.iter_sequences() {
            assert_eq!(sg.sequence(s.sid).unwrap().sid, s.sid);
        }
        assert_eq!(sg.group_of(0).unwrap(), 0);
        assert_eq!(sg.group_of(2).unwrap(), 1);
    }

    /// Regression: an out-of-range sid used to index past the group arrays
    /// and panic; it is a typed internal error now.
    #[test]
    fn out_of_range_sid_is_a_typed_error() {
        let db = db();
        let sg = build_sequence_groups(&db, &spec()).unwrap();
        assert!(matches!(sg.sequence(9_999), Err(Error::Internal(_))));
        // A sid below the first group (possible with `from_parts`).
        let shifted = SequenceGroups::from_parts(
            sg.global_dims.clone(),
            sg.groups.clone(),
            sg.total_sequences,
            sg.sid_offsets.iter().map(|&o| o + 10).collect(),
        );
        assert!(matches!(shifted.sequence(0), Err(Error::Internal(_))));
        assert!(matches!(shifted.group_of(3), Err(Error::Internal(_))));
    }

    #[test]
    fn determinism_across_runs() {
        let db = db();
        let a = build_sequence_groups(&db, &spec()).unwrap();
        let b = build_sequence_groups(&db, &spec()).unwrap();
        let flat_a: Vec<_> = a.iter_sequences().cloned().collect();
        let flat_b: Vec<_> = b.iter_sequences().cloned().collect();
        assert_eq!(flat_a, flat_b);
    }

    #[test]
    fn fingerprint_changes_with_spec() {
        let a = spec();
        let mut b = spec();
        b.group_by.clear();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), spec().fingerprint());
    }

    #[test]
    fn heap_bytes_positive() {
        let db = db();
        let sg = build_sequence_groups(&db, &spec()).unwrap();
        assert!(sg.heap_bytes() > 0);
    }
}
