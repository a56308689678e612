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

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::dict::Dictionary;
use crate::error::{Error, Result};
use crate::govern::{QueryGovernor, CHECK_INTERVAL};
use crate::hierarchy::{DictHierarchy, Hierarchy, IntHierarchy, TimeGranularity};
use crate::metrics::{self, Counter, Stage};
use crate::pred::Pred;
use crate::schema::{AttrId, ColumnType};
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
/// ticks once per event row and each new cluster is charged against the
/// cell budget, so an over-limit query aborts within one check interval.
pub fn build_sequence_groups_governed(
    db: &EventDb,
    spec: &SeqQuerySpec,
    gov: &QueryGovernor,
) -> Result<SequenceGroups> {
    let sequences = form_sequences(db, spec, 0..db.len() as RowId, gov, |_| gov.charge_cells(1))?;
    group_sequences(db, spec, gov, sequences)
}

/// A cluster: its key and its event rows.
pub type ClusterRows = (Vec<LevelValue>, Vec<RowId>);

/// Steps 1–3 over `rows`: selects with the `WHERE` predicate compiled
/// once ([`Pred::compile`]), clusters through level readers resolved once,
/// and sorts each cluster into its sequence. Returns the clusters in key
/// order, each with its rows in `SEQUENCE BY` order.
///
/// The scan runs a block of [`CHECK_INTERVAL`] rows at a time: one
/// [`QueryGovernor::tick_n`] per block (so ticks and check points match a
/// tick per row), then the block's selection vector, then its rows into
/// clusters. `on_new_cluster` sees each cluster's key as its first row
/// arrives: the full build charges a cell there, and the store path's
/// carry checks the key against the clusters it already has.
pub fn form_sequences(
    db: &EventDb,
    spec: &SeqQuerySpec,
    rows: Range<RowId>,
    gov: &QueryGovernor,
    mut on_new_cluster: impl FnMut(&[LevelValue]) -> Result<()>,
) -> Result<Vec<ClusterRows>> {
    // Counted into locals and flushed once, so profiling costs no per-row
    // work.
    let rec = gov.recorder();
    let mut clusters = {
        let _span = metrics::span(rec, Stage::SelectCluster);
        let filter = spec.filter.compile(db);
        let readers: Vec<LevelReader<'_>> = spec
            .cluster_by
            .iter()
            .map(|&al| LevelReader::new(db, al))
            .collect();
        let mut clusters = Clusters::new(db, &spec.cluster_by);
        let mut lanes = vec![Vec::with_capacity(CHECK_INTERVAL as usize); readers.len()];
        let mut selection = Vec::with_capacity(CHECK_INTERVAL as usize);
        let mut selected: u64 = 0;
        let scan = (|| -> Result<()> {
            let mut start = rows.start;
            while start < rows.end {
                let end = rows.end.min(start.saturating_add(CHECK_INTERVAL));
                gov.tick_n(u64::from(end - start))?;
                selection.clear();
                filter.select(start..end, &mut selection)?;
                selected += selection.len() as u64;
                for (reader, lane) in readers.iter().zip(&mut lanes) {
                    reader.read_block(db, &selection, lane)?;
                }
                // solint: allow(governor-tick) one block of at most CHECK_INTERVAL rows, ticked by the block's tick_n
                for (i, &row) in selection.iter().enumerate() {
                    clusters.push(&lanes, i, row, &mut on_new_cluster)?;
                }
                start = end;
            }
            Ok(())
        })();
        if let Some(rec) = rec {
            rec.add(Counter::EventsScanned, u64::from(rows.end - rows.start));
            rec.add(Counter::EventsSelected, selected);
            rec.add(Counter::SequencesFormed, clusters.keys.len() as u64);
        }
        scan?;
        clusters.into_sorted()
    };

    // Step 3: only a cluster whose rows did not arrive in order is sorted
    // (event logs arrive sequence by sequence).
    let _span = metrics::span(rec, Stage::FormGroup);
    let order = SequenceOrder::new(db, &spec.sequence_by)?;
    for (_, rows) in &mut clusters {
        gov.check_now()?;
        if !order.holds(rows) {
            rows.sort_unstable_by(|&a, &b| order.cmp(a, b));
        }
    }
    Ok(clusters)
}

/// Reads one `(attribute, level)` of a row. The column and hierarchy are
/// resolved once per statement, so a row costs one slice read and, above
/// the base level, one hierarchy lookup.
struct LevelReader<'a> {
    al: AttrLevel,
    read: Read<'a>,
}

enum Read<'a> {
    /// A raw integer or timestamp: its bits.
    Raw(&'a [i64]),
    /// A float: its bits.
    Bits(&'a [f64]),
    /// A string's base dictionary id.
    StrId(&'a [u32]),
    /// A string mapped up its dictionary hierarchy to a level.
    StrUp(&'a [u32], &'a DictHierarchy, usize),
    /// An integer mapped up its hierarchy to a level.
    IntUp(&'a [i64], &'a IntHierarchy, usize),
    /// A timestamp's bucket.
    Bucket(&'a [i64], TimeGranularity),
    /// A level the attribute does not have: [`EventDb::value_at_level`]
    /// returns its typed error.
    Store,
}

impl<'a> LevelReader<'a> {
    fn new(db: &'a EventDb, al: AttrLevel) -> Self {
        let (attr, level) = (al.attr, al.level);
        let read = match (db.schema().column(attr).ctype, db.hierarchy(attr)) {
            (ColumnType::Str, h) => db.str_column(attr).and_then(|(ids, _)| match h {
                _ if level == 0 => Some(Read::StrId(ids)),
                Hierarchy::Dict(dh) if level <= dh.levels.len() => {
                    Some(Read::StrUp(ids, dh, level))
                }
                _ => None,
            }),
            (ColumnType::Int, h) => db.int_column(attr).and_then(|col| match h {
                _ if level == 0 => Some(Read::Raw(col)),
                Hierarchy::Int(ih) if level <= ih.levels.len() => Some(Read::IntUp(col, ih, level)),
                _ => None,
            }),
            (ColumnType::Time, h) => db.int_column(attr).and_then(|col| match h {
                Hierarchy::Time(th) => match th.levels.get(level)? {
                    TimeGranularity::Raw => Some(Read::Raw(col)),
                    &g => Some(Read::Bucket(col, g)),
                },
                _ if level == 0 => Some(Read::Raw(col)),
                _ => None,
            }),
            (ColumnType::Float, _) if level == 0 => db.float_column(attr).map(Read::Bits),
            _ => None,
        };
        LevelReader {
            al,
            read: read.unwrap_or(Read::Store),
        }
    }

    /// Fills `lane` with the level values of `rows`, one typed pass. A
    /// miss — a value its hierarchy does not map, or a level the attribute
    /// does not have — sends the block through
    /// [`EventDb::value_at_level`], which returns the first such row's
    /// typed error.
    fn read_block(&self, db: &EventDb, rows: &[RowId], lane: &mut Vec<LevelValue>) -> Result<()> {
        lane.clear();
        let hit = match self.read {
            Read::Raw(col) => fill(lane, col, rows, |v| Some(v as LevelValue)),
            Read::Bits(col) => fill(lane, col, rows, |v| Some(v.to_bits())),
            Read::StrId(ids) => fill(lane, ids, rows, |id| Some(LevelValue::from(id))),
            Read::StrUp(ids, dh, level) => fill(lane, ids, rows, |id| {
                dh.map_up(id, level).map(LevelValue::from)
            }),
            Read::IntUp(col, ih, level) => fill(lane, col, rows, |raw| {
                ih.map_up(raw, level).map(LevelValue::from)
            }),
            Read::Bucket(col, g) => fill(lane, col, rows, |t| Some(g.bucket(t) as LevelValue)),
            Read::Store => false,
        };
        if hit {
            return Ok(());
        }
        lane.clear();
        rows.iter().try_for_each(|&row| {
            lane.push(db.value_at_level(row, self.al.attr, self.al.level)?);
            Ok(())
        })
    }
}

/// Appends `f` of each row's stored value to `lane`; `false` if any row
/// missed.
fn fill<T: Copy>(
    lane: &mut Vec<LevelValue>,
    col: &[T],
    rows: &[RowId],
    f: impl Fn(T) -> Option<LevelValue>,
) -> bool {
    let mut hit = true;
    lane.extend(rows.iter().map(|&r| {
        col.get(r as usize)
            .copied()
            .and_then(&f)
            .unwrap_or_else(|| {
                hit = false;
                0
            })
    }));
    hit
}

/// Step 3's `SEQUENCE BY` order over typed columns: the sort keys in turn,
/// then the row id, so the order is total and every sort of a cluster
/// gives the same sequence. IEEE 754 totalOrder for floats (DESIGN §4):
/// a NaN is a value, so a column holding one still sorts.
struct SequenceOrder<'a> {
    keys: Vec<(SortColumn<'a>, bool)>,
}

enum SortColumn<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a [u32], &'a Dictionary),
}

impl<'a> SequenceOrder<'a> {
    fn new(db: &'a EventDb, sequence_by: &[SortKey]) -> Result<Self> {
        let keys = sequence_by
            .iter()
            .map(|k| {
                let col = if let Some(v) = db.int_column(k.attr) {
                    SortColumn::Int(v)
                } else if let Some(v) = db.float_column(k.attr) {
                    SortColumn::Float(v)
                } else if let Some((ids, dict)) = db.str_column(k.attr) {
                    SortColumn::Str(ids, dict)
                } else {
                    return Err(Error::Internal(format!(
                        "SEQUENCE BY attribute #{} has no column",
                        k.attr
                    )));
                };
                Ok((col, k.ascending))
            })
            .collect::<Result<_>>()?;
        Ok(SequenceOrder { keys })
    }

    fn cmp(&self, a: RowId, b: RowId) -> Ordering {
        let (i, j) = (a as usize, b as usize);
        for (col, ascending) in &self.keys {
            let ord = match col {
                SortColumn::Int(v) => v.get(i).cmp(&v.get(j)),
                SortColumn::Float(v) => match (v.get(i), v.get(j)) {
                    (Some(x), Some(y)) => x.total_cmp(y),
                    (x, y) => x.is_some().cmp(&y.is_some()),
                },
                SortColumn::Str(ids, dict) => match (ids.get(i), ids.get(j)) {
                    (x, y) if x == y => Ordering::Equal,
                    (x, y) => x
                        .and_then(|&x| dict.resolve(x))
                        .cmp(&y.and_then(|&y| dict.resolve(y))),
                },
            };
            let ord = if *ascending { ord } else { ord.reverse() };
            if ord.is_ne() {
                return ord;
            }
        }
        a.cmp(&b)
    }

    /// Whether a cluster's rows are already in sequence order — always,
    /// with no `SEQUENCE BY`, where rows keep their arrival order.
    fn holds(&self, rows: &[RowId]) -> bool {
        self.keys.is_empty() || rows.is_sorted_by(|&a, &b| self.cmp(a, b).is_le())
    }
}

/// Step 2's table: the clusters in first-seen order, found by key, and
/// the selected rows in scan order, cut into runs of one cluster each. A
/// row whose key repeats the previous row's extends the current run (event
/// logs arrive sequence by sequence; nothing depends on it). When the
/// clustering attributes' domains fit 64 bits the key is packed into one
/// integer, so that test is one compare, the lookup hashes one integer and
/// a key is only built for a cluster the row creates.
struct Clusters {
    keys: Vec<Vec<LevelValue>>,
    rows: Vec<RowId>,
    /// `(cluster, first index into rows)` per run.
    runs: Vec<(u32, usize)>,
    index: ClusterIndex,
}

enum ClusterIndex {
    /// Bit width per clustering attribute, clusters by packed key, and the
    /// previous row's packed key.
    Packed(Vec<u32>, HashMap<u64, u32>, Option<u64>),
    Wide(HashMap<Vec<LevelValue>, u32>),
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
            ClusterIndex::Packed(widths, HashMap::new(), None)
        } else {
            ClusterIndex::Wide(HashMap::new())
        };
        Clusters {
            keys: Vec::new(),
            rows: Vec::new(),
            runs: Vec::new(),
            index,
        }
    }

    /// Adds `row`, whose key is entry `i` of the block's `lanes`, to its
    /// cluster; `on_new` sees the key of a cluster `row` creates.
    #[inline]
    fn push(
        &mut self,
        lanes: &[Vec<LevelValue>],
        i: usize,
        row: RowId,
        on_new: &mut impl FnMut(&[LevelValue]) -> Result<()>,
    ) -> Result<()> {
        let value = |lane: &Vec<LevelValue>| lane.get(i).copied().unwrap_or_default();
        let next = self.keys.len() as u32;
        let cluster = match &mut self.index {
            ClusterIndex::Packed(widths, by_code, last) => {
                let code = widths.iter().zip(lanes).fold(0u64, |code, (&w, lane)| {
                    code.checked_shl(w).unwrap_or(0) | value(lane)
                });
                if *last == Some(code) {
                    None
                } else {
                    *last = Some(code);
                    Some(*by_code.entry(code).or_insert(next))
                }
            }
            ClusterIndex::Wide(by_key) => {
                let current = self
                    .runs
                    .last()
                    .and_then(|&(c, _)| self.keys.get(c as usize));
                if current.is_some_and(|k| k.iter().zip(lanes).all(|(&v, lane)| v == value(lane))) {
                    None
                } else {
                    let key: Vec<LevelValue> = lanes.iter().map(value).collect();
                    Some(*by_key.entry(key).or_insert(next))
                }
            }
        };
        if let Some(cluster) = cluster {
            if cluster == next {
                let key: Vec<LevelValue> = lanes.iter().map(value).collect();
                on_new(&key)?;
                self.keys.push(key);
            }
            self.runs.push((cluster, self.rows.len()));
        }
        self.rows.push(row);
        Ok(())
    }

    /// The clusters in key order — the order sids are assigned in — each
    /// with its rows in scan order, allocated once at their final length.
    fn into_sorted(self) -> Vec<ClusterRows> {
        let ends = self
            .runs
            .iter()
            .skip(1)
            .map(|&(_, start)| start)
            .chain([self.rows.len()]);
        let mut sizes = vec![0; self.keys.len()];
        for (&(c, start), end) in self.runs.iter().zip(ends.clone()) {
            if let Some(n) = sizes.get_mut(c as usize) {
                *n += end - start;
            }
        }
        let mut members: Vec<Vec<RowId>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (&(c, start), end) in self.runs.iter().zip(ends) {
            if let (Some(to), Some(from)) = (members.get_mut(c as usize), self.rows.get(start..end))
            {
                to.extend_from_slice(from);
            }
        }
        let mut clusters: Vec<ClusterRows> = self.keys.into_iter().zip(members).collect();
        clusters.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        clusters
    }
}

/// Step 4: groups the sequences [`form_sequences`] formed by
/// global-dimension values, and assigns sids in group, then cluster-key
/// order.
fn group_sequences(
    db: &EventDb,
    spec: &SeqQuerySpec,
    gov: &QueryGovernor,
    sequences: Vec<ClusterRows>,
) -> Result<SequenceGroups> {
    let rec = gov.recorder();
    let _span = metrics::span(rec, Stage::FormGroup);
    let mut grouped: BTreeMap<Vec<LevelValue>, Vec<ClusterRows>> = BTreeMap::new();
    for (ckey, rows) in sequences {
        gov.check_now()?;
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
                // The group set outlives the query in the sequence cache;
                // `rows` was allocated at its exact length.
                let s = Sequence {
                    sid: next_sid,
                    cluster_key,
                    rows,
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
