//! The counter-based S-cuboid construction approach (§4.2.1, Figure 7).
//!
//! Each cell has a counter; the sequences of every group are scanned once
//! and every cell assignment increments its counter. Simple and single-pass,
//! but it rescans the **whole dataset on every query** — the weakness the
//! inverted-index approach targets.
//!
//! Counters are addressed by the cell's packed code
//! ([`solap_pattern::CellCodec`]): a dense array indexed by the code (the
//! paper's `C[v1, …, vn]`) when every pattern dimension has a finite domain
//! and the cell space is small enough, a hash map keyed by the code
//! otherwise — the paper notes performance "may degrade when the number of
//! counters far exceeds the amount of available memory", which the ablation
//! benchmark reproduces. One loop, `CellFold::scan_governed`, folds a sequence
//! into the counters for every caller: the sequential scan, the parallel
//! workers and the inverted-index executor's predicate pass.

use std::collections::HashMap;

use solap_eventdb::metrics::{self, Counter, Stage};
use solap_eventdb::{
    fail_point, panic_message, Error, EventDb, LevelValue, QueryGovernor, Result, Sequence,
    SequenceGroups,
};
use solap_pattern::{AggFunc, AggState, AggValue, CellCodec, CellTable, Content, Matcher};

use crate::cuboid::{CellKey, SCuboid};
use crate::spec::SCuboidSpec;
use crate::stats::ScanMeter;

/// Counter layout for the counter-based approach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CounterMode {
    /// Choose dense when the cell space is small (≤ `DENSE_CELL_LIMIT`),
    /// hash otherwise.
    #[default]
    Auto,
    /// Hash-keyed counters.
    Hash,
    /// Dense array counters (COUNT only; falls back to hash otherwise).
    Dense,
}

/// Largest dense cell space `Auto` will allocate (counters, not bytes).
pub const DENSE_CELL_LIMIT: usize = 1 << 22;

/// Whether a sequence-group key survives the spec's global slice.
pub(crate) fn group_selected(spec: &SCuboidSpec, key: &[LevelValue]) -> bool {
    spec.global_slice.iter().all(|(&g, &v)| key[g] == v)
}

/// Whether a cell survives the spec's pattern slice. Slice values may live
/// at a coarser level than the dimension (a slice set before a
/// P-DRILL-DOWN), in which case the cell value is rolled up before the
/// comparison.
pub(crate) fn cell_selected(db: &EventDb, spec: &SCuboidSpec, cell: &[LevelValue]) -> Result<bool> {
    for (&d, &(level, v)) in &spec.pattern_slice {
        let dim = &spec.template.dims[d];
        let at_slice_level = if level == dim.level {
            cell[d]
        } else {
            db.map_up(dim.attr, dim.level, cell[d], level)?
        };
        if at_slice_level != v {
            return Ok(false);
        }
    }
    Ok(true)
}

/// What a cell accumulates during a scan: a bare counter for `COUNT(*)`
/// (Figure 7 literally), the full [`AggState`] for the measure aggregates.
pub(crate) trait Accumulator: Clone + PartialEq + Send {
    /// The empty accumulator of `func`.
    fn fresh(func: AggFunc) -> Self;
    /// Folds one assignment in.
    fn add(
        &mut self,
        db: &EventDb,
        func: AggFunc,
        seq: &Sequence,
        content: Content<'_>,
    ) -> Result<()>;
    /// Combines with a partial accumulator of the same cell.
    fn merge(&mut self, other: &Self);
    /// The cell's value.
    fn finish(&self) -> AggValue;
}

impl Accumulator for u64 {
    fn fresh(_: AggFunc) -> Self {
        0
    }
    fn add(&mut self, _: &EventDb, _: AggFunc, _: &Sequence, _: Content<'_>) -> Result<()> {
        *self += 1;
        Ok(())
    }
    fn merge(&mut self, other: &Self) {
        *self += other;
    }
    fn finish(&self) -> AggValue {
        AggValue::Count(*self)
    }
}

impl Accumulator for AggState {
    fn fresh(func: AggFunc) -> Self {
        AggState::new(func)
    }
    fn add(
        &mut self,
        db: &EventDb,
        func: AggFunc,
        seq: &Sequence,
        content: Content<'_>,
    ) -> Result<()> {
        self.update(db, func, seq, content)
    }
    fn merge(&mut self, other: &Self) {
        AggState::merge(self, other);
    }
    fn finish(&self) -> AggValue {
        AggState::finish(self)
    }
}

/// Moves a sequence group's finished cells into the cuboid.
pub(crate) fn insert_cells<A: Accumulator>(
    cuboid: &mut SCuboid,
    global: &[LevelValue],
    cells: Vec<(Vec<LevelValue>, A)>,
) {
    for (pattern, acc) in cells {
        let key = CellKey {
            global: global.to_vec(),
            pattern,
        };
        cuboid.cells.insert(key, acc.finish());
    }
}

/// Runs `$body` with `$acc` bound to the accumulator type of `$agg`.
macro_rules! with_accumulator {
    ($agg:expr, $acc:ident => $body:expr) => {
        match $agg {
            solap_pattern::AggFunc::Count => {
                type $acc = u64;
                $body
            }
            _ => {
                type $acc = solap_pattern::AggState;
                $body
            }
        }
    };
}
pub(crate) use with_accumulator;

/// The scan of Figure 7 over any set of sequences: one matcher, one
/// `cell → accumulator` table per sequence group, one loop.
///
/// Governance: the matcher ticks once per candidate window; a newly
/// materialised cell is charged as it appears, except in the dense layout,
/// whose whole code space is charged when the group's table is allocated.
pub(crate) struct CellFold<'a, A> {
    db: &'a EventDb,
    spec: &'a SCuboidSpec,
    gov: &'a QueryGovernor,
    matcher: Matcher<'a>,
    dense: bool,
    cells: Option<CellTable<A>>,
    assignments: u64,
}

impl<'a, A: Accumulator> CellFold<'a, A> {
    pub(crate) fn new(
        db: &'a EventDb,
        spec: &'a SCuboidSpec,
        gov: &'a QueryGovernor,
        dense: bool,
    ) -> Self {
        CellFold {
            db,
            spec,
            gov,
            matcher: Matcher::new(db, &spec.template, &spec.mpred).with_governor(gov),
            dense,
            cells: None,
            assignments: 0,
        }
    }

    /// Folds the assignments of one sequence into the current group's
    /// cells.
    pub(crate) fn scan_governed(&mut self, seq: &Sequence) -> Result<()> {
        let (db, spec, gov, dense) = (self.db, self.spec, self.gov, self.dense);
        let cells = match &mut self.cells {
            Some(cells) => cells,
            vacant => {
                let codec = self.matcher.codec().clone();
                if dense {
                    // The dense array materialises the whole cell space at
                    // once; charge it up front so a budget below the array
                    // size rejects the allocation.
                    gov.charge_cells(codec.space().unwrap_or(u64::MAX))?;
                }
                let slots = if dense { u64::MAX } else { 0 };
                vacant.insert(CellTable::new(codec, slots, A::fresh(spec.agg)))
            }
        };
        self.assignments +=
            self.matcher
                .for_each_assignment(seq, spec.restriction, |cell, content| {
                    if !cell_selected(db, spec, cell)? {
                        return Ok(());
                    }
                    let (acc, fresh) = cells.slot(cell);
                    if fresh && !dense {
                        gov.charge_cells(1)?;
                    }
                    acc.add(db, spec.agg, seq, content)
                })?;
        Ok(())
    }

    /// Ends the current sequence group: its non-empty cells, keys
    /// materialised once each.
    pub(crate) fn take_cells(&mut self) -> Vec<(Vec<LevelValue>, A)> {
        self.cells
            .take()
            .map_or_else(Vec::new, CellTable::into_cells)
    }

    /// Flushes the scan's work counters into the query recorder.
    pub(crate) fn record(&self) {
        if let Some(rec) = self.gov.recorder() {
            rec.add(Counter::PatternAssignments, self.assignments);
            rec.add(Counter::MatchWindows, self.matcher.take_windows());
        }
    }
}

/// Runs the COUNTERBASED procedure over every sequence group, producing the
/// `(q + n)`-dimensional S-cuboid. `meter` records scanned sequences.
pub fn counter_based(
    db: &EventDb,
    groups: &SequenceGroups,
    spec: &SCuboidSpec,
    mode: CounterMode,
    meter: &mut ScanMeter,
) -> Result<SCuboid> {
    counter_based_governed(db, groups, spec, mode, meter, &QueryGovernor::unbounded())
}

/// [`counter_based`] under a [`QueryGovernor`]: match enumeration ticks per
/// candidate window and every newly materialised counter is charged against
/// the cell budget (dense layouts charge their whole cell space up front).
pub fn counter_based_governed(
    db: &EventDb,
    groups: &SequenceGroups,
    spec: &SCuboidSpec,
    mode: CounterMode,
    meter: &mut ScanMeter,
    gov: &QueryGovernor,
) -> Result<SCuboid> {
    let dense = match mode {
        CounterMode::Hash => false,
        CounterMode::Dense | CounterMode::Auto => {
            matches!(spec.agg, AggFunc::Count)
                && dense_cell_space(db, spec)
                    .is_some_and(|s| s <= DENSE_CELL_LIMIT || mode == CounterMode::Dense)
        }
    };
    let mut cuboid = SCuboid::new(
        spec.seq.group_by.clone(),
        spec.template.dims.clone(),
        spec.agg,
    );
    let _span = metrics::span(gov.recorder(), Stage::Aggregate);
    with_accumulator!(spec.agg, A => {
        let mut fold = CellFold::<A>::new(db, spec, gov, dense);
        for group in &groups.groups {
            if !group_selected(spec, &group.key) {
                continue;
            }
            fail_point!("cb.group");
            gov.check_now()?;
            for seq in &group.sequences {
                meter.touch(seq.sid);
                fold.scan_governed(seq)?;
            }
            insert_cells(&mut cuboid, &group.key, fold.take_cells());
        }
        fold.record();
    });
    Ok(cuboid)
}

/// The dense cell-space size — one counter per packed cell code — if every
/// pattern dimension has a finite domain.
pub fn dense_cell_space(db: &EventDb, spec: &SCuboidSpec) -> Option<usize> {
    let space = CellCodec::new(db, &spec.template.dims).space()?;
    usize::try_from(space).ok()
}

/// A parallel variant of [`counter_based`] covering **every** aggregate
/// function: the sequences of each group are sharded across `threads`
/// workers, each folding a thread-local cell table and a thread-local
/// [`ScanMeter`]; at join time the partial states are merged with
/// [`AggState::merge`] and the meters absorbed into `meter`.
///
/// Determinism: worker results are merged **in chunk order** (the order
/// the shards were cut from the group's sid-sorted sequence list), so each
/// cell's partial states always combine in the same sequence regardless of
/// thread scheduling, and finished cells are inserted in **sorted key
/// order**. Count/Min/Max merges are order-independent outright; Sum/Avg
/// carry `(sum, n)` partials whose fixed association order makes the
/// float result reproducible run-to-run.
pub fn counter_based_parallel(
    db: &EventDb,
    groups: &SequenceGroups,
    spec: &SCuboidSpec,
    threads: usize,
    meter: &mut ScanMeter,
) -> Result<SCuboid> {
    counter_based_parallel_governed(
        db,
        groups,
        spec,
        threads,
        meter,
        &QueryGovernor::unbounded(),
    )
}

/// [`counter_based_parallel`] under a [`QueryGovernor`]. The governor is
/// shared by reference across the workers: each worker's matcher ticks it,
/// each thread-local cell is charged, and the first limit to trip aborts
/// the whole group at merge time. A panicking worker is isolated and
/// surfaced as [`Error::Internal`] instead of poisoning the engine.
pub fn counter_based_parallel_governed(
    db: &EventDb,
    groups: &SequenceGroups,
    spec: &SCuboidSpec,
    threads: usize,
    meter: &mut ScanMeter,
    gov: &QueryGovernor,
) -> Result<SCuboid> {
    if threads <= 1 {
        return counter_based_governed(db, groups, spec, CounterMode::Hash, meter, gov);
    }
    let mut cuboid = SCuboid::new(
        spec.seq.group_by.clone(),
        spec.template.dims.clone(),
        spec.agg,
    );
    for group in &groups.groups {
        if !group_selected(spec, &group.key) || group.sequences.is_empty() {
            continue;
        }
        fail_point!("cb.group");
        gov.check_now()?;
        let chunk = group.sequences.len().div_ceil(threads).max(1);
        with_accumulator!(spec.agg, A => {
            let cells = scan_sharded::<A>(db, spec, gov, group.sequences.chunks(chunk), meter)?;
            insert_cells(&mut cuboid, &group.key, cells);
        });
    }
    Ok(cuboid)
}

/// One worker per shard, each a [`CellFold`] of its own; partial cells
/// merged in shard order and returned in sorted key order.
fn scan_sharded<'a, A: Accumulator>(
    db: &EventDb,
    spec: &SCuboidSpec,
    gov: &QueryGovernor,
    shards: impl Iterator<Item = &'a [Sequence]>,
    meter: &mut ScanMeter,
) -> Result<Vec<(Vec<LevelValue>, A)>> {
    type Partial<A> = (Vec<(Vec<LevelValue>, A)>, ScanMeter);
    let rec = gov.recorder();
    let partials: Vec<Result<Partial<A>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .map(|seqs| {
                scope.spawn(move || -> Result<Partial<A>> {
                    fail_point!("cb.worker");
                    // Per-worker observability: count into locals and
                    // flush once at worker exit; the Aggregate stage
                    // sums worker time (≈ CPU time, not wall clock).
                    let _worker_span = metrics::span(rec, Stage::Aggregate);
                    if let Some(rec) = rec {
                        rec.add(Counter::WorkersSpawned, 1);
                    }
                    let mut fold = CellFold::<A>::new(db, spec, gov, false);
                    let mut local_meter = ScanMeter::new();
                    for seq in seqs {
                        local_meter.touch(seq.sid);
                        fold.scan_governed(seq)?;
                    }
                    fold.record();
                    Ok((fold.take_cells(), local_meter))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(p) => Err(Error::Internal(format!(
                    "CB worker panicked: {}",
                    panic_message(p.as_ref())
                ))),
            })
            .collect()
    });
    // Surface the first worker error *before* absorbing any partial
    // meter: a governor abort mid-merge must not leave the failed run's
    // scan accounting behind in a caller-reused meter.
    let partials: Vec<Partial<A>> = partials.into_iter().collect::<Result<_>>()?;
    let mut merged: HashMap<Vec<LevelValue>, A> = HashMap::new();
    for (local, local_meter) in partials {
        meter.absorb(&local_meter);
        for (cell, acc) in local {
            merged
                .entry(cell)
                .or_insert_with(|| A::fresh(spec.agg))
                .merge(&acc);
        }
    }
    let mut cells: Vec<(Vec<LevelValue>, A)> = merged.into_iter().collect();
    cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SCuboidSpec;
    use solap_eventdb::{
        build_sequence_groups, AttrLevel, ColumnType, EventDbBuilder, Pred, SeqQuerySpec, SortKey,
        Value,
    };
    use solap_pattern::{CellRestriction, MatchPred, PatternKind, PatternTemplate};

    /// Figure 8's sequence group as an event db: sid encoded as cluster key.
    fn fig8_db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("sid", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("location", ColumnType::Str)
            .dimension("action", ColumnType::Str)
            .build()
            .unwrap();
        let seqs: [&[&str]; 4] = [
            &[
                "Glenmont", "Pentagon", "Pentagon", "Wheaton", "Wheaton", "Pentagon",
            ],
            &["Pentagon", "Wheaton", "Wheaton", "Pentagon"],
            &["Clarendon", "Pentagon"],
            &["Wheaton", "Clarendon", "Deanwood", "Wheaton"],
        ];
        for (sid, stations) in seqs.iter().enumerate() {
            for (i, st) in stations.iter().enumerate() {
                let action = if i % 2 == 0 { "in" } else { "out" };
                db.push_row(&[
                    Value::Int(sid as i64),
                    Value::Int(i as i64),
                    Value::from(*st),
                    Value::from(action),
                ])
                .unwrap();
            }
        }
        db
    }

    fn spec_xy(db: &EventDb) -> SCuboidSpec {
        let t = PatternTemplate::new(
            PatternKind::Substring,
            &["X", "Y"],
            &[("X", 2, 0), ("Y", 2, 0)],
        )
        .unwrap();
        let action = db.attr("action").unwrap();
        SCuboidSpec::new(
            t,
            vec![AttrLevel::new(0, 0)],
            vec![SortKey {
                attr: 1,
                ascending: true,
            }],
        )
        .with_mpred(
            MatchPred::cmp(0, action, solap_eventdb::CmpOp::Eq, "in").and(MatchPred::cmp(
                1,
                action,
                solap_eventdb::CmpOp::Eq,
                "out",
            )),
        )
    }

    fn groups(db: &EventDb, spec: &SCuboidSpec) -> SequenceGroups {
        build_sequence_groups(db, &spec.seq).unwrap()
    }

    fn station(db: &EventDb, s: &str) -> u64 {
        db.dict(2).unwrap().lookup(s).unwrap() as u64
    }

    /// The 2D S-cuboid of Figure 12.
    #[test]
    fn q3_matches_figure_12() {
        let db = fig8_db();
        let spec = spec_xy(&db);
        let g = groups(&db, &spec);
        let mut meter = ScanMeter::new();
        let c = counter_based(&db, &g, &spec, CounterMode::Hash, &mut meter).unwrap();
        let expect = [
            (("Clarendon", "Pentagon"), 1),
            (("Deanwood", "Wheaton"), 1),
            (("Glenmont", "Pentagon"), 1),
            (("Pentagon", "Wheaton"), 2),
            (("Wheaton", "Clarendon"), 1),
            (("Wheaton", "Pentagon"), 2),
        ];
        assert_eq!(c.len(), expect.len());
        for ((x, y), n) in expect {
            assert_eq!(
                c.get(&[], &[station(&db, x), station(&db, y)])
                    .and_then(|v| v.as_count()),
                Some(n),
                "({x},{y})"
            );
        }
        assert_eq!(meter.count(), 4, "CB scans every sequence");
    }

    #[test]
    fn dense_equals_hash() {
        let db = fig8_db();
        let spec = spec_xy(&db);
        let g = groups(&db, &spec);
        let mut m1 = ScanMeter::new();
        let h = counter_based(&db, &g, &spec, CounterMode::Hash, &mut m1).unwrap();
        let mut m2 = ScanMeter::new();
        let d = counter_based(&db, &g, &spec, CounterMode::Dense, &mut m2).unwrap();
        assert_eq!(h.cells, d.cells);
        let mut m3 = ScanMeter::new();
        let a = counter_based(&db, &g, &spec, CounterMode::Auto, &mut m3).unwrap();
        assert_eq!(h.cells, a.cells);
    }

    #[test]
    fn parallel_equals_sequential() {
        let db = fig8_db();
        let spec = spec_xy(&db);
        let g = groups(&db, &spec);
        let mut m1 = ScanMeter::new();
        let s = counter_based(&db, &g, &spec, CounterMode::Hash, &mut m1).unwrap();
        let mut m2 = ScanMeter::new();
        let p = counter_based_parallel(&db, &g, &spec, 3, &mut m2).unwrap();
        assert_eq!(s.cells, p.cells);
        assert_eq!(m1.count(), m2.count());
    }

    #[test]
    fn failed_parallel_run_leaves_meter_untouched() {
        let db = fig8_db();
        let spec = spec_xy(&db);
        let g = groups(&db, &spec);
        // A 1-cell budget aborts some worker mid-scan; the abort must not
        // leave the failed run's scan accounting in the caller's meter
        // (regression: absorb used to run before the error was surfaced).
        let gov = QueryGovernor::new(None, Some(1), None);
        let mut meter = ScanMeter::new();
        assert!(counter_based_parallel_governed(&db, &g, &spec, 3, &mut meter, &gov).is_err());
        assert_eq!(meter.count(), 0, "failed run must not be metered");
        // The same meter then records exactly one successful run.
        let ok = counter_based_parallel(&db, &g, &spec, 3, &mut meter).unwrap();
        assert_eq!(meter.count(), 4);
        assert!(!ok.is_empty());
    }

    #[test]
    fn xyyx_finds_the_round_trip() {
        let db = fig8_db();
        let t = PatternTemplate::new(
            PatternKind::Substring,
            &["X", "Y", "Y", "X"],
            &[("X", 2, 0), ("Y", 2, 0)],
        )
        .unwrap();
        let action = db.attr("action").unwrap();
        let spec = SCuboidSpec::new(
            t,
            vec![AttrLevel::new(0, 0)],
            vec![SortKey {
                attr: 1,
                ascending: true,
            }],
        )
        .with_mpred(MatchPred::all([
            MatchPred::cmp(0, action, solap_eventdb::CmpOp::Eq, "in"),
            MatchPred::cmp(1, action, solap_eventdb::CmpOp::Eq, "out"),
            MatchPred::cmp(2, action, solap_eventdb::CmpOp::Eq, "in"),
            MatchPred::cmp(3, action, solap_eventdb::CmpOp::Eq, "out"),
        ]));
        let g = groups(&db, &spec);
        let mut meter = ScanMeter::new();
        let c = counter_based(&db, &g, &spec, CounterMode::Hash, &mut meter).unwrap();
        // §4.2.2: only [Pentagon, Wheaton] has count… 2 here because both
        // s1 and s2 contain the aligned round trip (the paper's Figure 14
        // count of 1 applies after its predicate verification example; with
        // the Q1 predicate both s1 and s2 qualify: s1 at positions 2..6 and
        // s2 at 0..4).
        assert_eq!(
            c.get(&[], &[station(&db, "Pentagon"), station(&db, "Wheaton")])
                .and_then(|v| v.as_count()),
            Some(2)
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn pattern_slice_restricts_cells() {
        let db = fig8_db();
        let mut spec = spec_xy(&db);
        spec.pattern_slice.insert(0, (0, station(&db, "Pentagon")));
        let g = groups(&db, &spec);
        let mut meter = ScanMeter::new();
        let c = counter_based(&db, &g, &spec, CounterMode::Hash, &mut meter).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c
            .get(&[], &[station(&db, "Pentagon"), station(&db, "Wheaton")])
            .is_some());
    }

    #[test]
    fn global_slice_skips_groups() {
        let db = fig8_db();
        // Group by sid itself so each sequence is its own group.
        let mut spec = spec_xy(&db);
        spec.seq.group_by = vec![AttrLevel::new(0, 0)];
        spec.global_slice.insert(0, 1); // only sid 1
        let g = groups(&db, &spec);
        let mut meter = ScanMeter::new();
        let c = counter_based(&db, &g, &spec, CounterMode::Hash, &mut meter).unwrap();
        assert_eq!(meter.count(), 1, "only the sliced group is scanned");
        for (k, _) in c.iter_sorted() {
            assert_eq!(k.global, vec![1]);
        }
    }

    #[test]
    fn all_matched_go_counts_occurrences() {
        let db = fig8_db();
        let mut spec = spec_xy(&db);
        spec.mpred = MatchPred::True;
        spec.restriction = CellRestriction::AllMatchedGo;
        let g = groups(&db, &spec);
        let mut meter = ScanMeter::new();
        let c = counter_based(&db, &g, &spec, CounterMode::Hash, &mut meter).unwrap();
        // s1 ⟨G,P,P,W,W,P⟩ has windows (P,P) ×1, (W,W) ×1, (P,W) ×1, (W,P) ×1, (G,P) ×1.
        // Totals: every adjacent pair across all 4 sequences = 5+3+1+3 = 12.
        assert_eq!(c.total_count(), 12);
    }

    #[test]
    fn where_filter_respected() {
        let db = fig8_db();
        let mut spec = spec_xy(&db);
        spec.seq.filter = Pred::cmp(0, solap_eventdb::CmpOp::Le, Value::Int(1)); // sids 0 and 1
        let g = build_sequence_groups(&db, &spec.seq).unwrap();
        let mut meter = ScanMeter::new();
        let c = counter_based(&db, &g, &spec, CounterMode::Hash, &mut meter).unwrap();
        assert_eq!(meter.count(), 2);
        assert!(c
            .get(&[], &[station(&db, "Wheaton"), station(&db, "Clarendon")])
            .is_none());
    }

    #[test]
    fn dense_cell_space_depends_on_domains() {
        let db = fig8_db();
        let spec = spec_xy(&db);
        assert_eq!(dense_cell_space(&db, &spec), Some(25)); // 5 stations²
                                                            // A template over a raw-int dimension has no finite domain.
        let t = PatternTemplate::new(
            PatternKind::Substring,
            &["X", "Y"],
            &[("X", 1, 0), ("Y", 1, 0)],
        )
        .unwrap();
        let s2 = SCuboidSpec::new(t, vec![AttrLevel::new(0, 0)], vec![]);
        assert_eq!(dense_cell_space(&db, &s2), None);
    }

    /// Build a sequence-group set from an arbitrary query spec quickly.
    #[test]
    fn seq_spec_shared_with_eventdb() {
        let db = fig8_db();
        let spec = spec_xy(&db);
        let s: &SeqQuerySpec = &spec.seq;
        assert_eq!(s.cluster_by.len(), 1);
    }
}
