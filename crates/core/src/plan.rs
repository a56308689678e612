//! Cost-based planning over the S-cube lattice.
//!
//! The paper's §5 evaluation *measures* the cost structure of the two
//! construction strategies (per-event scan work for CB, per-sequence join
//! work for II); this module *uses* it. A [`CostModel`] holds calibrated
//! unit costs (seeded from the relative magnitudes the §5 experiments
//! exhibit, updated online via an EWMA over per-query actuals, persisted
//! alongside durable engines), and a [`Planner`] enumerates the executable
//! alternatives for a query —
//!
//! * a counter-based scan (§4.2.1),
//! * an inverted-index join ladder (§4.2.2), and
//! * reuse of a materialized finer cuboid from the repository, rolled up
//!   through the lattice partial order ([`crate::lattice::spec_le`]) —
//!
//! costs each one, and picks the cheapest. The engine executes the winner
//! under the ordinary [`QueryGovernor`] limits and feeds the observed
//! elapsed time back into the model, closing the loop the ROADMAP's
//! "cost-based planning" item left open.
//!
//! The module also owns the index-materialization advisor:
//! [`Planner::advise`] answers §4.2.2's open problem of which generic
//! indices to precompute for a workload, with its inputs gathered into a
//! [`PlanContext`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use solap_eventdb::{AttrId, Error, EventDb, QueryGovernor, Result, SequenceGroups};
use solap_index::build_index;
use solap_pattern::{AggFunc, AggValue, CellRestriction, PatternKind, PatternTemplate};

use crate::cuboid::{CellKey, SCuboid};
use crate::lattice::spec_le;
use crate::spec::SCuboidSpec;

/// EWMA smoothing factor for online calibration: one observation moves a
/// unit cost 20% of the way to the sample, so the model adapts within a
/// handful of queries without thrashing on one outlier.
const EWMA_ALPHA: f64 = 0.2;

/// Fallback events-per-sequence ratio when the sequence groups have not
/// been built yet (EXPLAIN must not build them): `D ≈ E / 4`.
const ESTIMATED_EVENTS_PER_SEQUENCE: u64 = 4;

/// Seed unit costs in nanoseconds. The *ratios* are what matters — they
/// are chosen so that, before any calibration, the planner picks II for
/// indexable templates and CB for subsequence templates with `m > 3`;
/// absolute values converge to the host machine via the EWMA.
const SEED_CB_SCAN_NS: f64 = 120.0;
/// Seed per-event cost of the II base-index build scan.
const SEED_II_BUILD_NS: f64 = 60.0;
/// Seed per-sequence, per-ladder-rung cost of the II join phase.
const SEED_II_JOIN_NS: f64 = 10.0;
/// Seed per-source-cell cost of an ancestor roll-up merge.
const SEED_REUSE_MERGE_NS: f64 = 150.0;

/// How many repository-backed reuse candidates the planner costs per
/// query (most-recently-executed first).
const MAX_REUSE_CANDIDATES: usize = 4;

/// Minimum work units (events, joins or cells) a query must have executed
/// for its timing to calibrate the model. Below this, elapsed time is
/// dominated by fixed per-query overhead (lock acquisition, allocation,
/// cache probes), and dividing it by a tiny unit count would teach the
/// model wildly inflated per-unit costs.
const MIN_CALIBRATION_UNITS: u64 = 1_000;

/// The join-ladder rung count per sequence, as a function of template
/// length and kind: a SUBSTRING ladder joins adjacent positions (`m - 1`
/// rungs), while a SUBSEQUENCE ladder must enumerate gapped combinations,
/// which grows combinatorially — modeled as `4^(m-1)`, which puts the
/// seeded CB/II crossover at `m > 3`.
fn ladder(m: usize, kind: PatternKind) -> f64 {
    match kind {
        PatternKind::Substring => m.saturating_sub(1).max(1) as f64,
        PatternKind::Subsequence => {
            let rungs = m.saturating_sub(1).min(31) as i32;
            4f64.powi(rungs)
        }
    }
}

/// A costed prediction of what one plan alternative will do.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostEstimate {
    /// Events the plan scans (CB: all of them; II: base build only).
    pub events_scanned: u64,
    /// Events scanned specifically to build missing base indices.
    pub index_build_events: u64,
    /// Predicted join-ladder operations (sequences × rungs).
    pub index_joins: u64,
    /// Source cells merged (ancestor-reuse plans only).
    pub cells_merged: u64,
    /// Predicted total cost in nanoseconds — the argmin key.
    pub total_nanos: f64,
}

/// One executable alternative for a query.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanChoice {
    /// Counter-based scan of every group (§4.2.1).
    CounterBased,
    /// QUERYINDICES join ladder over inverted lists (§4.2.2).
    InvertedIndex,
    /// Roll a materialized finer cuboid up the lattice instead of touching
    /// the event data at all.
    AncestorRollUp {
        /// The materialized finer spec whose cuboid is merged up
        /// (boxed: a spec is ~280 bytes, the other variants are empty).
        source: Box<SCuboidSpec>,
    },
}

/// A fully costed plan alternative.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// What the plan does.
    pub choice: PlanChoice,
    /// What the model predicts it costs.
    pub cost: CostEstimate,
    /// A one-line human rationale ("counter scan of 16 events", …).
    pub why: String,
}

impl QueryPlan {
    /// The plan's short strategy label (`"CB"`, `"II"`, `"reuse"`).
    pub fn label(&self) -> &'static str {
        match self.choice {
            PlanChoice::CounterBased => "CB",
            PlanChoice::InvertedIndex => "II",
            PlanChoice::AncestorRollUp { .. } => "reuse",
        }
    }
}

/// What the planner knows about a query before executing it.
#[derive(Debug, Clone)]
pub struct PlanInputs<'a> {
    /// The query.
    pub spec: &'a SCuboidSpec,
    /// Events in the database snapshot.
    pub events: u64,
    /// Sequence count when the groups are already built/cached; `None`
    /// makes the model estimate `E / 4`.
    pub sequences: Option<u64>,
    /// Whether a base inverted index (any cached signature prefix ≥ 2) is
    /// already stored, making the II build phase free.
    pub base_index_cached: bool,
    /// Materialized finer cuboids eligible for roll-up reuse, as
    /// `(source spec, source cell count)` — pre-filtered by
    /// [`reuse_safe`].
    pub ancestors: Vec<(SCuboidSpec, usize)>,
}

/// One alternative of a [`PlanReport`], render-ready.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAlternative {
    /// Strategy label (`"CB"`, `"II"`, `"reuse"`).
    pub label: String,
    /// One-line description of what the alternative would do.
    pub detail: String,
    /// The model's prediction for it.
    pub cost: CostEstimate,
    /// Whether the planner picked it.
    pub chosen: bool,
}

/// The structured result of `EXPLAIN`: everything a surface needs to
/// render the plan as text or JSON. Produced by the engine; rendering
/// lives in the dispatch layer so the wire protocol and the REPL cannot
/// drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// The query, rendered in the Figure-3 language.
    pub query: String,
    /// How the strategy was chosen: `"cost"` (the planner, under
    /// `Strategy::Auto`) or `"configured"` (a fixed strategy).
    pub mode: &'static str,
    /// The chosen strategy label.
    pub strategy: String,
    /// Why it was chosen.
    pub why: String,
    /// Worker threads.
    pub threads: usize,
    /// Events the select/cluster steps scan.
    pub events: u64,
    /// The `WHERE` filter, rendered (`"TRUE"` when absent).
    pub filter: String,
    /// `SEQUENCE BY` key count.
    pub sort_keys: usize,
    /// `SEQUENCE GROUP BY` attribute count.
    pub group_attrs: usize,
    /// Template kind, rendered (`"Substring"` / `"Subsequence"`).
    pub template_kind: String,
    /// Template length.
    pub m: usize,
    /// Iceberg minimum support, when set.
    pub min_support: Option<u64>,
    /// Whether the cuboid repository may answer the query outright.
    pub use_cuboid_repo: bool,
    /// Every alternative the planner considered, chosen one flagged.
    pub alternatives: Vec<PlanAlternative>,
}

impl PlanReport {
    /// The chosen alternative, if any was flagged.
    pub fn chosen(&self) -> Option<&PlanAlternative> {
        self.alternatives.iter().find(|a| a.chosen)
    }
}

/// Calibrated unit costs mapping the paper's §5 quantities (events
/// scanned, sequences joined, cells touched) to predicted nanoseconds.
///
/// All four units are `f64`s stored as atomic bit patterns, so estimation
/// and calibration are lock-free and safe from any thread; estimates
/// tolerate any interleaving of concurrent updates.
#[derive(Debug)]
pub struct CostModel {
    /// CB: nanoseconds per event scanned.
    cb_scan_ns: AtomicU64,
    /// II build: nanoseconds per event scanned into base lists.
    ii_build_ns: AtomicU64,
    /// II join: nanoseconds per sequence per ladder rung.
    ii_join_ns: AtomicU64,
    /// Reuse: nanoseconds per source cell merged.
    reuse_merge_ns: AtomicU64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::seeded()
    }
}

impl CostModel {
    /// A model at the seed constants (uncalibrated).
    pub fn seeded() -> Self {
        CostModel {
            cb_scan_ns: AtomicU64::new(SEED_CB_SCAN_NS.to_bits()),
            ii_build_ns: AtomicU64::new(SEED_II_BUILD_NS.to_bits()),
            ii_join_ns: AtomicU64::new(SEED_II_JOIN_NS.to_bits()),
            reuse_merge_ns: AtomicU64::new(SEED_REUSE_MERGE_NS.to_bits()),
        }
    }

    fn read(cell: &AtomicU64) -> f64 {
        // ord: each unit cost is an independent cell; estimates tolerate
        // any interleaving with concurrent calibration stores
        f64::from_bits(cell.load(Ordering::Relaxed))
    }

    fn write(cell: &AtomicU64, value: f64) {
        if !value.is_finite() || value <= 0.0 {
            return;
        }
        // ord: see read() — last-writer-wins is fine for a smoothed estimate
        cell.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Blends one observed sample into a unit cost (EWMA).
    fn blend(cell: &AtomicU64, sample: f64) {
        if !sample.is_finite() || sample <= 0.0 {
            return;
        }
        let old = Self::read(cell);
        Self::write(cell, EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * old);
    }

    /// The current unit costs as `(name, nanoseconds)` pairs — the
    /// persistence format uses these names.
    pub fn units(&self) -> [(&'static str, f64); 4] {
        [
            ("cb_scan_ns", Self::read(&self.cb_scan_ns)),
            ("ii_build_ns", Self::read(&self.ii_build_ns)),
            ("ii_join_ns", Self::read(&self.ii_join_ns)),
            ("reuse_merge_ns", Self::read(&self.reuse_merge_ns)),
        ]
    }

    /// Predicted cost of a counter-based scan over `events` events.
    pub fn estimate_cb(&self, events: u64) -> CostEstimate {
        CostEstimate {
            events_scanned: events,
            total_nanos: Self::read(&self.cb_scan_ns) * events as f64,
            ..Default::default()
        }
    }

    /// Predicted cost of the inverted-index path: a base-build scan over
    /// `events` (free when `base_cached`), then a join ladder over
    /// `sequences` at [`ladder`]`(m, kind)` rungs each.
    pub fn estimate_ii(
        &self,
        events: u64,
        sequences: u64,
        m: usize,
        kind: PatternKind,
        base_cached: bool,
    ) -> CostEstimate {
        let build_events = if base_cached { 0 } else { events };
        let joins = sequences as f64 * ladder(m, kind);
        CostEstimate {
            events_scanned: build_events,
            index_build_events: build_events,
            index_joins: joins as u64,
            cells_merged: 0,
            total_nanos: Self::read(&self.ii_build_ns) * build_events as f64
                + Self::read(&self.ii_join_ns) * joins,
        }
    }

    /// Predicted cost of rolling up a materialized cuboid with
    /// `source_cells` cells.
    pub fn estimate_reuse(&self, source_cells: u64) -> CostEstimate {
        CostEstimate {
            cells_merged: source_cells,
            total_nanos: Self::read(&self.reuse_merge_ns) * source_cells as f64,
            ..Default::default()
        }
    }

    /// Calibrates the CB unit from an executed counter scan. Queries below
    /// [`MIN_CALIBRATION_UNITS`] events are ignored — their elapsed time is
    /// fixed overhead, not per-event work.
    pub fn observe_cb(&self, elapsed_ns: u64, events: u64) {
        if events >= MIN_CALIBRATION_UNITS {
            Self::blend(&self.cb_scan_ns, elapsed_ns as f64 / events as f64);
        }
    }

    /// Calibrates the II build unit from a query that built base indices
    /// (the build scan dominates such queries).
    pub fn observe_ii_build(&self, elapsed_ns: u64, events: u64) {
        if events >= MIN_CALIBRATION_UNITS {
            Self::blend(&self.ii_build_ns, elapsed_ns as f64 / events as f64);
        }
    }

    /// Calibrates the II join unit from a build-free query, given the
    /// predicted join count it executed.
    pub fn observe_ii_join(&self, elapsed_ns: u64, joins: u64) {
        if joins >= MIN_CALIBRATION_UNITS {
            Self::blend(&self.ii_join_ns, elapsed_ns as f64 / joins as f64);
        }
    }

    /// Calibrates the reuse unit from an executed ancestor roll-up.
    pub fn observe_reuse(&self, elapsed_ns: u64, cells_merged: u64) {
        if cells_merged >= MIN_CALIBRATION_UNITS {
            Self::blend(
                &self.reuse_merge_ns,
                elapsed_ns as f64 / cells_merged as f64,
            );
        }
    }

    /// Predicted joins for an II execution of `spec` over `sequences`
    /// sequences — the denominator [`CostModel::observe_ii_join`] expects.
    pub fn predicted_joins(spec: &SCuboidSpec, sequences: u64) -> u64 {
        (sequences as f64 * ladder(spec.template.m(), spec.template.kind)) as u64
    }

    /// Persists the unit costs as `name value` lines.
    pub fn save_to(&self, path: &Path) -> Result<()> {
        let mut out = String::new();
        for (name, v) in self.units() {
            out.push_str(&format!("{name} {v}\n"));
        }
        std::fs::write(path, out)
            .map_err(|e| Error::Internal(format!("cost model save to {}: {e}", path.display())))
    }

    /// Loads persisted unit costs, falling back to the seeds for missing,
    /// unparseable or non-positive entries (and entirely when the file is
    /// absent — a fresh durable engine starts at the seeds).
    pub fn load_from(path: &Path) -> Self {
        let model = CostModel::seeded();
        let Ok(text) = std::fs::read_to_string(path) else {
            return model;
        };
        for line in text.lines() {
            let mut it = line.split_whitespace();
            let (Some(name), Some(raw)) = (it.next(), it.next()) else {
                continue;
            };
            let Ok(v) = raw.parse::<f64>() else { continue };
            match name {
                "cb_scan_ns" => Self::write(&model.cb_scan_ns, v),
                "ii_build_ns" => Self::write(&model.ii_build_ns, v),
                "ii_join_ns" => Self::write(&model.ii_join_ns, v),
                "reuse_merge_ns" => Self::write(&model.reuse_merge_ns, v),
                _ => {}
            }
        }
        model
    }
}

/// Whether the cuboid of `source` can be rolled up into the cuboid of
/// `target` with guaranteed bit-identical results to direct construction.
///
/// Sound merges require `target ≤ source` in the lattice order plus
/// restrictions the partial order alone does not capture:
///
/// * equal template length — a shorter window changes which occurrences
///   exist, so DE-HEAD/DE-TAIL derivations must re-match;
/// * no iceberg threshold on the target — `min_support` filtered cells
///   out of the source, so merged counts would undercount (and `spec_le`
///   forces equal thresholds, so a thresholded pair is rejected here);
/// * no AVG — finished averages cannot be re-merged without their counts;
/// * a pattern dimension may only coarsen if its symbol occurs once
///   (repeated symbols mean value-equality constraints, which differ
///   across levels) and the restriction is ALL-MATCHED — the
///   LEFT-MAXIMALITY restrictions count per `(sequence, cell)`, so
///   merging fine cells into one coarse cell would double-count a
///   sequence that hit several fine cells. Global-dimension roll-ups and
///   removals are safe under any restriction: they re-bucket whole
///   groups without changing per-group match sets.
pub fn reuse_safe(target: &SCuboidSpec, source: &SCuboidSpec) -> bool {
    if target.fingerprint() == source.fingerprint() {
        return false; // identity: the repository fast path handles it
    }
    if !spec_le(target, source) {
        return false;
    }
    if target.template.m() != source.template.m() {
        return false;
    }
    if target.min_support.is_some() || matches!(target.agg, AggFunc::Avg(..)) {
        return false;
    }
    // Equal m ⇒ the template_le window offset is 0: dimension i of the
    // target corresponds to the source dimension at the same positions.
    let mut pattern_coarsened = false;
    for (i, td) in target.template.dims.iter().enumerate() {
        let Some(p) = target.template.symbols.iter().position(|&s| s == i) else {
            return false;
        };
        let Some(sd) = source
            .template
            .symbols
            .get(p)
            .and_then(|&sj| source.template.dims.get(sj))
        else {
            return false;
        };
        if sd.attr != td.attr || td.level < sd.level {
            return false;
        }
        if td.level > sd.level {
            pattern_coarsened = true;
            if target.template.symbols.iter().filter(|&&s| s == i).count() != 1 {
                return false;
            }
        }
    }
    if pattern_coarsened && target.restriction != CellRestriction::AllMatchedGo {
        return false;
    }
    for t in &target.seq.group_by {
        let Some(s) = source.seq.group_by.iter().find(|s| s.attr == t.attr) else {
            return false;
        };
        if t.level < s.level {
            return false;
        }
    }
    true
}

/// Merges two finished aggregate values under `agg`. `None` when the
/// aggregate is not merge-closed (AVG) or the shapes disagree.
fn merge_values(agg: AggFunc, a: AggValue, b: AggValue) -> Option<AggValue> {
    match (agg, a, b) {
        (AggFunc::Count, AggValue::Count(x), AggValue::Count(y)) => Some(AggValue::Count(x + y)),
        (AggFunc::Sum(..), AggValue::Float(x), AggValue::Float(y)) => Some(AggValue::Float(x + y)),
        (AggFunc::Sum(..), AggValue::Count(x), AggValue::Count(y)) => Some(AggValue::Count(x + y)),
        (AggFunc::Min(_), AggValue::Float(x), AggValue::Float(y)) => {
            Some(AggValue::Float(x.min(y)))
        }
        (AggFunc::Min(_), AggValue::Count(x), AggValue::Count(y)) => {
            Some(AggValue::Count(x.min(y)))
        }
        (AggFunc::Max(_), AggValue::Float(x), AggValue::Float(y)) => {
            Some(AggValue::Float(x.max(y)))
        }
        (AggFunc::Max(_), AggValue::Count(x), AggValue::Count(y)) => {
            Some(AggValue::Count(x.max(y)))
        }
        _ => None,
    }
}

/// Rolls a materialized `source` cuboid up to `target`'s dimensionality:
/// every cell key is mapped through the concept hierarchies
/// ([`EventDb::map_up`]), dropped global dimensions are projected away,
/// and colliding cells merge their aggregates. Returns the rolled-up
/// cuboid and the number of source cells merged.
///
/// The caller must have established [`reuse_safe`]`(target, source_spec)`;
/// structural surprises (incomplete hierarchies, mismatched dimensions)
/// surface as errors so the engine can fall back to direct construction.
/// Runs under the governor: one tick per source cell, one cell charge per
/// distinct output cell.
pub fn roll_up_cuboid(
    db: &EventDb,
    source_spec: &SCuboidSpec,
    source: &SCuboid,
    target: &SCuboidSpec,
    gov: &QueryGovernor,
) -> Result<(SCuboid, u64)> {
    let bad = |msg: &str| Error::InvalidOperation(format!("ancestor reuse: {msg}"));
    // (source key index, attr, from level, to level) per target dimension.
    let mut global_map: Vec<(usize, AttrId, usize, usize)> =
        Vec::with_capacity(target.seq.group_by.len());
    for t in &target.seq.group_by {
        let Some((si, s)) = source_spec
            .seq
            .group_by
            .iter()
            .enumerate()
            .find(|(_, s)| s.attr == t.attr)
        else {
            return Err(bad("target global dimension missing from source"));
        };
        if t.level < s.level {
            return Err(bad("target global dimension finer than source"));
        }
        global_map.push((si, t.attr, s.level, t.level));
    }
    let mut pattern_map: Vec<(usize, AttrId, usize, usize)> =
        Vec::with_capacity(target.template.dims.len());
    for (i, td) in target.template.dims.iter().enumerate() {
        let Some(p) = target.template.symbols.iter().position(|&s| s == i) else {
            return Err(bad("unreferenced target pattern dimension"));
        };
        let Some((sj, sd)) = source
            .pattern_dims
            .get(
                source_spec
                    .template
                    .symbols
                    .get(p)
                    .copied()
                    .unwrap_or(usize::MAX),
            )
            .map(|sd| {
                (
                    source_spec.template.symbols.get(p).copied().unwrap_or(0),
                    sd,
                )
            })
        else {
            return Err(bad("template windows do not line up"));
        };
        if sd.attr != td.attr || td.level < sd.level {
            return Err(bad("target pattern dimension incompatible with source"));
        }
        pattern_map.push((sj, td.attr, sd.level, td.level));
    }
    let mut out = SCuboid::new(
        target.seq.group_by.clone(),
        target.template.dims.clone(),
        target.agg,
    );
    let mut merged: u64 = 0;
    for (key, value) in &source.cells {
        gov.tick()?;
        merged += 1;
        let mut global = Vec::with_capacity(global_map.len());
        for &(si, attr, from, to) in &global_map {
            let v = key
                .global
                .get(si)
                .copied()
                .ok_or_else(|| bad("source cell key narrower than its dimensions"))?;
            global.push(if to == from {
                v
            } else {
                db.map_up(attr, from, v, to)?
            });
        }
        let mut pattern = Vec::with_capacity(pattern_map.len());
        for &(sj, attr, from, to) in &pattern_map {
            let v = key
                .pattern
                .get(sj)
                .copied()
                .ok_or_else(|| bad("source cell key narrower than its dimensions"))?;
            pattern.push(if to == from {
                v
            } else {
                db.map_up(attr, from, v, to)?
            });
        }
        match out.cells.entry(CellKey { global, pattern }) {
            Entry::Occupied(mut e) => {
                let combined = merge_values(target.agg, *e.get(), *value)
                    .ok_or_else(|| bad("aggregate values are not merge-closed"))?;
                e.insert(combined);
            }
            Entry::Vacant(e) => {
                gov.charge_cells(1)?;
                e.insert(*value);
            }
        }
    }
    Ok((out, merged))
}

/// The cost-based planner: enumerates alternatives, costs them against a
/// [`CostModel`], and picks the cheapest.
#[derive(Debug, Clone, Copy)]
pub struct Planner<'a> {
    model: &'a CostModel,
}

impl<'a> Planner<'a> {
    /// A planner over the given (shared, concurrently calibrated) model.
    pub fn new(model: &'a CostModel) -> Self {
        Planner { model }
    }

    /// Enumerates and costs every alternative for `inputs`, returning the
    /// index of the cheapest (ties keep the earliest) and the full list —
    /// CB first, II second, then each reuse candidate in the order given.
    pub fn plan(&self, inputs: &PlanInputs<'_>) -> (usize, Vec<QueryPlan>) {
        let m = inputs.spec.template.m();
        let kind = inputs.spec.template.kind;
        let sequences = inputs
            .sequences
            .unwrap_or_else(|| (inputs.events / ESTIMATED_EVENTS_PER_SEQUENCE).max(1));
        let ii =
            self.model
                .estimate_ii(inputs.events, sequences, m, kind, inputs.base_index_cached);
        let mut plans = vec![
            QueryPlan {
                choice: PlanChoice::CounterBased,
                cost: self.model.estimate_cb(inputs.events),
                why: format!("counter scan of {} events", inputs.events),
            },
            QueryPlan {
                choice: PlanChoice::InvertedIndex,
                cost: ii,
                why: if inputs.base_index_cached {
                    format!(
                        "join ladder over cached base lists ({} joins)",
                        ii.index_joins
                    )
                } else {
                    format!(
                        "build base lists over {} events, then {} joins",
                        inputs.events, ii.index_joins
                    )
                },
            },
        ];
        for (source, cells) in &inputs.ancestors {
            plans.push(QueryPlan {
                choice: PlanChoice::AncestorRollUp {
                    source: Box::new(source.clone()),
                },
                cost: self.model.estimate_reuse(*cells as u64),
                why: format!("roll up {cells} cells from a materialized finer cuboid"),
            });
        }
        let mut chosen = 0;
        let mut best = f64::INFINITY;
        for (i, p) in plans.iter().enumerate() {
            if p.cost.total_nanos < best {
                best = p.cost.total_nanos;
                chosen = i;
            }
        }
        (chosen, plans)
    }

    /// Gathers reuse candidates for `target` from `candidates` (most
    /// recently executed first): the [`reuse_safe`] ones whose cuboid
    /// `lookup` can actually produce, deduplicated by fingerprint and
    /// capped at [`MAX_REUSE_CANDIDATES`].
    pub fn reuse_candidates(
        target: &SCuboidSpec,
        candidates: impl Iterator<Item = SCuboidSpec>,
        mut lookup: impl FnMut(&SCuboidSpec) -> Option<usize>,
    ) -> Vec<(SCuboidSpec, usize)> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for c in candidates {
            if out.len() >= MAX_REUSE_CANDIDATES {
                break;
            }
            if !seen.insert(c.fingerprint()) || !reuse_safe(target, &c) {
                continue;
            }
            if let Some(cells) = lookup(&c) {
                out.push((c, cells));
            }
        }
        out
    }

    /// Recommends which generic indices to precompute for the workload in
    /// `ctx`, within its byte budget.
    pub fn advise(ctx: &PlanContext<'_>) -> Result<Advice> {
        let total_seqs = ctx.groups.total_sequences as f64;
        let mut candidates = Vec::new();
        for (attr, level, kind, m) in candidates_for(ctx.workload, 6) {
            let estimated_bytes =
                estimate_bytes(ctx.db, ctx.groups, attr, level, kind, m, ctx.sample)?;
            // Benefit: every query on this lane with template length ≥ m
            // avoids the full base-build scan (D sequences) on its first
            // run, and deeper prefixes save join/verify rungs —
            // approximated as one D-scan per rung covered.
            let mut benefit = 0.0;
            for q in ctx.workload {
                let t = &q.spec.template;
                let on_lane =
                    t.dims.iter().any(|d| d.attr == attr && d.level == level) && t.kind == kind;
                if on_lane && t.m() >= m {
                    benefit += q.frequency * total_seqs * (m - 1) as f64;
                }
            }
            candidates.push(Candidate {
                attr,
                level,
                m,
                kind,
                estimated_bytes,
                benefit,
            });
        }
        // Greedy by marginal benefit per byte. A longer index on the same
        // lane subsumes the shorter ones' benefit, so after picking one,
        // re-derive marginal benefits: shorter prefixes on the lane become
        // redundant for the queries the pick covers; longer ones only add
        // their extra rungs.
        let mut advice = Advice::default();
        let mut remaining = candidates;
        let mut picked_per_lane: HashMap<(AttrId, usize, PatternKind), usize> = HashMap::new();
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in remaining.iter().enumerate() {
                let lane = (c.attr, c.level, c.kind);
                let covered = picked_per_lane.get(&lane).copied().unwrap_or(1);
                if c.m <= covered {
                    continue; // subsumed
                }
                let marginal = c.benefit * ((c.m - covered) as f64 / (c.m - 1) as f64);
                if c.estimated_bytes + advice.total_bytes > ctx.byte_budget {
                    continue;
                }
                let score = marginal / (c.estimated_bytes.max(1) as f64);
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((i, score));
                }
            }
            let Some((i, _)) = best else { break };
            let c = remaining.remove(i);
            picked_per_lane.insert((c.attr, c.level, c.kind), c.m);
            advice.total_bytes += c.estimated_bytes;
            advice.chosen.push(c);
        }
        advice.rejected = remaining;
        Ok(advice)
    }
}

/// Everything [`Planner::advise`] consumes, in one place: adding a future
/// input (e.g. observed per-lane hit rates) extends this struct instead of
/// growing a free function's arity.
#[derive(Clone, Copy)]
pub struct PlanContext<'a> {
    /// The event database.
    pub db: &'a EventDb,
    /// Prebuilt sequence groups of the workload's (shared) sequence spec.
    pub groups: &'a SequenceGroups,
    /// The representative workload with frequencies.
    pub workload: &'a [WorkloadQuery],
    /// Byte budget for materialized indices.
    pub byte_budget: usize,
    /// Sequences to sample for size estimation.
    pub sample: usize,
}

/// A candidate generic index.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The attribute the index keys on.
    pub attr: AttrId,
    /// The abstraction level.
    pub level: usize,
    /// Pattern length `m`.
    pub m: usize,
    /// Substring or subsequence.
    pub kind: PatternKind,
    /// Estimated bytes (from the sample build, scaled).
    pub estimated_bytes: usize,
    /// Estimated benefit (frequency-weighted sequences-scanned saved).
    pub benefit: f64,
}

/// The advisor's output: chosen candidates, in pick order.
#[derive(Debug, Clone, Default)]
pub struct Advice {
    /// The picks, highest benefit-per-byte first.
    pub chosen: Vec<Candidate>,
    /// Candidates considered but not chosen.
    pub rejected: Vec<Candidate>,
    /// Total estimated bytes of the chosen set.
    pub total_bytes: usize,
}

/// Workload entry: a query and how often it is expected to run.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// The query.
    pub spec: SCuboidSpec,
    /// Relative frequency (weight).
    pub frequency: f64,
}

/// Builds candidate generic indices for a workload: for every `(attr,
/// level, kind)` lane used by some query template, lengths `2..=max_m`
/// (capped by the longest template on that lane).
fn candidates_for(
    workload: &[WorkloadQuery],
    max_m: usize,
) -> Vec<(AttrId, usize, PatternKind, usize)> {
    let mut lanes: HashMap<(AttrId, usize, PatternKind), usize> = HashMap::new();
    for q in workload {
        let t = &q.spec.template;
        for d in &t.dims {
            let e = lanes.entry((d.attr, d.level, t.kind)).or_insert(0);
            *e = (*e).max(t.m());
        }
    }
    let mut out = Vec::new();
    for ((attr, level, kind), longest) in lanes {
        for m in 2..=longest.min(max_m) {
            out.push((attr, level, kind, m));
        }
    }
    out.sort_by_key(|&(a, l, k, m)| (a, l, k == PatternKind::Subsequence, m));
    out
}

/// Estimates a candidate's size by building it over a sample of sequences
/// and scaling linearly (list entries grow linearly with sequence count;
/// the key space saturates, so linear scaling is a safe over-estimate).
#[allow(clippy::too_many_arguments)]
fn estimate_bytes(
    db: &EventDb,
    groups: &SequenceGroups,
    attr: AttrId,
    level: usize,
    kind: PatternKind,
    m: usize,
    sample: usize,
) -> Result<usize> {
    let names: Vec<String> = (0..m).map(|i| format!("P{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let bindings: Vec<(&str, AttrId, usize)> =
        name_refs.iter().map(|&n| (n, attr, level)).collect();
    let template = PatternTemplate::new(kind, &name_refs, &bindings)?;
    let total = groups.total_sequences.max(1);
    let take = sample.min(total);
    let seqs = groups.iter_sequences().take(take);
    let (index, _) = build_index(db, seqs, &template)?;
    Ok(index.heap_bytes() * total / take.max(1))
}

/// Materializes the advice into an engine's index store; returns the bytes
/// actually built.
pub fn apply_advice(
    engine: &crate::engine::Engine,
    workload: &[WorkloadQuery],
    advice: &Advice,
) -> Result<usize> {
    let mut built = 0;
    for c in &advice.chosen {
        // Precompute against every distinct sequence-group spec in the
        // workload that uses this lane.
        let mut done = std::collections::HashSet::new();
        for q in workload {
            let uses = q
                .spec
                .template
                .dims
                .iter()
                .any(|d| d.attr == c.attr && d.level == c.level);
            if uses && done.insert(q.spec.seq.fingerprint()) {
                built += engine.precompute_index(&q.spec, c.attr, c.level, c.m)?;
            }
        }
    }
    Ok(built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{AttrLevel, ColumnType, EventDbBuilder, SortKey, Value};
    use solap_pattern::PatternTemplate;

    fn db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("sid", ColumnType::Int)
            .dimension("location", ColumnType::Str)
            .build()
            .unwrap();
        for (sid, st) in [
            (0, "Pentagon"),
            (0, "Wheaton"),
            (1, "Clarendon"),
            (1, "Glenmont"),
        ] {
            db.push_row(&[Value::Int(sid), Value::from(st)]).unwrap();
        }
        db.set_base_level_name(1, "station");
        db.attach_str_level(1, "district", |s| {
            if s == "Pentagon" || s == "Clarendon" {
                "D10".into()
            } else {
                "D20".into()
            }
        })
        .unwrap();
        db
    }

    fn spec(syms: &[&str], levels: &[usize], kind: PatternKind) -> SCuboidSpec {
        let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
        for (i, &s) in syms.iter().enumerate() {
            if !bindings.iter().any(|(n, _, _)| *n == s) {
                bindings.push((s, 1, levels[i]));
            }
        }
        let t = PatternTemplate::new(kind, syms, &bindings).unwrap();
        SCuboidSpec::new(
            t,
            vec![AttrLevel::new(0, 0)],
            vec![SortKey {
                attr: 0,
                ascending: true,
            }],
        )
    }

    fn inputs<'a>(s: &'a SCuboidSpec, events: u64, sequences: u64) -> PlanInputs<'a> {
        PlanInputs {
            spec: s,
            events,
            sequences: Some(sequences),
            base_index_cached: false,
            ancestors: Vec::new(),
        }
    }

    #[test]
    fn ladder_models_the_combinatorial_cliff() {
        assert_eq!(ladder(2, PatternKind::Substring), 1.0);
        assert_eq!(ladder(5, PatternKind::Substring), 4.0);
        assert_eq!(ladder(2, PatternKind::Subsequence), 4.0);
        assert_eq!(ladder(4, PatternKind::Subsequence), 64.0);
        assert!(ladder(40, PatternKind::Subsequence).is_finite());
    }

    #[test]
    fn seed_costs_pick_ii_unless_a_subsequence_is_long() {
        let model = CostModel::seeded();
        let planner = Planner::new(&model);
        // Indexable substring: II wins cold (fig-8 shape, E=16, D=4).
        let s = spec(&["X", "Y"], &[0, 0], PatternKind::Substring);
        let (chosen, plans) = planner.plan(&inputs(&s, 16, 4));
        assert_eq!(plans[chosen].label(), "II");
        // Short subsequences still index.
        let s = spec(&["A", "B", "C"], &[0; 3], PatternKind::Subsequence);
        let (chosen, plans) = planner.plan(&inputs(&s, 16, 4));
        assert_eq!(plans[chosen].label(), "II");
        // m > 3 subsequences fall back to counters, even with cached base
        // lists (the join ladder alone is combinatorial).
        let s = spec(&["A", "B", "C", "D"], &[0; 4], PatternKind::Subsequence);
        let (chosen, plans) = planner.plan(&inputs(&s, 16, 4));
        assert_eq!(plans[chosen].label(), "CB");
        let mut cached = inputs(&s, 16, 4);
        cached.base_index_cached = true;
        let (chosen, plans) = planner.plan(&cached);
        assert_eq!(plans[chosen].label(), "CB");
    }

    #[test]
    fn cheap_ancestor_reuse_wins() {
        let model = CostModel::seeded();
        let planner = Planner::new(&model);
        let s = spec(&["X", "Y"], &[1, 1], PatternKind::Substring);
        let source = spec(&["X", "Y"], &[0, 0], PatternKind::Substring);
        let mut i = inputs(&s, 100_000, 25_000);
        i.ancestors = vec![(source, 10)];
        let (chosen, plans) = planner.plan(&i);
        assert_eq!(plans.len(), 3);
        assert_eq!(plans[chosen].label(), "reuse");
        assert!(plans[chosen].cost.total_nanos < plans[0].cost.total_nanos);
        assert!(plans[chosen].cost.total_nanos < plans[1].cost.total_nanos);
    }

    #[test]
    fn ewma_calibration_moves_units() {
        let model = CostModel::seeded();
        let before = model.units()[0].1;
        // Observe a much slower CB scan than seeded: 1µs per event.
        model.observe_cb(1_000_000, 1_000);
        let after = model.units()[0].1;
        assert!(after > before, "{before} -> {after}");
        // Blend is bounded by the sample.
        assert!(after < 1_000.0);
        // Degenerate observations are ignored.
        model.observe_ii_join(1_000, 0);
        model.observe_reuse(0, 10);
        assert_eq!(model.units()[3].1, SEED_REUSE_MERGE_NS);
    }

    #[test]
    fn persistence_roundtrips_and_tolerates_garbage() {
        let dir = std::env::temp_dir().join(format!("solap-plan-model-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cost_model.tsv");
        let model = CostModel::seeded();
        model.observe_cb(1_000_000, 1_000);
        model.save_to(&path).unwrap();
        let loaded = CostModel::load_from(&path);
        assert_eq!(loaded.units(), model.units());
        // Garbage lines and bad values fall back to seeds.
        std::fs::write(
            &path,
            "cb_scan_ns nan\nii_build_ns -4\nwhat\nii_join_ns 2.5\n",
        )
        .unwrap();
        let partial = CostModel::load_from(&path);
        assert_eq!(partial.units()[0].1, SEED_CB_SCAN_NS);
        assert_eq!(partial.units()[1].1, SEED_II_BUILD_NS);
        assert_eq!(partial.units()[2].1, 2.5);
        // Absent file: pure seeds.
        let absent = CostModel::load_from(&dir.join("nope.tsv"));
        assert_eq!(absent.units()[0].1, SEED_CB_SCAN_NS);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reuse_safe_accepts_global_rollup_and_rejects_unsound_merges() {
        let fine = spec(&["X", "Y"], &[0, 0], PatternKind::Substring)
            .with_group_by(vec![AttrLevel::new(1, 0)]);
        // Global roll-up: safe under the default LEFT-MAXIMALITY.
        let mut coarse = fine.clone();
        coarse.seq.group_by = vec![AttrLevel::new(1, 1)];
        assert!(reuse_safe(&coarse, &fine));
        // Global-dimension removal: safe.
        let mut dropped = fine.clone();
        dropped.seq.group_by.clear();
        assert!(reuse_safe(&dropped, &fine));
        // Identity is not a reuse.
        assert!(!reuse_safe(&fine, &fine));
        // The finer spec cannot be derived from the coarser one.
        assert!(!reuse_safe(&fine, &coarse));
        // Pattern roll-up needs ALL-MATCHED (left-maximality counts per
        // (sequence, cell), so cell merges would double-count).
        let mut proll = fine.clone();
        proll.template.dims[0].level = 1;
        proll.template.dims[1].level = 1;
        assert!(!reuse_safe(&proll, &fine));
        let all_fine = fine.clone().with_restriction(CellRestriction::AllMatchedGo);
        let all_proll = proll
            .clone()
            .with_restriction(CellRestriction::AllMatchedGo);
        assert!(reuse_safe(&all_proll, &all_fine));
        // Repeated symbols must not coarsen: equality constraints differ.
        let rep_fine = spec(&["X", "Y", "X"], &[0, 0, 0], PatternKind::Substring)
            .with_restriction(CellRestriction::AllMatchedGo);
        let mut rep_coarse = rep_fine.clone();
        rep_coarse.template.dims[0].level = 1;
        assert!(!reuse_safe(&rep_coarse, &rep_fine));
        // Shorter windows must re-match.
        let short =
            spec(&["X"], &[0], PatternKind::Substring).with_group_by(vec![AttrLevel::new(1, 0)]);
        assert!(!reuse_safe(&short, &fine));
        // Iceberg thresholds filtered the source; AVG is not merge-closed.
        let mut iceberg = coarse.clone();
        iceberg.min_support = Some(2);
        assert!(!reuse_safe(&iceberg, &fine));
        let mut avg = coarse.clone();
        avg.agg = AggFunc::Avg(1, solap_pattern::SumMode::AllEvents);
        assert!(!reuse_safe(&avg, &fine));
    }

    #[test]
    fn roll_up_cuboid_merges_global_dimension() {
        let db = db();
        let fine = spec(&["X", "Y"], &[0, 0], PatternKind::Substring)
            .with_group_by(vec![AttrLevel::new(1, 0)]);
        let mut coarse = fine.clone();
        coarse.seq.group_by = vec![AttrLevel::new(1, 1)];
        assert!(reuse_safe(&coarse, &fine));
        let pentagon = db.parse_level_value(1, 0, "Pentagon").unwrap();
        let clarendon = db.parse_level_value(1, 0, "Clarendon").unwrap();
        let wheaton = db.parse_level_value(1, 0, "Wheaton").unwrap();
        let mut source = SCuboid::new(
            fine.seq.group_by.clone(),
            fine.template.dims.clone(),
            AggFunc::Count,
        );
        let key = |g: u64, p: &[u64]| CellKey {
            global: vec![g],
            pattern: p.to_vec(),
        };
        // Pentagon and Clarendon are both D10: their groups merge.
        source
            .cells
            .insert(key(pentagon, &[pentagon, wheaton]), AggValue::Count(2));
        source
            .cells
            .insert(key(clarendon, &[pentagon, wheaton]), AggValue::Count(3));
        source
            .cells
            .insert(key(wheaton, &[wheaton, pentagon]), AggValue::Count(5));
        let gov = QueryGovernor::new(None, None, None);
        let (rolled, merged) = roll_up_cuboid(&db, &fine, &source, &coarse, &gov).unwrap();
        assert_eq!(merged, 3);
        assert_eq!(rolled.len(), 2);
        let d10 = db.parse_level_value(1, 1, "D10").unwrap();
        let d20 = db.parse_level_value(1, 1, "D20").unwrap();
        assert_eq!(
            rolled.get(&[d10], &[pentagon, wheaton]),
            Some(&AggValue::Count(5))
        );
        assert_eq!(
            rolled.get(&[d20], &[wheaton, pentagon]),
            Some(&AggValue::Count(5))
        );
        assert_eq!(gov.events_ticked(), 3);
        assert_eq!(gov.cells_consumed(), 2);
    }

    #[test]
    fn roll_up_cuboid_maps_pattern_dimensions() {
        let db = db();
        let fine = spec(&["X", "Y"], &[0, 0], PatternKind::Substring)
            .with_restriction(CellRestriction::AllMatchedGo);
        let mut coarse = fine.clone();
        coarse.template.dims[0].level = 1;
        coarse.template.dims[1].level = 1;
        assert!(reuse_safe(&coarse, &fine));
        let pentagon = db.parse_level_value(1, 0, "Pentagon").unwrap();
        let clarendon = db.parse_level_value(1, 0, "Clarendon").unwrap();
        let wheaton = db.parse_level_value(1, 0, "Wheaton").unwrap();
        let mut source = SCuboid::new(vec![], fine.template.dims.clone(), AggFunc::Count);
        let key = |p: &[u64]| CellKey {
            global: vec![],
            pattern: p.to_vec(),
        };
        source
            .cells
            .insert(key(&[pentagon, wheaton]), AggValue::Count(1));
        source
            .cells
            .insert(key(&[clarendon, wheaton]), AggValue::Count(4));
        let gov = QueryGovernor::new(None, None, None);
        let (rolled, merged) = roll_up_cuboid(&db, &fine, &source, &coarse, &gov).unwrap();
        assert_eq!(merged, 2);
        let d10 = db.parse_level_value(1, 1, "D10").unwrap();
        let d20 = db.parse_level_value(1, 1, "D20").unwrap();
        assert_eq!(rolled.len(), 1);
        assert_eq!(rolled.get(&[], &[d10, d20]), Some(&AggValue::Count(5)));
    }

    #[test]
    fn roll_up_respects_the_cell_budget() {
        let db = db();
        let fine = spec(&["X", "Y"], &[0, 0], PatternKind::Substring);
        let mut coarse = fine.clone();
        coarse.seq.group_by.clear();
        let pentagon = db.parse_level_value(1, 0, "Pentagon").unwrap();
        let wheaton = db.parse_level_value(1, 0, "Wheaton").unwrap();
        let mut source = SCuboid::new(vec![], fine.template.dims.clone(), AggFunc::Count);
        source.cells.insert(
            CellKey {
                global: vec![],
                pattern: vec![pentagon, wheaton],
            },
            AggValue::Count(1),
        );
        source.cells.insert(
            CellKey {
                global: vec![],
                pattern: vec![wheaton, pentagon],
            },
            AggValue::Count(1),
        );
        let gov = QueryGovernor::new(None, Some(1), None);
        let err = roll_up_cuboid(&db, &fine, &source, &coarse, &gov).unwrap_err();
        assert_eq!(err.code(), "resource_exhausted");
    }

    #[test]
    fn reuse_candidates_dedupe_filter_and_cap() {
        let fine = spec(&["X", "Y"], &[0, 0], PatternKind::Substring)
            .with_group_by(vec![AttrLevel::new(1, 0)]);
        let mut coarse = fine.clone();
        coarse.seq.group_by = vec![AttrLevel::new(1, 1)];
        let unrelated = spec(&["X", "Y", "Z"], &[0, 0, 0], PatternKind::Substring);
        let pool = vec![fine.clone(), fine.clone(), unrelated, coarse.clone()];
        let picked = Planner::reuse_candidates(&coarse, pool.into_iter(), |s| {
            (s.fingerprint() == fine.fingerprint()).then_some(7)
        });
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].0.fingerprint(), fine.fingerprint());
        assert_eq!(picked[0].1, 7);
    }

    /// `d` sequences of up to `2l` symbols drawn from `i`, under a
    /// symbol → group hierarchy: big enough for the advisor's sampling.
    fn synthetic(i: usize, l: usize, d: usize) -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("seq-id", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("symbol", ColumnType::Str)
            .build()
            .unwrap();
        let mut state = 123456789u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for sid in 0..d {
            for pos in 0..1 + rand() % (2 * l) {
                let sym = rand() % i;
                db.push_row(&[
                    Value::Int(sid as i64),
                    Value::Int(pos as i64),
                    Value::Str(format!("s{sym:02}")),
                ])
                .unwrap();
            }
        }
        db.set_base_level_name(2, "symbol");
        db.attach_str_level(2, "group", |name| format!("g{}", &name[1..2]))
            .unwrap();
        db
    }

    /// A substring query over `syms` on the symbol lane at `level`.
    fn lane_query(syms: &[&str], level: usize, frequency: f64) -> WorkloadQuery {
        let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
        for &s in syms {
            if !bindings.iter().any(|(n, _, _)| *n == s) {
                bindings.push((s, 2, level));
            }
        }
        let t = PatternTemplate::new(PatternKind::Substring, syms, &bindings).unwrap();
        WorkloadQuery {
            spec: SCuboidSpec::new(
                t,
                vec![AttrLevel::new(0, 0)],
                vec![SortKey {
                    attr: 1,
                    ascending: true,
                }],
            ),
            frequency,
        }
    }

    fn advise(db: &EventDb, workload: &[WorkloadQuery], byte_budget: usize) -> Advice {
        let groups = solap_eventdb::build_sequence_groups(db, &workload[0].spec.seq).unwrap();
        Planner::advise(&PlanContext {
            db,
            groups: &groups,
            workload,
            byte_budget,
            sample: 50,
        })
        .unwrap()
    }

    #[test]
    fn advise_respects_the_budget_and_covers_the_hot_lane() {
        let db = synthetic(40, 10, 400);
        let workload = vec![
            lane_query(&["X", "Y"], 0, 10.0),
            lane_query(&["X", "Y", "Z"], 0, 2.0),
            lane_query(&["X", "Y"], 1, 1.0),
        ];
        let advice = advise(&db, &workload, 64 << 20);
        assert!(!advice.chosen.is_empty());
        assert!(advice.total_bytes <= 64 << 20);
        assert_eq!(
            advice.total_bytes,
            advice
                .chosen
                .iter()
                .map(|c| c.estimated_bytes)
                .sum::<usize>()
        );
        assert!(
            advice.chosen.iter().any(|c| c.level == 0 && c.m >= 2),
            "{advice:?}"
        );
        for c in advice.chosen.iter().chain(&advice.rejected) {
            assert!(c.estimated_bytes > 0);
        }
    }

    #[test]
    fn advise_with_a_zero_budget_picks_nothing() {
        let db = synthetic(40, 10, 400);
        let workload = vec![lane_query(&["X", "Y"], 0, 1.0)];
        let advice = advise(&db, &workload, 0);
        assert!(advice.chosen.is_empty());
        assert!(!advice.rejected.is_empty());
        assert_eq!(advice.total_bytes, 0);
    }

    /// A larger budget covers every lane a smaller one covers, at least as
    /// deep — it never gives up an index the smaller budget could afford.
    #[test]
    fn a_larger_budget_covers_a_superset() {
        let db = synthetic(40, 10, 400);
        let workload = vec![
            lane_query(&["X", "Y", "Z"], 0, 1.0),
            lane_query(&["X", "Y"], 1, 1.0),
        ];
        let coverage = |advice: &Advice| {
            let mut deepest: HashMap<(AttrId, usize), usize> = HashMap::new();
            for c in &advice.chosen {
                let m = deepest.entry((c.attr, c.level)).or_insert(0);
                *m = (*m).max(c.m);
            }
            deepest
        };
        let generous = advise(&db, &workload, usize::MAX);
        let mut sizes: Vec<usize> = generous
            .chosen
            .iter()
            .chain(&generous.rejected)
            .map(|c| c.estimated_bytes)
            .collect();
        sizes.sort_unstable();
        let mut previous = coverage(&advise(&db, &workload, 0));
        for budget in sizes.into_iter().chain([usize::MAX]) {
            let advice = advise(&db, &workload, budget);
            assert!(advice.total_bytes <= budget);
            let now = coverage(&advice);
            for (lane, m) in &previous {
                assert!(
                    now.get(lane).is_some_and(|n| n >= m),
                    "budget {budget} dropped {lane:?} (m = {m}): {advice:?}"
                );
            }
            previous = now;
        }
        assert!(!previous.is_empty());
    }

    #[test]
    fn applied_advice_makes_the_first_query_hit_the_store() {
        let workload = vec![lane_query(&["X", "Y"], 0, 1.0)];
        let engine = crate::engine::Engine::new(synthetic(40, 10, 400));
        let groups = engine.sequence_groups(&workload[0].spec).unwrap();
        let advice = Planner::advise(&PlanContext {
            db: &engine.db(),
            groups: &groups,
            workload: &workload,
            byte_budget: usize::MAX,
            sample: 50,
        })
        .unwrap();
        assert!(apply_advice(&engine, &workload, &advice).unwrap() > 0);
        let (hits, _) = engine.index_store().stats();
        let out = engine.execute(&workload[0].spec).unwrap();
        assert_eq!(out.stats.indices_built, 0, "precomputed index serves it");
        assert_eq!(out.stats.sequences_scanned, 0);
        assert!(engine.index_store().stats().0 > hits);
    }
}
