//! Interprets experiment plans against an engine, collecting the metrics
//! the paper reports: per-query runtime, **number of sequences scanned**
//! and inverted-index bytes built (Table 1's columns, Figure 16's
//! annotations).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use solap_core::{ops, Engine, EngineConfig, Op, SCuboid, SCuboidSpec};
use solap_eventdb::{EventDb, LevelValue, QueryProfile, Result};

use crate::plans::{Plan, PreSlice, Step};

/// Metrics of one plan step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Step label (`QA1`, `Qb`, …).
    pub label: String,
    /// Wall-clock runtime of the timed query.
    pub runtime: Duration,
    /// Distinct sequences scanned by the timed query.
    pub scanned: u64,
    /// Non-empty cells of the resulting cuboid.
    pub cells: usize,
    /// Bytes of inverted indices built during the step.
    pub index_bytes: usize,
    /// Which engine path answered (`CB` / `II` / `cache`).
    pub strategy: &'static str,
    /// The step's per-stage profile (`None` for synthetic reports built
    /// without executing a query).
    pub profile: Option<QueryProfile>,
    /// The resulting cuboid (`None` for synthetic reports) — equivalence
    /// tests compare runs cell-for-cell, not just by count.
    pub cuboid: Option<Arc<SCuboid>>,
}

/// Metrics of a whole plan run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Plan name.
    pub name: String,
    /// Strategy label the run was configured with.
    pub config: String,
    /// Per-step metrics in order.
    pub steps: Vec<StepReport>,
    /// Precompute time and bytes, if the plan precomputes an index.
    pub precompute: Option<(Duration, usize)>,
}

impl RunReport {
    /// Cumulative runtime after each step (Figure 16's y-axis).
    pub fn cumulative_runtime(&self) -> Vec<Duration> {
        let mut acc = Duration::ZERO;
        self.steps
            .iter()
            .map(|s| {
                acc += s.runtime;
                acc
            })
            .collect()
    }

    /// Cumulative sequences scanned after each step (Figure 16's bracketed
    /// annotations).
    pub fn cumulative_scanned(&self) -> Vec<u64> {
        let mut acc = 0;
        self.steps
            .iter()
            .map(|s| {
                acc += s.scanned;
                acc
            })
            .collect()
    }

    /// Total runtime.
    pub fn total_runtime(&self) -> Duration {
        self.steps.iter().map(|s| s.runtime).sum()
    }

    /// Total index bytes built across steps.
    pub fn total_index_bytes(&self) -> usize {
        self.steps.iter().map(|s| s.index_bytes).sum::<usize>()
            + self.precompute.map(|(_, b)| b).unwrap_or(0)
    }
}

/// Applies an untimed pre-slice to a spec using the current cuboid.
fn apply_pre(
    db: &EventDb,
    spec: &SCuboidSpec,
    cuboid: &SCuboid,
    pre: &PreSlice,
) -> Result<SCuboidSpec> {
    match pre {
        PreSlice::TopCellAllDims => {
            let top = cuboid.top_k(1);
            let Some((key, _)) = top.first() else {
                return Ok(spec.clone()); // empty cuboid: nothing to slice
            };
            let pattern: Vec<(String, LevelValue)> = spec
                .template
                .dims
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name.clone(), key.pattern[i]))
                .collect();
            ops::apply(
                db,
                spec,
                &Op::Dice {
                    global: vec![],
                    pattern,
                },
            )
        }
        PreSlice::TopSubcube { dim } => {
            let d = spec
                .template
                .dims
                .iter()
                .position(|x| x.name == *dim)
                .expect("plan names an existing dimension");
            // Total count per value of the dimension.
            let mut totals: HashMap<LevelValue, f64> = HashMap::new();
            for (k, v) in cuboid.cells().iter() {
                *totals.entry(k.pattern[d]).or_default() += v.as_f64();
            }
            let Some((&best, _)) = totals
                .iter()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN totals"))
            else {
                return Ok(spec.clone());
            };
            ops::apply(
                db,
                spec,
                &Op::SlicePattern {
                    dim: dim.clone(),
                    value: best,
                },
            )
        }
    }
}

/// Runs a plan on a fresh engine over `db` with `config`, returning the
/// metrics. The database is moved in so each strategy gets identical data
/// (clone it at the call site).
pub fn run_plan(db: EventDb, plan: &Plan, config: EngineConfig, label: &str) -> Result<RunReport> {
    let strategy = config.strategy;
    let engine = Engine::builder(db).config(config).build();
    let mut report = RunReport {
        name: plan.name.clone(),
        config: label.to_owned(),
        steps: Vec::new(),
        precompute: None,
    };
    let mut current: Option<(SCuboidSpec, Arc<SCuboid>)> = None;
    let mut snapshots: Vec<(SCuboidSpec, Arc<SCuboid>)> = Vec::new();
    for step in &plan.steps {
        match step {
            Step::Query { label, spec } => {
                if let (Some((attr, level, m)), true) =
                    (plan.precompute, report.precompute.is_none())
                {
                    // Offline precompute is charged separately (the paper
                    // reports "the precomputations took 0.43s …" apart from
                    // query times) and only applies to the II engine.
                    if matches!(
                        strategy,
                        solap_core::Strategy::InvertedIndex | solap_core::Strategy::Auto
                    ) {
                        let t0 = Instant::now();
                        let bytes = engine.precompute_index(spec, attr, level, m)?;
                        report.precompute = Some((t0.elapsed(), bytes));
                    }
                }
                let out = engine.execute(spec)?;
                report.steps.push(StepReport {
                    label: label.clone(),
                    runtime: out.stats.elapsed,
                    scanned: out.stats.sequences_scanned,
                    cells: out.cuboid.len(),
                    index_bytes: out.stats.index_bytes_built,
                    strategy: out.stats.strategy,
                    profile: Some(out.profile.clone()),
                    cuboid: Some(Arc::clone(&out.cuboid)),
                });
                current = Some((spec.clone(), Arc::clone(&out.cuboid)));
            }
            Step::Op { label, pre, op } => {
                let (mut spec, cuboid) = current.clone().expect("plan starts with a query");
                for p in pre {
                    spec = apply_pre(&engine.db(), &spec, &cuboid, p)?;
                }
                let (new_spec, out) = engine.execute_op(&spec, op)?;
                report.steps.push(StepReport {
                    label: label.clone(),
                    runtime: out.stats.elapsed,
                    scanned: out.stats.sequences_scanned,
                    cells: out.cuboid.len(),
                    index_bytes: out.stats.index_bytes_built,
                    strategy: out.stats.strategy,
                    profile: Some(out.profile.clone()),
                    cuboid: Some(Arc::clone(&out.cuboid)),
                });
                current = Some((new_spec, Arc::clone(&out.cuboid)));
            }
            Step::Reset { index } => {
                current = Some(snapshots[*index].clone());
            }
        }
        if let Some(c) = &current {
            snapshots.push(c.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans::{clickstream_plan, query_set_a, query_set_b, query_set_c};
    use solap_core::Strategy;
    use solap_datagen::{
        generate_clickstream, generate_synthetic, ClickstreamConfig, SyntheticConfig,
    };
    use solap_pattern::PatternKind;

    fn db(d: usize) -> EventDb {
        generate_synthetic(&SyntheticConfig {
            i: 30,
            l: 10.0,
            theta: 0.9,
            d,
            seed: 17,
            hierarchy: true,
        })
        .unwrap()
    }

    fn cfg(strategy: Strategy) -> EngineConfig {
        EngineConfig {
            strategy,
            ..Default::default()
        }
    }

    #[test]
    fn query_set_a_runs_and_cb_matches_ii() {
        let data = db(300);
        let plan = query_set_a(&data, PatternKind::Substring, 4).unwrap();
        let cb = run_plan(data.clone(), &plan, cfg(Strategy::CounterBased), "CB").unwrap();
        let ii = run_plan(data, &plan, cfg(Strategy::InvertedIndex), "II").unwrap();
        assert_eq!(cb.steps.len(), 4);
        assert_eq!(ii.steps.len(), 4);
        // Identical cell counts per step (the plans are data-derived the
        // same way on both engines).
        for (a, b) in cb.steps.iter().zip(&ii.steps) {
            assert_eq!(a.cells, b.cells, "step {}", a.label);
        }
        // CB rescans everything every query; II scans strictly less in
        // total thanks to the precomputed L2 + slicing.
        let cb_scans = cb.cumulative_scanned();
        let ii_scans = ii.cumulative_scanned();
        assert_eq!(cb_scans.last(), Some(&(300 * 4)));
        assert!(ii_scans.last().unwrap() < cb_scans.last().unwrap());
        assert!(ii.precompute.is_some());
        assert!(cb.precompute.is_none());
    }

    #[test]
    fn query_set_b_branches() {
        let data = db(300);
        let plan = query_set_b(&data).unwrap();
        let ii = run_plan(data.clone(), &plan, cfg(Strategy::InvertedIndex), "II").unwrap();
        assert_eq!(ii.steps.len(), 3, "Reset produces no report row");
        assert_eq!(ii.steps[2].label, "QB3");
        // QB3 is a P-ROLL-UP answered from the merged index without
        // touching the data.
        assert_eq!(ii.steps[2].scanned, 0);
        let cb = run_plan(data, &plan, cfg(Strategy::CounterBased), "CB").unwrap();
        for (a, b) in cb.steps.iter().zip(&ii.steps) {
            assert_eq!(a.cells, b.cells, "step {}", a.label);
        }
    }

    #[test]
    fn query_set_c_restricted_template() {
        let data = db(200);
        let plan = query_set_c(&data).unwrap();
        let ii = run_plan(data.clone(), &plan, cfg(Strategy::InvertedIndex), "II").unwrap();
        let cb = run_plan(data, &plan, cfg(Strategy::CounterBased), "CB").unwrap();
        for (a, b) in cb.steps.iter().zip(&ii.steps) {
            assert_eq!(a.cells, b.cells, "step {}", a.label);
        }
        // QC4's roll-up on a repeated-symbol template cannot merge: it must
        // re-touch data (unlike QB3 above).
        assert!(ii.steps[3].scanned > 0);
    }

    #[test]
    fn clickstream_plan_runs() {
        let data = generate_clickstream(&ClickstreamConfig {
            sessions: 1500,
            ..Default::default()
        })
        .unwrap();
        let plan = clickstream_plan(&data).unwrap();
        let ii = run_plan(data.clone(), &plan, cfg(Strategy::InvertedIndex), "II").unwrap();
        let cb = run_plan(data, &plan, cfg(Strategy::CounterBased), "CB").unwrap();
        assert_eq!(ii.steps.len(), 3);
        // Table 1's shape: CB scans the whole dataset every query; II's
        // follow-ups are selective.
        assert_eq!(cb.steps[0].scanned, cb.steps[1].scanned);
        assert!(ii.steps[1].scanned < cb.steps[1].scanned / 2);
        assert!(ii.steps[2].scanned < cb.steps[2].scanned / 2);
        for (a, b) in cb.steps.iter().zip(&ii.steps) {
            assert_eq!(a.cells, b.cells, "step {}", a.label);
        }
    }

    #[test]
    fn cumulative_metrics() {
        let data = db(100);
        let plan = query_set_a(&data, PatternKind::Substring, 3).unwrap();
        let r = run_plan(data, &plan, cfg(Strategy::CounterBased), "CB").unwrap();
        let cum = r.cumulative_runtime();
        assert_eq!(cum.len(), 3);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.total_runtime(), *cum.last().unwrap());
        assert!(r.total_index_bytes() == 0);
    }

    #[test]
    fn steps_carry_profiles() {
        let data = db(100);
        let plan = query_set_a(&data, PatternKind::Substring, 3).unwrap();
        let r = run_plan(data, &plan, cfg(Strategy::CounterBased), "CB").unwrap();
        for s in &r.steps {
            let p = s.profile.as_ref().expect("executed steps have profiles");
            assert_eq!(p.strategy, s.strategy, "step {}", s.label);
            assert_eq!(
                p.counter(solap_eventdb::Counter::CellsMaterialized),
                s.cells as u64,
                "step {}",
                s.label
            );
        }
    }
}
