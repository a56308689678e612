//! Property and metamorphic tests for the cost-based planner
//! (DESIGN.md §15).
//!
//! Soundness: whenever the planner answers a query by rolling up a
//! materialized ancestor, the reused pair must satisfy `spec_le` /
//! `reuse_safe` and the merged cuboid must be bit-identical to building
//! the target from scratch — across all five aggregate functions, both
//! fixed strategies and threads {1, 8}. `AVG` does not compose under
//! merge, so the planner must never reuse for it (and still be right).
//!
//! Metamorphic: on the paper's QuerySet A/B workloads the planner is a
//! pure optimizer — identical cells to fixed-CB and fixed-II runs — and
//! its chosen alternative always carries the minimum predicted cost.
//! (Wall-clock comparisons belong to the benchmark in `benchmark/`, not
//! here where timings would flake.)

use s_olap::core::lattice::spec_le;
use s_olap::core::plan::reuse_safe;
use s_olap::core::Op;
use s_olap::datagen::{generate_synthetic, SyntheticConfig};
use s_olap::prelude::*;
use solap_bench::plans::{query_set_a, query_set_b, synthetic_spec};
use solap_bench::runner::run_plan;

/// Synthetic data with the 3-level hierarchy, big enough that merging a
/// few hundred materialized cells is predictably cheaper than re-scanning
/// every event or re-building indices (DESIGN.md §15's cost formulas at
/// their seed constants).
fn hierarchy_db(d: usize, seed: u64) -> EventDb {
    generate_synthetic(&SyntheticConfig {
        i: 50,
        l: 10.0,
        theta: 0.9,
        d,
        seed,
        hierarchy: true,
    })
    .unwrap()
}

fn config(strategy: Strategy, threads: usize) -> EngineConfig {
    EngineConfig {
        strategy,
        threads,
        ..Default::default()
    }
}

#[test]
fn reused_ancestors_are_sound_across_aggregates_and_threads() {
    let data = hierarchy_db(1_500, 7);
    let pos = data.attr("pos").unwrap();
    let aggregates = [
        AggFunc::Count,
        AggFunc::Sum(pos, SumMode::AllEvents),
        AggFunc::Min(pos),
        AggFunc::Max(pos),
        AggFunc::Avg(pos, SumMode::AllEvents),
    ];
    for agg in aggregates {
        for threads in [1usize, 8] {
            let engine = Engine::with_config(data.clone(), config(Strategy::Auto, threads));
            // Pattern coarsening is only merge-safe under ALL-MATCHED GO
            // (the default LEFT-MAXIMALITY slices cells the merge cannot
            // reconstruct — DESIGN.md §15).
            let base = synthetic_spec(&engine.db(), PatternKind::Substring, &["X", "Y", "Z"], 1)
                .unwrap()
                .with_restriction(CellRestriction::AllMatchedGo)
                .with_agg(agg);
            engine.execute(&base).unwrap();
            let (coarse, out) = engine
                .execute_op(&base, &Op::PRollUp { dim: "Y".into() })
                .unwrap();
            // The lattice relation the reuse path depends on holds for
            // every aggregate; *safety* additionally excludes AVG.
            assert!(spec_le(&coarse, &base), "roll-up target must be ≤ source");
            let avg = matches!(agg, AggFunc::Avg(..));
            assert_eq!(
                reuse_safe(&coarse, &base),
                !avg,
                "AVG does not compose under merge ({agg:?})"
            );
            if avg {
                assert_ne!(
                    out.stats.strategy, "reuse",
                    "the planner must never merge an AVG cuboid"
                );
            } else {
                assert_eq!(out.stats.strategy, "reuse", "{agg:?} t={threads}");
                assert_eq!(out.stats.sequences_scanned, 0);
            }
            // Bit-identical to cold builds under both fixed strategies.
            for strategy in [Strategy::CounterBased, Strategy::InvertedIndex] {
                let cold = Engine::with_config(data.clone(), config(strategy, threads));
                let expect = cold.execute(&coarse).unwrap();
                assert_eq!(
                    out.cuboid.cells(),
                    expect.cuboid.cells(),
                    "{agg:?} t={threads} vs {strategy:?}"
                );
            }
        }
    }
}

#[test]
fn planner_is_a_pure_optimizer_on_query_sets_a_and_b() {
    let data = hierarchy_db(300, 17);
    let plans = [
        query_set_a(&data, PatternKind::Substring, 4).unwrap(),
        query_set_b(&data).unwrap(),
    ];
    for plan in &plans {
        let planner = run_plan(data.clone(), plan, config(Strategy::Auto, 1), "planner").unwrap();
        let cb = run_plan(data.clone(), plan, config(Strategy::CounterBased, 1), "CB").unwrap();
        let ii = run_plan(data.clone(), plan, config(Strategy::InvertedIndex, 1), "II").unwrap();
        for ((p, c), i) in planner.steps.iter().zip(&cb.steps).zip(&ii.steps) {
            let pc = p.cuboid.as_ref().unwrap();
            assert_eq!(
                pc.cells(),
                c.cuboid.as_ref().unwrap().cells(),
                "{} step {} vs CB",
                plan.name,
                p.label
            );
            assert_eq!(
                pc.cells(),
                i.cuboid.as_ref().unwrap().cells(),
                "{} step {} vs II",
                plan.name,
                p.label
            );
        }
    }
}

#[test]
fn chosen_alternative_has_minimum_predicted_cost() {
    let data = hierarchy_db(300, 23);
    let engine = Engine::with_config(data, config(Strategy::Auto, 1));
    let base = synthetic_spec(&engine.db(), PatternKind::Substring, &["X", "Y", "Z"], 1)
        .unwrap()
        .with_restriction(CellRestriction::AllMatchedGo);
    engine.execute(&base).unwrap();
    let coarse = {
        let db = engine.db();
        s_olap::core::ops::apply(&db, &base, &Op::PRollUp { dim: "Y".into() }).unwrap()
    };
    for spec in [&base, &coarse] {
        let report = engine.explain(spec).unwrap();
        assert_eq!(report.mode, "cost");
        let chosen = report.chosen().expect("a chosen alternative");
        for alt in &report.alternatives {
            assert!(
                chosen.cost.total_nanos <= alt.cost.total_nanos,
                "chosen `{}` predicted {} but `{}` predicted {}",
                chosen.label,
                chosen.cost.total_nanos,
                alt.label,
                alt.cost.total_nanos
            );
        }
    }
    // A fixed counter scan, which costs nothing, reaches the same cells.
    let fixed = Engine::with_config(hierarchy_db(300, 23), config(Strategy::CounterBased, 1));
    let a = fixed.execute(&base).unwrap();
    let b = engine.execute(&base).unwrap();
    assert_eq!(a.cuboid.cells(), b.cuboid.cells());
}
