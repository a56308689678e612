//! The paper's future-work items, working: regular-expression pattern
//! templates (§3.2), the index-materialization advisor (§4.2.2), and
//! warehouse persistence.
//!
//! Run with: `cargo run --release --example future_work`

use s_olap::core::plan::{apply_advice, PlanContext, Planner, WorkloadQuery};
use s_olap::pattern::{RegexElem, RegexTemplate};
use s_olap::prelude::*;

fn main() {
    let db = s_olap::datagen::generate_transit(&s_olap::datagen::TransitConfig {
        passengers: 800,
        days: 7,
        extra_trips: 1.0,
        ..Default::default()
    })
    .expect("valid config");
    let location = db.attr("location").unwrap();

    // ------------------------------------------------------------------
    // 1. Regex templates: round trips *with layovers* — (X, Y, .*, Y, X) —
    //    which neither SUBSTRING (too rigid) nor SUBSEQUENCE (too loose
    //    about the outer legs) can express.
    // ------------------------------------------------------------------
    let engine = Engine::new(db);
    let base = s_olap::query::parse_query(
        &engine.db(),
        r#"
        SELECT COUNT(*) FROM Event
        CLUSTER BY card-id AT individual, time AT day
        SEQUENCE BY time ASCENDING
        CUBOID BY SUBSTRING (X, Y)
          WITH X AS location AT station, Y AS location AT station
          LEFT-MAXIMALITY (x1, y1)
        "#,
    )
    .expect("parses");
    let dim = |name: &str| s_olap::pattern::PatternDim {
        name: name.into(),
        attr: location,
        level: 0,
    };
    let layover_roundtrip = RegexTemplate::new(
        vec![dim("X"), dim("Y")],
        vec![
            RegexElem::One(0),
            RegexElem::One(1),
            RegexElem::Gap,
            RegexElem::One(1),
            RegexElem::One(0),
        ],
    )
    .expect("valid regex");
    let cuboid = engine
        .execute_regex_configured(
            &base.seq,
            &layover_roundtrip,
            CellRestriction::LeftMaximalityMatchedGo,
            engine.config(),
        )
        .expect("regex query runs")
        .cuboid;
    println!(
        "regex {} — {} cells, total {} layover round trips (top 5):",
        layover_roundtrip.render(),
        cuboid.len(),
        cuboid.total_count()
    );
    println!("{}", cuboid.tabulate(&engine.db(), 5, true));

    // ------------------------------------------------------------------
    // 2. The advisor: given a workload, pick indices within a budget.
    // ------------------------------------------------------------------
    let mut q3 = base.clone();
    q3.template = PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y", "Z"],
        &[("X", location, 0), ("Y", location, 0), ("Z", location, 0)],
    )
    .unwrap();
    let workload = vec![
        WorkloadQuery {
            spec: base.clone(),
            frequency: 20.0,
        },
        WorkloadQuery {
            spec: q3,
            frequency: 3.0,
        },
    ];
    let guard = engine.db();
    let groups = s_olap::eventdb::build_sequence_groups(&guard, &base.seq).expect("groups");
    let advice = Planner::advise(&PlanContext {
        db: &guard,
        groups: &groups,
        workload: &workload,
        byte_budget: 8 << 20,
        sample: 200,
    })
    .expect("advice");
    drop(guard);
    println!("advisor picks (budget 8 MiB):");
    for c in &advice.chosen {
        println!(
            "  L{} over attr #{} level {} ({:?}) ≈ {:.2} MB, benefit {:.0}",
            c.m,
            c.attr,
            c.level,
            c.kind,
            c.estimated_bytes as f64 / 1e6,
            c.benefit
        );
    }
    let built = apply_advice(&engine, &workload, &advice).expect("materialize");
    println!("materialized {:.2} MB of indices", built as f64 / 1e6);
    let out = engine.execute(&base).expect("query");
    println!(
        "first workload query after advice: {} indices built, {} sequences scanned\n",
        out.stats.indices_built, out.stats.sequences_scanned
    );

    // ------------------------------------------------------------------
    // 3. Persistence: save the warehouse, load it back, same answers.
    // ------------------------------------------------------------------
    let path = std::env::temp_dir().join("solap-future-work.db");
    s_olap::eventdb::persist::save_to_path(&engine.db(), &path).expect("save");
    let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let reloaded = s_olap::eventdb::persist::load_from_path(&path).expect("load");
    std::fs::remove_file(&path).ok();
    let engine2 = Engine::new(reloaded);
    let out2 = engine2.execute(&base).expect("query on reloaded db");
    assert_eq!(out.cuboid.len(), out2.cuboid.len());
    println!(
        "persistence: {} events → {:.2} MB on disk → reloaded, {} cells (identical)",
        engine2.db().len(),
        size as f64 / 1e6,
        out2.cuboid.len()
    );
}
