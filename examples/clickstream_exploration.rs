//! The §5.1 real-data exploration, reproduced on the clickstream
//! simulator: answer KDD-Cup-2000 Query 1 "in an OLAP data exploratory
//! way".
//!
//! * Qa — two-step page accesses at the page-category level; discover that
//!   (Assortment, Legwear) dominates.
//! * Qb — slice on that cell and P-DRILL-DOWN to raw pages to see *which*
//!   Legwear products are browsed.
//! * Qc — APPEND a third page to look for "comparison shopping".
//!
//! Run with: `cargo run --release --example clickstream_exploration`

use s_olap::prelude::*;

fn main() {
    let db = s_olap::datagen::generate_clickstream(&s_olap::datagen::ClickstreamConfig {
        sessions: 20_000,
        ..Default::default()
    })
    .expect("valid config");
    let engine = std::sync::Arc::new(Engine::new(db));

    // Qa: SUBSTRING (X, Y) at page-category (§5.1's first query).
    let qa = s_olap::query::parse_query(
        &engine.db(),
        r#"
        SELECT COUNT(*) FROM Event
        CLUSTER BY session-id AT raw
        SEQUENCE BY request-time ASCENDING
        CUBOID BY SUBSTRING (X, Y)
          WITH X AS page AT page-category, Y AS page AT page-category
          LEFT-MAXIMALITY (x1, y1)
        "#,
    )
    .expect("Qa parses");
    let mut session = Session::start(std::sync::Arc::clone(&engine), qa).expect("Qa runs");
    let qa_stats = session.history()[0].stats.clone();
    println!(
        "Qa — two-step category paths ({} cells, {} in {:?}, {} sequences scanned):",
        session.cuboid().expect("query ran").len(),
        qa_stats.strategy,
        qa_stats.elapsed,
        qa_stats.sequences_scanned
    );
    println!(
        "{}",
        session
            .cuboid()
            .expect("query ran")
            .tabulate(&engine.db(), 6, true)
    );

    // Slice on the hottest cell — in the paper, (Assortment, Legwear) with
    // count 2,201 — and P-DRILL-DOWN Y to raw pages (query Qb).
    let (x, y) = {
        let top = session.cuboid().expect("query ran").top_k(1);
        let (k, _) = top.first().expect("non-empty");
        (k.pattern[0], k.pattern[1])
    };
    println!(
        "hottest: {} — slicing and drilling Y down to raw pages\n",
        session.cuboid().expect("query ran").render_key(
            &engine.db(),
            &session.cuboid().expect("query ran").top_k(1)[0].0
        )
    );
    session
        .apply(Op::Dice {
            global: vec![],
            pattern: vec![("X".into(), x), ("Y".into(), y)],
        })
        .expect("slice runs");
    let out = session
        .apply(Op::PDrillDown { dim: "Y".into() })
        .expect("Qb runs");
    println!(
        "Qb — which products? ({} cells, {} in {:?}, {} sequences scanned):",
        out.cuboid.len(),
        out.stats.strategy,
        out.stats.elapsed,
        out.stats.sequences_scanned
    );
    println!(
        "{}",
        session
            .cuboid()
            .expect("query ran")
            .tabulate(&engine.db(), 6, true)
    );

    // Qc: APPEND one more raw page — comparison shopping.
    let page = engine.db().attr("page").expect("schema");
    let out = session
        .apply(Op::Append {
            symbol: "Z".into(),
            attr: page,
            level: 0,
        })
        .expect("Qc runs");
    println!(
        "Qc — comparison shopping ({} cells, {} in {:?}, {} sequences scanned):",
        out.cuboid.len(),
        out.stats.strategy,
        out.stats.elapsed,
        out.stats.sequences_scanned
    );
    println!(
        "{}",
        session
            .cuboid()
            .expect("query ran")
            .tabulate(&engine.db(), 6, true)
    );

    println!(
        "cuboid repository now holds {} cuboids ({:.1} KiB) — the paper's \
         three queries inserted 0.3 MB",
        engine.cuboid_repo().len(),
        engine.cuboid_repo().total_bytes() as f64 / 1024.0
    );
}
