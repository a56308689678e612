//! The §6 online-aggregation extension: report "what the system knows so
//! far" while a COUNT query is still running, refining the estimate as more
//! sequences are scanned — "rather than presenting the exact number of
//! round-trip passengers … approximate numbers like 200,000 … would be
//! informative enough".
//!
//! Run with: `cargo run --release --example online_aggregation`

use s_olap::core::online::{mean_relative_error, online_count};
use s_olap::prelude::*;

fn main() {
    let db = s_olap::datagen::generate_synthetic(&s_olap::datagen::SyntheticConfig {
        i: 100,
        l: 20.0,
        theta: 0.9,
        d: 20_000,
        seed: 7,
        hierarchy: false,
    })
    .expect("valid config");
    let engine = Engine::new(db);

    let spec = s_olap::query::parse_query(
        &engine.db(),
        r#"
        SELECT COUNT(*) FROM Event
        CLUSTER BY seq-id AT raw
        SEQUENCE BY pos ASCENDING
        CUBOID BY SUBSTRING (X, Y)
          WITH X AS symbol AT symbol, Y AS symbol AT symbol
          LEFT-MAXIMALITY (x1, y1)
        "#,
    )
    .expect("query parses");

    let groups = engine.sequence_groups(&spec).expect("groups build");
    // First compute the exact answer so each snapshot's error is reportable.
    let exact = engine.execute(&spec).expect("exact query runs");
    println!(
        "exact cuboid: {} cells, total count {}\n",
        exact.cuboid.len(),
        exact.cuboid.total_count()
    );

    println!(
        "{:>9} | {:>10} | {:>12} | top cell estimate",
        "progress", "cells", "mean rel err"
    );
    let final_cuboid = online_count(&engine.db(), &groups, &spec, 2_000, |snap| {
        let err = mean_relative_error(&snap.estimate, &exact.cuboid);
        let top = snap.estimate.top_k(1);
        let top_desc = top
            .first()
            .map(|(k, v)| format!("{} ≈ {}", snap.estimate.render_key(&engine.db(), k), v))
            .unwrap_or_default();
        println!(
            "{:>8.0}% | {:>10} | {:>12.4} | {}",
            snap.progress * 100.0,
            snap.estimate.len(),
            err,
            top_desc
        );
    })
    .expect("online aggregation runs");

    assert_eq!(final_cuboid.cells(), exact.cuboid.cells());
    println!(
        "\nfinal online result is exact: {} cells",
        final_cuboid.len()
    );
}
