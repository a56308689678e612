//! Golden tests pinning the EXPLAIN and PROFILE text for the paper's
//! worked example queries (Figure 3 / Figure 8 / Figure 12).
//!
//! Run with `SOLAP_BLESS=1` to (re)generate the files under
//! `tests/golden/` after an intentional format change.

use s_olap::prelude::*;

/// The Figure 8 station database (actions alternate in/out).
fn fig8() -> EventDb {
    let seqs: [&[&str]; 4] = [
        &[
            "Glenmont", "Pentagon", "Pentagon", "Wheaton", "Wheaton", "Pentagon",
        ],
        &["Pentagon", "Wheaton", "Wheaton", "Pentagon"],
        &["Clarendon", "Pentagon"],
        &["Wheaton", "Clarendon", "Deanwood", "Wheaton"],
    ];
    let mut db = EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("location", ColumnType::Str)
        .dimension("action", ColumnType::Str)
        .build()
        .unwrap();
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
    db.set_base_level_name(2, "station");
    db.attach_str_level(2, "district", |s| {
        if s == "Pentagon" || s == "Clarendon" {
            "D10".into()
        } else {
            "D20".into()
        }
    })
    .unwrap();
    db
}

/// A fully pinned configuration: nothing inherited from `SOLAP_*`
/// environment knobs, so the rendered plan text is stable everywhere.
fn pinned(strategy: Strategy) -> EngineConfig {
    EngineConfig {
        strategy,
        use_cuboid_repo: true,
        threads: 1,
        timeout: None,
        budget_cells: None,
        cancel: CancelToken::new(),
    }
}

/// EXPLAIN text as the statement surfaces print it: the engine's
/// structured report through the dispatch renderer. Deterministic on a
/// fresh engine — the cost model sits at its seed constants and the
/// sequence cache is empty.
fn explain_text(engine: &Engine, spec: &SCuboidSpec) -> String {
    s_olap::server::dispatch::render_plan_text(&engine.explain(spec).unwrap())
}

/// The paper's Q3: single-trip origin/destination distribution.
const Q3_TEXT: &str = r#"
    SELECT COUNT(*) FROM Event
    CLUSTER BY sid AT raw
    SEQUENCE BY pos ASCENDING
    CUBOID BY SUBSTRING (X, Y)
      WITH X AS location AT station, Y AS location AT station
      LEFT-MAXIMALITY (x1, y1)
      WITH x1.action = "in" AND y1.action = "out"
"#;

/// The Figure 13/14 round-trip template with an iceberg clause.
const XYYX_TEXT: &str = r#"
    SELECT COUNT(*) FROM Event
    CLUSTER BY sid AT raw
    SEQUENCE BY pos ASCENDING
    CUBOID BY SUBSTRING (X, Y, Y, X)
      WITH X AS location AT station, Y AS location AT station
      LEFT-MAXIMALITY (x1, y1, y2, x2)
    HAVING COUNT >= 2
"#;

fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("SOLAP_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden `{name}` — run with SOLAP_BLESS=1 to create"));
    assert_eq!(
        expected, actual,
        "golden `{name}` mismatch — run with SOLAP_BLESS=1 to regenerate after an intentional change"
    );
}

#[test]
fn explain_q3_golden() {
    let engine = Engine::with_config(fig8(), pinned(Strategy::Auto));
    let stmt = parse_statement(&engine.db(), &format!("EXPLAIN {Q3_TEXT}")).unwrap();
    assert_eq!(stmt.mode, ExplainMode::Explain);
    check_golden("explain_q3.txt", &explain_text(&engine, &stmt.spec));
}

#[test]
fn explain_q3_cb_golden() {
    let engine = Engine::with_config(fig8(), pinned(Strategy::CounterBased));
    let spec = parse_query(&engine.db(), Q3_TEXT).unwrap();
    check_golden("explain_q3_cb.txt", &explain_text(&engine, &spec));
}

#[test]
fn explain_xyyx_golden() {
    let engine = Engine::with_config(fig8(), pinned(Strategy::Auto));
    let spec = parse_query(&engine.db(), XYYX_TEXT).unwrap();
    check_golden("explain_xyyx.txt", &explain_text(&engine, &spec));
}

#[test]
fn profile_q3_golden() {
    let engine = Engine::with_config(fig8(), pinned(Strategy::Auto));
    let stmt = parse_statement(&engine.db(), &format!("PROFILE {Q3_TEXT}")).unwrap();
    assert_eq!(stmt.mode, ExplainMode::Profile);
    let out = engine.execute(&stmt.spec).unwrap();
    // Timings are redacted; every counter is deterministic at one thread.
    check_golden("profile_q3.txt", &out.profile.render_text(true));
}

#[test]
fn profile_q3_cb_golden() {
    let engine = Engine::with_config(fig8(), pinned(Strategy::CounterBased));
    let spec = parse_query(&engine.db(), Q3_TEXT).unwrap();
    let out = engine.execute(&spec).unwrap();
    check_golden("profile_q3_cb.txt", &out.profile.render_text(true));
}

#[test]
fn profile_cache_replay_golden() {
    let engine = Engine::with_config(fig8(), pinned(Strategy::Auto));
    let spec = parse_query(&engine.db(), Q3_TEXT).unwrap();
    engine.execute(&spec).unwrap();
    let replay = engine.execute(&spec).unwrap();
    check_golden(
        "profile_cache_replay.txt",
        &replay.profile.render_text(true),
    );
}
