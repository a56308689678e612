//! Integration tests encoding the paper's worked examples literally:
//! the Figure 8 sequence group, the Figure 12 cuboid, the Figure 14 join
//! result, the §3.4 non-summarizability counter-example (s3), and the
//! §4.2.2 P-ROLL-UP counter-example (s6).

use s_olap::prelude::*;

/// Builds an event database holding the given station sequences, with
/// actions alternating in/out (Figure 8's footnote) and the paper's
/// D10 = {Pentagon, Clarendon} district example.
fn station_db(seqs: &[&[&str]]) -> EventDb {
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

/// Figure 8's four sequences.
fn fig8() -> EventDb {
    station_db(&[
        &[
            "Glenmont", "Pentagon", "Pentagon", "Wheaton", "Wheaton", "Pentagon",
        ],
        &["Pentagon", "Wheaton", "Wheaton", "Pentagon"],
        &["Clarendon", "Pentagon"],
        &["Wheaton", "Clarendon", "Deanwood", "Wheaton"],
    ])
}

fn parse(db: &EventDb, q: &str) -> SCuboidSpec {
    s_olap::query::parse_query(db, q).expect("query parses")
}

const Q3_TEXT: &str = r#"
    SELECT COUNT(*) FROM Event
    CLUSTER BY sid AT raw
    SEQUENCE BY pos ASCENDING
    CUBOID BY SUBSTRING (X, Y)
      WITH X AS location AT station, Y AS location AT station
      LEFT-MAXIMALITY (x1, y1)
      WITH x1.action = "in" AND y1.action = "out"
"#;

fn count_of(db: &EventDb, c: &SCuboid, names: &[&str]) -> u64 {
    let pattern: Vec<u64> = names
        .iter()
        .map(|n| db.parse_level_value(2, 0, n).unwrap())
        .collect();
    c.get(&[], &pattern).and_then(|v| v.as_count()).unwrap_or(0)
}

/// Figure 12: the 2D S-cuboid of Q3 over the Figure 8 group — exact.
#[test]
fn figure_12_cuboid() {
    for strategy in [Strategy::CounterBased, Strategy::InvertedIndex] {
        let engine = Engine::with_config(
            fig8(),
            EngineConfig {
                strategy,
                ..Default::default()
            },
        );
        let spec = parse(&engine.db(), Q3_TEXT);
        let out = engine.execute(&spec).unwrap();
        let db = engine.db();
        assert_eq!(out.cuboid.len(), 6, "{strategy:?}");
        for (names, expected) in [
            (["Clarendon", "Pentagon"], 1),
            (["Deanwood", "Wheaton"], 1),
            (["Glenmont", "Pentagon"], 1),
            (["Pentagon", "Wheaton"], 2),
            (["Wheaton", "Clarendon"], 1),
            (["Wheaton", "Pentagon"], 2),
        ] {
            assert_eq!(count_of(&db, &out.cuboid, &names), expected, "{names:?}");
        }
    }
}

/// Figure 13/14: joining up to (X, Y, Y, X) leaves exactly one cell —
/// [Pentagon, Wheaton, Wheaton, Pentagon] — and, *without* the in/out
/// predicate, both s1 and s2 contain the round trip while with Figure 14's
/// predicate-free containment count the cell is {s1, s2}.
#[test]
fn figure_14_xyyx() {
    let engine = Engine::new(fig8());
    let q = r#"
        SELECT COUNT(*) FROM Event
        CLUSTER BY sid AT raw
        SEQUENCE BY pos ASCENDING
        CUBOID BY SUBSTRING (X, Y, Y, X)
          WITH X AS location AT station, Y AS location AT station
          LEFT-MAXIMALITY (x1, y1, y2, x2)
    "#;
    let spec = parse(&engine.db(), q);
    let out = engine.execute(&spec).unwrap();
    assert_eq!(out.cuboid.len(), 1, "only one non-empty list (Figure 14)");
    assert_eq!(
        // Cell keys carry one value per pattern *dimension*: (X, Y).
        count_of(&engine.db(), &out.cuboid, &["Pentagon", "Wheaton"]),
        2,
        "s1 and s2 both contain the round trip"
    );
}

/// §3.4: S-cuboids are non-summarizable. The single sequence s3 =
/// ⟨Pentagon, Wheaton, Pentagon, Wheaton, Glenmont⟩ yields three (X, Y, Z)
/// cells of count 1; DE-TAIL to (X, Y) must give [Pentagon, Wheaton] a
/// count of 1 under left-maximality, but aggregating the finer cells would
/// give c1 + c3 = 2.
#[test]
fn non_summarizability_s3() {
    let db = station_db(&[&["Pentagon", "Wheaton", "Pentagon", "Wheaton", "Glenmont"]]);
    let engine = Engine::new(db);
    let q_xyz = r#"
        SELECT COUNT(*) FROM Event
        CLUSTER BY sid AT raw
        SEQUENCE BY pos ASCENDING
        CUBOID BY SUBSTRING (X, Y, Z)
          WITH X AS location AT station, Y AS location AT station, Z AS location AT station
          LEFT-MAXIMALITY (x1, y1, z1)
    "#;
    let spec_xyz = parse(&engine.db(), q_xyz);
    let fine = engine.execute(&spec_xyz).unwrap();
    // DE-TAIL via the engine's operation path (before taking the long
    // read guard below — queries re-acquire the db lock themselves).
    let (coarse_spec, coarse) = engine.execute_op(&spec_xyz, &Op::DeTail).unwrap();
    assert_eq!(coarse_spec.template.render_head(), "SUBSTRING (X, Y)");
    let db = engine.db();
    let c1 = count_of(&db, &fine.cuboid, &["Pentagon", "Wheaton", "Pentagon"]);
    let c2 = count_of(&db, &fine.cuboid, &["Wheaton", "Pentagon", "Wheaton"]);
    let c3 = count_of(&db, &fine.cuboid, &["Pentagon", "Wheaton", "Glenmont"]);
    assert_eq!((c1, c2, c3), (1, 1, 1), "s3 contributes to all three cells");
    let c4 = count_of(&db, &coarse.cuboid, &["Pentagon", "Wheaton"]);
    assert_eq!(c4, 1, "left-maximality assigns s3 once");
    assert_ne!(c4, c1 + c3, "summing finer aggregates would be wrong");
}

/// §4.2.2 item 4 (s6): with a repeated-symbol template, P-ROLL-UP cannot be
/// answered by merging lists — s6 = ⟨Pentagon, Wheaton, Wheaton, Clarendon⟩
/// matches (X, Y, Y, X) at the district level (D10 = {Pentagon, Clarendon})
/// but at no station-level instantiation. The engine must still count it.
#[test]
fn p_roll_up_s6_counter_example() {
    let db = station_db(&[&["Pentagon", "Wheaton", "Wheaton", "Clarendon"]]);
    let engine = Engine::new(db);
    let q = r#"
        SELECT COUNT(*) FROM Event
        CLUSTER BY sid AT raw
        SEQUENCE BY pos ASCENDING
        CUBOID BY SUBSTRING (X, Y, Y, X)
          WITH X AS location AT station, Y AS location AT station
          LEFT-MAXIMALITY (x1, y1, y2, x2)
    "#;
    let spec = parse(&engine.db(), q);
    let fine = engine.execute(&spec).unwrap();
    assert_eq!(fine.cuboid.len(), 0, "no station-level round trip");
    // Roll both pattern dimensions up to districts.
    let (spec, _) = engine
        .execute_op(&spec, &Op::PRollUp { dim: "X".into() })
        .unwrap();
    let (_, coarse) = engine
        .execute_op(&spec, &Op::PRollUp { dim: "Y".into() })
        .unwrap();
    let db = engine.db();
    let d10 = db.parse_level_value(2, 1, "D10").unwrap();
    let d20 = db.parse_level_value(2, 1, "D20").unwrap();
    assert_eq!(
        coarse
            .cuboid
            .get(&[], &[d10, d20])
            .and_then(|v| v.as_count()),
        Some(1),
        "s6 must appear in [D10, Wheaton's district, …, D10]"
    );
}

/// Q1 end-to-end on a Figure-1-shaped database: WHERE window, day
/// clustering, fare-group grouping, global slice + drill-down on card-id.
#[test]
fn q1_full_pipeline_on_transit_data() {
    let db = s_olap::datagen::generate_transit(&s_olap::datagen::TransitConfig {
        passengers: 120,
        days: 4,
        round_trip_rate: 0.6,
        ..Default::default()
    })
    .unwrap();
    let engine = Engine::new(db);
    let q1 = parse(
        &engine.db(),
        r#"
        SELECT COUNT(*) FROM Event
        WHERE time >= "2007-10-01T00:00" AND time < "2007-12-31T24:00"
        CLUSTER BY card-id AT individual, time AT day
        SEQUENCE BY time ASCENDING
        SEQUENCE GROUP BY card-id AT fare-group, time AT day
        CUBOID BY SUBSTRING (X, Y, Y, X)
          WITH X AS location AT station, Y AS location AT station
          LEFT-MAXIMALITY (x1, y1, y2, x2)
          WITH x1.action = "in" AND y1.action = "out"
           AND y2.action = "in" AND x2.action = "out"
        "#,
    );
    let out = engine.execute(&q1).unwrap();
    assert!(!out.cuboid.is_empty(), "round trips exist at rate 0.6");
    // Every key has 2 global values (fare-group, day) + 2 pattern values.
    for (k, v) in out.cuboid.iter_sorted() {
        assert_eq!(k.global.len(), 2);
        assert_eq!(k.pattern.len(), 2);
        assert!(v.as_count().unwrap() >= 1);
    }
    // Drill card-id from fare-group down to individual (§3.3's example of
    // classical drill-down on a global dimension).
    let card = engine.db().attr("card-id").unwrap();
    let (spec2, finer) = engine
        .execute_op(&q1, &Op::DrillDown { attr: card })
        .unwrap();
    assert_eq!(spec2.seq.group_by[0].level, 0);
    // Finer grouping can only split counts: total count is preserved.
    assert_eq!(out.cuboid.total_count(), finer.cuboid.total_count());

    // CB agrees end-to-end.
    let cb = Engine::with_config(
        s_olap::datagen::generate_transit(&s_olap::datagen::TransitConfig {
            passengers: 120,
            days: 4,
            round_trip_rate: 0.6,
            ..Default::default()
        })
        .unwrap(),
        EngineConfig {
            strategy: Strategy::CounterBased,
            ..Default::default()
        },
    );
    let q1_text = q1.render(&engine.db());
    let cb_spec = parse(&cb.db(), &q1_text);
    let cb_out = cb.execute(&cb_spec).unwrap();
    assert_eq!(cb_out.cuboid.cells(), out.cuboid.cells());
}

/// The SUM extension of §3.2: summing fares over matched events vs the
/// first event of each assigned content.
#[test]
fn sum_semantics_on_transit() {
    let db = s_olap::datagen::generate_transit(&s_olap::datagen::TransitConfig {
        passengers: 50,
        days: 2,
        ..Default::default()
    })
    .unwrap();
    let engine = Engine::new(db);
    let base = r#"
        SELECT {AGG} FROM Event
        CLUSTER BY card-id AT individual, time AT day
        SEQUENCE BY time ASCENDING
        CUBOID BY SUBSTRING (X, Y)
          WITH X AS location AT station, Y AS location AT station
          LEFT-MAXIMALITY (x1, y1)
          WITH x1.action = "in" AND y1.action = "out"
    "#;
    let sum_all_spec = parse(&engine.db(), &base.replace("{AGG}", "SUM(amount)"));
    let sum_all = engine.execute(&sum_all_spec).unwrap();
    let sum_first_spec = parse(&engine.db(), &base.replace("{AGG}", "SUM-FIRST(amount)"));
    let sum_first = engine.execute(&sum_first_spec).unwrap();
    // "in" events have amount 0, "out" events are negative: the all-events
    // sum is strictly negative wherever cells exist; first-event sums are 0.
    assert!(!sum_all.cuboid.is_empty());
    for (k, v) in sum_all.cuboid.iter_sorted() {
        assert!(v.as_f64() < 0.0, "cell {k:?} should sum negative fares");
    }
    for (_, v) in sum_first.cuboid.iter_sorted() {
        assert_eq!(
            v.as_f64(),
            0.0,
            "first matched event is an `in` with amount 0"
        );
    }
    assert_eq!(sum_all.cuboid.len(), sum_first.cuboid.len());
}
