//! Integration tests for the §6 extensions working together through the
//! engine: iceberg cuboids, incremental update, and bitmap-encoded
//! inverted lists — each verified against the exact baseline.

use s_olap::core::ingest::{extend_groups, extend_index};
use s_olap::index::{build_index, SidSet};
use s_olap::prelude::*;

fn synthetic_db(d: usize, seed: u64) -> EventDb {
    s_olap::datagen::generate_synthetic(&s_olap::datagen::SyntheticConfig {
        i: 30,
        l: 10.0,
        theta: 0.9,
        d,
        seed,
        hierarchy: true,
    })
    .unwrap()
}

fn xy_query(db: &EventDb, level: &str) -> SCuboidSpec {
    s_olap::query::parse_query(
        db,
        &format!(
            r#"
            SELECT COUNT(*) FROM Event
            CLUSTER BY seq-id AT raw
            SEQUENCE BY pos ASCENDING
            CUBOID BY SUBSTRING (X, Y)
              WITH X AS symbol AT {level}, Y AS symbol AT {level}
              LEFT-MAXIMALITY (x1, y1)
            "#
        ),
    )
    .unwrap()
}

#[test]
fn iceberg_thresholds_nest() {
    let engine = Engine::new(synthetic_db(800, 5));
    let spec = xy_query(&engine.db(), "symbol");
    let full = engine.execute(&spec).unwrap();
    let mut last_len = full.cuboid.len();
    let mut last_cells: Vec<_> = full
        .cuboid
        .iter_sorted()
        .iter()
        .map(|(k, _)| (*k).clone())
        .collect();
    for ms in [2u64, 5, 20, 100] {
        let (s, out) = engine
            .execute_op(&spec, &Op::SetMinSupport(Some(ms)))
            .unwrap();
        assert_eq!(s.min_support, Some(ms));
        assert!(
            out.cuboid.len() <= last_len,
            "higher threshold, fewer cells"
        );
        // Nesting: every surviving cell survived the lower threshold too.
        for (k, v) in out.cuboid.iter_sorted() {
            assert!(last_cells.contains(k));
            assert!(v.as_count().unwrap() >= ms);
            // And the value matches the unfiltered cuboid exactly.
            assert_eq!(full.cuboid.cells().get(k), Some(v));
        }
        last_len = out.cuboid.len();
        last_cells = out
            .cuboid
            .iter_sorted()
            .iter()
            .map(|(k, _)| (*k).clone())
            .collect();
    }
}

#[test]
fn incremental_day_append_equals_rebuild_through_engine() {
    // Build day-partitioned data directly: cluster by the day column.
    let mut db = EventDbBuilder::new()
        .dimension("day", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("item", ColumnType::Str)
        .build()
        .unwrap();
    let items = ["a", "b", "c", "d"];
    for day in 0..6i64 {
        for pos in 0..8i64 {
            let item = items[((day * 5 + pos * 3) % 4) as usize];
            db.push_row(&[Value::Int(day), Value::Int(pos), Value::from(item)])
                .unwrap();
        }
    }
    let seq_spec = s_olap::eventdb::SeqQuerySpec {
        filter: Pred::True,
        cluster_by: vec![AttrLevel::new(0, 0)],
        sequence_by: vec![SortKey {
            attr: 1,
            ascending: true,
        }],
        group_by: vec![],
    };
    let template = PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y"],
        &[("X", 2, 0), ("Y", 2, 0)],
    )
    .unwrap();
    let old_groups = s_olap::eventdb::build_sequence_groups(&db, &seq_spec).unwrap();
    let (old_index, _) = build_index(&db, old_groups.iter_sequences(), &template).unwrap();
    // Two new days arrive.
    let from_row = db.len() as u32;
    for day in 6..8i64 {
        for pos in 0..8i64 {
            let item = items[((day * 7 + pos) % 4) as usize];
            db.push_row(&[Value::Int(day), Value::Int(pos), Value::from(item)])
                .unwrap();
        }
    }
    let (new_groups, new_sids) =
        extend_groups(&db, &seq_spec, &old_groups, from_row..db.len() as u32).unwrap();
    let fresh: Vec<_> = new_sids
        .iter()
        .map(|&sid| new_groups.sequence(sid).unwrap().clone())
        .collect();
    assert_eq!(fresh.len(), 2);
    let incr = extend_index(&db, &old_index, &fresh, &template).unwrap();
    let (rebuilt, _) = build_index(&db, new_groups.iter_sequences(), &template).unwrap();
    assert_eq!(incr.list_count(), rebuilt.list_count());
    for (k, v) in &rebuilt.lists {
        assert_eq!(incr.lists[k].to_vec(), v.to_vec());
    }
    // And the engine (version-keyed caches) sees fresh results after the
    // append, matching a scratch engine byte for byte.
    let spec = s_olap::query::parse_query(
        &db,
        r#"
        SELECT COUNT(*) FROM Event
        CLUSTER BY day AT raw
        SEQUENCE BY pos ASCENDING
        CUBOID BY SUBSTRING (X, Y)
          WITH X AS item AT item, Y AS item AT item
          LEFT-MAXIMALITY (x1, y1)
        "#,
    )
    .unwrap();
    let engine = Engine::new(db.clone());
    let scratch = Engine::new(db);
    assert_eq!(
        engine.execute(&spec).unwrap().cuboid.cells(),
        scratch.execute(&spec).unwrap().cuboid.cells()
    );
}

/// The workload's dense lists are stored as bitmaps (the §6 bitmap
/// index), and the inverted-index path over them agrees with counter
/// scans, before and after an APPEND joins them.
#[test]
fn bitmap_backend_agrees_on_synthetic_workload() {
    let db = synthetic_db(400, 3);
    let spec = xy_query(&db, "symbol");
    let groups = s_olap::eventdb::build_sequence_groups(&db, &spec.seq).unwrap();
    let (index, _) = build_index(&db, groups.iter_sequences(), &spec.template).unwrap();
    assert!(
        index
            .lists
            .values()
            .any(|set| matches!(set, SidSet::Bitmap(_))),
        "vacuous fixture: no list is dense enough for a bitmap"
    );
    let engine = |strategy| {
        Engine::with_config(
            db.clone(),
            EngineConfig {
                strategy,
                ..Default::default()
            },
        )
    };
    let (cb, ii) = (
        engine(Strategy::CounterBased),
        engine(Strategy::InvertedIndex),
    );
    assert_eq!(
        cb.execute(&spec).unwrap().cuboid.cells(),
        ii.execute(&spec).unwrap().cuboid.cells()
    );
    let append = Op::Append {
        symbol: "Z".into(),
        attr: 2,
        level: 0,
    };
    let (_, a) = cb.execute_op(&spec, &append).unwrap();
    let (_, b) = ii.execute_op(&spec, &append).unwrap();
    assert_eq!(a.cuboid.cells(), b.cuboid.cells());
}

#[test]
fn suggest_min_support_guides_iceberg() {
    let engine = Engine::new(synthetic_db(500, 13));
    let spec = xy_query(&engine.db(), "symbol");
    let full = engine.execute(&spec).unwrap();
    let t = s_olap::core::iceberg::suggest_min_support(&full.cuboid, 0.8);
    assert!(t >= 1);
    let (_, filtered) = engine
        .execute_op(&spec, &Op::SetMinSupport(Some(t)))
        .unwrap();
    let kept: u64 = filtered.cuboid.total_count();
    let total: u64 = full.cuboid.total_count();
    assert!(
        kept as f64 >= 0.8 * total as f64,
        "kept {kept} of {total} under threshold {t}"
    );
    assert!(filtered.cuboid.len() <= full.cuboid.len());
}
