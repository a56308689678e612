//! Metamorphic properties of the observability layer: the per-query
//! profile must be *exact* (counters equal ground truth the test can
//! compute independently) and *thread-invariant* (work counters don't
//! change with the worker count).

use s_olap::eventdb::Counter;
use s_olap::prelude::*;

/// A station database with a measure column so every aggregate is
/// exercised: actions alternate in/out, `amount` is a deterministic
/// function of the row.
fn measured_db() -> EventDb {
    let seqs: [&[&str]; 5] = [
        &[
            "Glenmont", "Pentagon", "Pentagon", "Wheaton", "Wheaton", "Pentagon",
        ],
        &["Pentagon", "Wheaton", "Wheaton", "Pentagon"],
        &["Clarendon", "Pentagon"],
        &["Wheaton", "Clarendon", "Deanwood", "Wheaton"],
        &[
            "Pentagon", "Wheaton", "Glenmont", "Deanwood", "Pentagon", "Wheaton",
        ],
    ];
    let mut db = EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("location", ColumnType::Str)
        .dimension("action", ColumnType::Str)
        .measure("amount", ColumnType::Float)
        .build()
        .unwrap();
    let mut row = 0i64;
    for (sid, stations) in seqs.iter().enumerate() {
        for (i, st) in stations.iter().enumerate() {
            let action = if i % 2 == 0 { "in" } else { "out" };
            db.push_row(&[
                Value::Int(sid as i64),
                Value::Int(i as i64),
                Value::from(*st),
                Value::from(action),
                Value::Float((row % 7) as f64 + 0.5),
            ])
            .unwrap();
            row += 1;
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

fn spec_with(db: &EventDb, agg: AggFunc) -> SCuboidSpec {
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
    .with_agg(agg)
    .with_mpred(
        MatchPred::cmp(0, action, CmpOp::Eq, "in").and(MatchPred::cmp(1, action, CmpOp::Eq, "out")),
    )
}

fn aggregates(db: &EventDb) -> Vec<AggFunc> {
    let amount = db.attr("amount").unwrap();
    vec![
        AggFunc::Count,
        AggFunc::Sum(amount, SumMode::AllEvents),
        AggFunc::Avg(amount, SumMode::AllEvents),
        AggFunc::Min(amount),
        AggFunc::Max(amount),
    ]
}

fn engine(db: EventDb, strategy: Strategy, threads: usize) -> Engine {
    Engine::with_config(
        db,
        EngineConfig {
            strategy,
            threads,
            ..Default::default()
        },
    )
}

/// Work counters are a property of the query, not of the schedule: the
/// same query at 1 and 8 worker threads reports identical scan, selection,
/// grouping, assignment and materialization counts.
#[test]
fn counters_are_thread_invariant() {
    let db = measured_db();
    for strategy in [Strategy::CounterBased, Strategy::InvertedIndex] {
        for agg in aggregates(&db) {
            let spec = spec_with(&db, agg);
            let p1 = engine(db.clone(), strategy, 1)
                .execute(&spec)
                .unwrap()
                .profile;
            let p8 = engine(db.clone(), strategy, 8)
                .execute(&spec)
                .unwrap()
                .profile;
            for c in [
                Counter::EventsScanned,
                Counter::EventsSelected,
                Counter::SequencesFormed,
                Counter::GroupsFormed,
                Counter::SequencesScanned,
                Counter::PatternAssignments,
                Counter::MatchWindows,
                Counter::CellsMaterialized,
            ] {
                assert_eq!(
                    p1.counter(c),
                    p8.counter(c),
                    "{strategy:?} {:?}: {} differs across thread counts",
                    spec.agg,
                    c.name()
                );
            }
            assert_eq!(p1.counter(Counter::EventsScanned), db.len() as u64);
        }
    }
}

/// `cells_materialized` is exact: it equals the number of non-empty cells
/// of the returned cuboid, on every path.
#[test]
fn cells_materialized_matches_cuboid() {
    let db = measured_db();
    for strategy in [Strategy::CounterBased, Strategy::InvertedIndex] {
        for threads in [1usize, 8] {
            for agg in aggregates(&db) {
                let spec = spec_with(&db, agg);
                let out = engine(db.clone(), strategy, threads)
                    .execute(&spec)
                    .unwrap();
                assert_eq!(
                    out.profile.counter(Counter::CellsMaterialized),
                    out.cuboid.len() as u64,
                    "{strategy:?} t={threads} {:?}",
                    spec.agg
                );
            }
        }
    }
}

/// A repository hit answers the query without touching data: the replay's
/// profile shows one cuboid-cache hit and zero scanning of any kind.
#[test]
fn cache_hit_replay_scans_nothing() {
    let db = measured_db();
    for strategy in [Strategy::CounterBased, Strategy::InvertedIndex] {
        let e = engine(db.clone(), strategy, 1);
        let spec = spec_with(&db, AggFunc::Count);
        let first = e.execute(&spec).unwrap();
        let replay = e.execute(&spec).unwrap();
        assert_eq!(replay.profile.strategy, "cache");
        assert_eq!(replay.profile.counter(Counter::CuboidCacheHits), 1);
        assert_eq!(replay.profile.counter(Counter::EventsScanned), 0);
        assert_eq!(replay.profile.counter(Counter::SequencesScanned), 0);
        assert_eq!(replay.stats.sequences_scanned, 0);
        assert_eq!(
            replay.profile.counter(Counter::CellsMaterialized),
            first.cuboid.len() as u64
        );
    }
}

/// One governor tick per event row and per match window, whatever the
/// aggregate and the thread count — the counts the parent of the packed
/// kernels reported for the same queries, and the ground truth a reader
/// can count: 22 rows and 17 windows for the counter scan; for the index
/// path the same 22 + 17 to build `L2`, its 16 postings walked once, and
/// the 17 windows of the sequences they name scanned again to apply the
/// predicate.
#[test]
fn governor_ticks_for_fixed_queries_do_not_drift() {
    let db = measured_db();
    for (strategy, want) in [
        (Strategy::CounterBased, 22 + 17),
        (Strategy::InvertedIndex, 22 + 17 + 16 + 17),
    ] {
        for threads in [1usize, 8] {
            for agg in aggregates(&db) {
                let spec = spec_with(&db, agg);
                let ticks = engine(db.clone(), strategy, threads)
                    .execute(&spec)
                    .unwrap()
                    .profile
                    .counter(Counter::GovernorTicks);
                assert_eq!(ticks, want, "{strategy:?} t={threads} {agg:?}");
            }
        }
    }
}
