//! Chaos suite: resource-governance aborts, cooperative cancellation,
//! panic isolation and failpoint-driven fault injection.
//!
//! The property under test throughout: **a failed query is a no-op**. After
//! a deadline/budget abort, a cancellation, an injected error, or an
//! injected panic — at every failpoint site, including the parallel worker
//! paths — the same `Engine` must keep answering queries, and the answers
//! must be cell-for-cell identical to a fresh engine, for all five
//! aggregate functions on both construction strategies.
//!
//! Failpoint state is process-global, so every test here serializes on one
//! lock (a failpoint configured by one test must not leak into an engine
//! run by another).

use std::sync::Mutex;
use std::time::Duration;

use s_olap::eventdb::failpoint::{self, Action};
use s_olap::eventdb::{CancelToken, Error, CHECK_INTERVAL};
use s_olap::prelude::*;

static FP_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the default panic hook silenced, so intentionally injected
/// panics do not spray backtraces over the test output.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// A deterministic little event database: 24 sequences over 5 symbols,
/// an `a`/`b` tag, and a dyadic `weight` measure (so SUM/AVG results are
/// bit-exact under any fold order).
fn build_db() -> EventDb {
    let mut db = EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("symbol", ColumnType::Str)
        .dimension("tag", ColumnType::Str)
        .measure("weight", ColumnType::Float)
        .build()
        .unwrap();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for sid in 0..24i64 {
        let len = 3 + (sid % 6);
        for pos in 0..len {
            let sym = next() % 5;
            let tag = next() % 2 == 0;
            db.push_row(&[
                Value::Int(sid),
                Value::Int(pos),
                Value::Str(format!("s{sym}")),
                Value::from(if tag { "a" } else { "b" }),
                Value::Float(sym as f64 + 0.5),
            ])
            .unwrap();
        }
    }
    db.set_base_level_name(2, "symbol");
    db.attach_str_level(2, "parity", |name| {
        let v: u32 = name[1..].parse().unwrap();
        format!("p{}", v % 2)
    })
    .unwrap();
    db
}

/// `(X, Y)` substring spec with a matching predicate (the predicate forces
/// the inverted-index path through its verification scan) and one of the
/// five aggregates.
fn spec_for(agg: u8) -> SCuboidSpec {
    let template = PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y"],
        &[("X", 2, 0), ("Y", 2, 0)],
    )
    .unwrap();
    SCuboidSpec::new(
        template,
        vec![AttrLevel::new(0, 0)],
        vec![SortKey {
            attr: 1,
            ascending: true,
        }],
    )
    .with_mpred(MatchPred::cmp(0, 3, CmpOp::Eq, "a"))
    .with_agg(match agg {
        0 => AggFunc::Count,
        1 => AggFunc::Sum(4, SumMode::AllEvents),
        2 => AggFunc::Avg(4, SumMode::AllEvents),
        3 => AggFunc::Min(4),
        _ => AggFunc::Max(4),
    })
}

/// A length-3 `(X, Y, X)` substring spec: its inverted index is built by
/// joining pair indices and *verifying* the candidates (Figure 15 line 9),
/// which is the only path through the `ii.verify` site.
fn spec_len3() -> SCuboidSpec {
    let template = PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y", "X"],
        &[("X", 2, 0), ("Y", 2, 0)],
    )
    .unwrap();
    SCuboidSpec::new(
        template,
        vec![AttrLevel::new(0, 0)],
        vec![SortKey {
            attr: 1,
            ascending: true,
        }],
    )
}

/// The query that reaches `site`: length-3 for the verification site,
/// the standard pair query everywhere else.
fn trigger_spec(site: &str) -> SCuboidSpec {
    if site == "ii.verify" {
        spec_len3()
    } else {
        spec_for(0)
    }
}

/// A config with governance off and everything else explicit, so ambient
/// `SOLAP_*` environment variables cannot skew a test's premise.
fn config(strategy: Strategy, threads: usize) -> EngineConfig {
    EngineConfig {
        strategy,
        threads,
        timeout: None,
        budget_cells: None,
        ..Default::default()
    }
}

/// The recovery oracle: on the *same* engine that just failed a query, all
/// five aggregates on both strategies must equal a fresh engine exactly.
fn assert_matches_fresh(engine: &mut Engine) {
    let threads = engine.config().threads;
    for strategy in [Strategy::CounterBased, Strategy::InvertedIndex] {
        engine.config_mut().strategy = strategy;
        // Clear the repo so the second strategy actually reruns
        // construction instead of answering from cache.
        engine.cuboid_repo().clear();
        for agg in 0..5u8 {
            let spec = spec_for(agg);
            let got = engine.execute(&spec).unwrap_or_else(|e| {
                panic!("post-failure query died ({strategy:?}, agg {agg}): {e}")
            });
            let fresh = Engine::with_config(build_db(), config(strategy, threads));
            let want = fresh.execute(&spec).unwrap();
            assert!(
                !want.cuboid.is_empty(),
                "oracle query must be non-trivial ({strategy:?}, agg {agg})"
            );
            assert_eq!(
                got.cuboid.cells, want.cuboid.cells,
                "cells diverge from fresh engine ({strategy:?}, agg {agg})"
            );
        }
    }
}

#[test]
fn deadline_abort_is_typed_and_recoverable() {
    let _g = locked();
    failpoint::clear_all();
    let mut engine = Engine::with_config(
        build_db(),
        EngineConfig {
            timeout: Some(Duration::ZERO),
            ..config(Strategy::CounterBased, 1)
        },
    );
    match engine.execute(&spec_for(0)) {
        Err(Error::ResourceExhausted {
            resource: "time_ms",
            ..
        }) => {}
        other => panic!("expected a time_ms abort, got {other:?}"),
    }
    assert_eq!(engine.cuboid_repo().len(), 0, "no partial cuboid cached");
    engine.config_mut().timeout = None;
    assert_matches_fresh(&mut engine);
}

#[test]
fn cell_budget_abort_is_bounded_and_recoverable() {
    let _g = locked();
    failpoint::clear_all();
    let mut engine = Engine::with_config(
        build_db(),
        EngineConfig {
            budget_cells: Some(1),
            ..config(Strategy::CounterBased, 1)
        },
    );
    match engine.execute(&spec_for(0)) {
        Err(Error::ResourceExhausted {
            resource: "cells",
            limit,
            consumed,
        }) => {
            assert_eq!(limit, 1);
            assert!(
                consumed > limit && consumed <= limit + u64::from(CHECK_INTERVAL),
                "abort within one check interval of the limit (consumed {consumed})"
            );
        }
        other => panic!("expected a cells abort, got {other:?}"),
    }
    assert_eq!(engine.cuboid_repo().len(), 0);
    engine.config_mut().budget_cells = None;
    assert_matches_fresh(&mut engine);
}

#[test]
fn cancellation_latches_until_reset() {
    let _g = locked();
    failpoint::clear_all();
    let cancel = CancelToken::new();
    let mut engine = Engine::with_config(
        build_db(),
        EngineConfig {
            cancel: cancel.clone(),
            ..config(Strategy::InvertedIndex, 1)
        },
    );
    cancel.cancel();
    assert!(matches!(
        engine.execute(&spec_for(0)),
        Err(Error::Cancelled)
    ));
    // Still latched: the next query aborts too.
    assert!(matches!(
        engine.execute(&spec_for(1)),
        Err(Error::Cancelled)
    ));
    cancel.reset();
    assert_matches_fresh(&mut engine);
}

/// Every engine-path failpoint site, with the strategy and thread count
/// that reaches it. The worker sites exercise the parallel paths.
const ENGINE_SITES: &[(&str, Strategy, usize)] = &[
    ("seqcache.build", Strategy::CounterBased, 1),
    ("cb.group", Strategy::CounterBased, 1),
    ("cb.worker", Strategy::CounterBased, 4),
    ("ii.build_base", Strategy::InvertedIndex, 1),
    ("ii.worker", Strategy::InvertedIndex, 4),
    ("ii.verify", Strategy::InvertedIndex, 1),
    ("engine.insert", Strategy::CounterBased, 1),
];

#[test]
fn injected_error_at_every_site_fails_cleanly_then_recovers() {
    let _g = locked();
    for &(site, strategy, threads) in ENGINE_SITES {
        failpoint::clear_all();
        failpoint::configure(site, Action::Error);
        let mut engine = Engine::with_config(build_db(), config(strategy, threads));
        match engine.execute(&trigger_spec(site)) {
            Err(Error::Internal(msg)) => {
                assert!(msg.contains(site), "site {site} not named in `{msg}`")
            }
            other => panic!("site {site}: expected Err(Internal), got {other:?}"),
        }
        assert_eq!(engine.cuboid_repo().len(), 0, "site {site} cached a cuboid");
        failpoint::clear_all();
        assert_matches_fresh(&mut engine);
    }
}

#[test]
fn injected_panic_at_every_site_is_isolated_then_recovers() {
    let _g = locked();
    for &(site, strategy, threads) in ENGINE_SITES {
        failpoint::clear_all();
        failpoint::configure(site, Action::Panic);
        let mut engine = Engine::with_config(build_db(), config(strategy, threads));
        match quietly(|| engine.execute(&trigger_spec(site))) {
            Err(Error::Internal(msg)) => {
                assert!(
                    msg.contains("panic"),
                    "site {site}: panic not surfaced in `{msg}`"
                )
            }
            other => panic!("site {site}: expected an isolated panic, got {other:?}"),
        }
        assert_eq!(engine.cuboid_repo().len(), 0, "site {site} cached a cuboid");
        failpoint::clear_all();
        assert_matches_fresh(&mut engine);
    }
}

#[test]
fn injected_delay_changes_nothing_but_time() {
    let _g = locked();
    for &(site, strategy, threads) in ENGINE_SITES {
        failpoint::clear_all();
        failpoint::configure(site, Action::Delay(1));
        let mut engine = Engine::with_config(build_db(), config(strategy, threads));
        engine
            .execute(&trigger_spec(site))
            .unwrap_or_else(|e| panic!("site {site}: delay must not fail: {e}"));
        failpoint::clear_all();
        assert_matches_fresh(&mut engine);
    }
}

#[test]
fn delay_plus_deadline_trips_the_governor() {
    let _g = locked();
    failpoint::clear_all();
    failpoint::configure("seqcache.build", Action::Delay(25));
    let mut engine = Engine::with_config(
        build_db(),
        EngineConfig {
            timeout: Some(Duration::from_millis(1)),
            ..config(Strategy::CounterBased, 1)
        },
    );
    match engine.execute(&spec_for(0)) {
        Err(Error::ResourceExhausted {
            resource: "time_ms",
            ..
        }) => {}
        other => panic!("expected the deadline to trip, got {other:?}"),
    }
    failpoint::clear_all();
    engine.config_mut().timeout = None;
    assert_matches_fresh(&mut engine);
}

#[test]
fn persist_failpoints_error_cleanly() {
    let _g = locked();
    failpoint::clear_all();
    let db = build_db();

    failpoint::configure("persist.save", Action::Error);
    let mut buf = Vec::new();
    assert!(matches!(
        s_olap::eventdb::persist::save(&db, &mut buf),
        Err(Error::Internal(_))
    ));
    failpoint::clear_all();

    buf.clear();
    s_olap::eventdb::persist::save(&db, &mut buf).unwrap();

    failpoint::configure("persist.load", Action::Error);
    assert!(matches!(
        s_olap::eventdb::persist::load(&mut buf.as_slice()),
        Err(Error::Internal(_))
    ));
    failpoint::clear_all();

    let loaded = s_olap::eventdb::persist::load(&mut buf.as_slice()).unwrap();
    assert_eq!(loaded.len(), db.len());
    assert_eq!(loaded.schema(), db.schema());
}

/// An error injected into one engine must not perturb a *different* engine
/// once cleared — and `list()` reflects configuration for diagnostics.
#[test]
fn failpoint_registry_round_trips() {
    let _g = locked();
    failpoint::clear_all();
    failpoint::configure("cb.group", Action::Error);
    failpoint::configure("ii.verify", Action::Delay(2));
    let sites: Vec<String> = failpoint::list().into_iter().map(|(s, _)| s).collect();
    assert_eq!(sites, vec!["cb.group".to_string(), "ii.verify".to_string()]);
    failpoint::remove("cb.group");
    failpoint::clear_all();
    let mut engine = Engine::with_config(build_db(), config(Strategy::CounterBased, 1));
    assert_matches_fresh(&mut engine);
}

/// A database with one sequence of `len` events cycling over 7 symbols —
/// long enough that every kernel loop runs past one governor check
/// interval inside a single sequence.
fn one_long_sequence(len: usize) -> EventDb {
    let mut db = EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("symbol", ColumnType::Str)
        .build()
        .unwrap();
    for pos in 0..len {
        db.push_row(&[
            Value::Int(0),
            Value::Int(pos as i64),
            Value::Str(format!("s{}", pos % 7)),
        ])
        .unwrap();
    }
    db
}

/// Each construction kernel, called directly: an expired deadline aborts
/// it from *inside* its loop, at the first governor check — exactly one
/// check interval of ticks in — and a cell budget aborts it at the first
/// cell beyond the limit.
#[test]
fn kernels_abort_inside_their_loops_within_one_check_interval() {
    use s_olap::core::cb::{counter_based_governed, CounterMode};
    use s_olap::core::stats::ScanMeter;
    use s_olap::eventdb::{build_sequence_groups, build_sequence_groups_governed};
    use s_olap::index::build_index_governed;

    // The kernels evaluate failpoint sites (`cb.group`, …) that the
    // failpoint-arming tests here may have armed at the same moment.
    let _fp = locked();
    let interval = u64::from(CHECK_INTERVAL);
    let len = 3 * CHECK_INTERVAL as usize;
    let db = one_long_sequence(len);
    let xy = spec_for(0).with_mpred(MatchPred::True);
    let groups = build_sequence_groups(&db, &xy.seq).unwrap();
    let expired = || QueryGovernor::new(Some(Duration::ZERO), None, None);
    let timed_out = |r: Result<(), Error>, gov: &QueryGovernor, kernel: &str| {
        assert!(
            matches!(
                r,
                Err(Error::ResourceExhausted {
                    resource: "time_ms",
                    ..
                })
            ),
            "{kernel}: {r:?}"
        );
        assert_eq!(
            gov.events_ticked(),
            interval,
            "{kernel}: aborted at the first check"
        );
    };

    // Steps 1–2: one tick per event row.
    let gov = expired();
    let formed = build_sequence_groups_governed(&db, &xy.seq, &gov);
    timed_out(formed.map(drop), &gov, "select/cluster");
    // The window loop and the DFS, through BUILDINDEX: one tick per
    // window / node.
    for kind in [PatternKind::Substring, PatternKind::Subsequence] {
        let mut t = xy.template.clone();
        t.kind = kind;
        let gov = expired();
        let built = build_index_governed(&db, groups.iter_sequences(), &t, &gov);
        timed_out(built.map(drop), &gov, "BUILDINDEX");
    }
    // The counter scan is a visitor of the same loop (its own per-group
    // check would notice an expired deadline before the loop starts): it
    // ticks once per window of the only sequence.
    let mut meter = ScanMeter::new();
    let gov = QueryGovernor::unbounded();
    counter_based_governed(&db, &groups, &xy, CounterMode::Auto, &mut meter, &gov).unwrap();
    assert_eq!(gov.events_ticked(), len as u64 - 1);

    // Cell budgets. Hashed counters: the first distinct cell beyond the
    // limit trips it. Dense counters: the whole 7 × 7 cell space is
    // charged before the scan.
    let cells_abort = |r: Result<(), Error>, consumed_at_abort: u64, what: &str| match r {
        Err(Error::ResourceExhausted {
            resource: "cells",
            consumed,
            ..
        }) => assert_eq!(consumed, consumed_at_abort, "{what}"),
        other => panic!("{what}: expected a cells abort, got {other:?}"),
    };
    for (mode, agg, limit, consumed, what) in [
        (CounterMode::Hash, AggFunc::Count, 3, 4, "hashed COUNT"),
        (CounterMode::Dense, AggFunc::Count, 48, 49, "dense COUNT"),
        (CounterMode::Auto, AggFunc::Max(1), 3, 4, "hashed MAX"),
    ] {
        let gov = QueryGovernor::new(None, Some(limit), None);
        let spec = xy.clone().with_agg(agg);
        let r = counter_based_governed(&db, &groups, &spec, mode, &mut meter, &gov);
        cells_abort(r.map(drop), consumed, what);
        assert!(gov.events_ticked() <= interval, "{what}: no runaway scan");
    }
    // BUILDINDEX charges a sequence's new lists when the sequence ends:
    // all 7 of the cycle's pairs at once.
    let gov = QueryGovernor::new(None, Some(3), None);
    let built = build_index_governed(&db, groups.iter_sequences(), &xy.template, &gov);
    cells_abort(built.map(drop), 7, "BUILDINDEX");
    // Steps 1–2 charge each new cluster as it appears.
    let gov = QueryGovernor::new(None, Some(0), None);
    let formed = build_sequence_groups_governed(&db, &xy.seq, &gov);
    cells_abort(formed.map(drop), 1, "select/cluster");
}
