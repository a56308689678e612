//! Property tests for parallel cuboid construction: for randomized
//! databases, templates, predicates and **all five aggregate functions**,
//! running with `threads ∈ {2, 4, 8}` must produce cell-for-cell identical
//! cuboids — and identical scan accounting — to the sequential
//! counter-based and inverted-index paths.
//!
//! Float aggregates (SUM/AVG) are exactly reproducible here because the
//! parallel path merges partial states in deterministic chunk order and
//! the test measures are dyadic rationals (k + 0.5), so every fold order
//! yields the same bits; see DESIGN.md §"Parallel construction".

use proptest::prelude::*;

use s_olap::prelude::Strategy as EngineStrategy;
#[allow(unused_imports)]
use s_olap::prelude::{
    AggFunc, AttrLevel, CellRestriction, CmpOp, ColumnType, Engine, EngineConfig, EventDb,
    EventDbBuilder, MatchPred, PatternKind, PatternTemplate, SCuboidSpec, SortKey, SumMode, Value,
};

/// A random event database: sequences over an alphabet of ≤ 5 symbols,
/// each event tagged `a`/`b`, with a dyadic `weight` measure so SUM/AVG
/// comparisons are bit-exact regardless of association order.
///
/// `code` mirrors `symbol` as a raw integer (the id the dictionary assigns
/// it): no finite domain, so templates over it keep their cells as `Vec`s
/// — the generic path of every kernel — while templates over `symbol`
/// pack them into one `u64`.
fn build_db(seqs: &[Vec<(u8, bool)>]) -> EventDb {
    let mut db = EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("symbol", ColumnType::Str)
        .dimension("tag", ColumnType::Str)
        .measure("weight", ColumnType::Float)
        .dimension("code", ColumnType::Int)
        .build()
        .unwrap();
    // Dictionary ids are handed out in order of first appearance.
    let mut seen: Vec<u8> = Vec::new();
    for (sid, seq) in seqs.iter().enumerate() {
        for (pos, &(sym, tag)) in seq.iter().enumerate() {
            let id = seen.iter().position(|&s| s == sym).unwrap_or_else(|| {
                seen.push(sym);
                seen.len() - 1
            });
            db.push_row(&[
                Value::Int(sid as i64),
                Value::Int(pos as i64),
                Value::Str(format!("s{sym}")),
                Value::from(if tag { "a" } else { "b" }),
                Value::Float((sym as f64) + 0.5),
                Value::Int(id as i64),
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

#[derive(Debug, Clone)]
struct Case {
    seqs: Vec<Vec<(u8, bool)>>,
    symbols: Vec<usize>,
    level: usize,
    kind: PatternKind,
    restriction: CellRestriction,
    pred_tag: Option<(usize, bool)>,
    /// 0..5 → COUNT, SUM, AVG, MIN, MAX.
    agg: u8,
    group_by_parity: bool,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let seq = prop::collection::vec((0u8..5, any::<bool>()), 1..10);
    let seqs = prop::collection::vec(seq, 1..14);
    (
        seqs,
        prop::collection::vec(0usize..3, 1..4),
        0usize..2,
        prop_oneof![Just(PatternKind::Substring), Just(PatternKind::Subsequence)],
        prop_oneof![
            Just(CellRestriction::LeftMaximalityMatchedGo),
            Just(CellRestriction::LeftMaximalityDataGo),
            Just(CellRestriction::AllMatchedGo),
        ],
        prop::option::of((0usize..3, any::<bool>())),
        0u8..5,
        any::<bool>(),
    )
        .prop_map(
            |(seqs, symbols, level, kind, restriction, pred_tag, agg, group_by_parity)| Case {
                seqs,
                symbols,
                level,
                kind,
                restriction,
                pred_tag,
                agg,
                group_by_parity,
            },
        )
}

fn agg_for(code: u8) -> AggFunc {
    match code {
        0 => AggFunc::Count,
        1 => AggFunc::Sum(4, SumMode::AllEvents),
        2 => AggFunc::Avg(4, SumMode::AllEvents),
        3 => AggFunc::Min(4),
        _ => AggFunc::Max(4),
    }
}

/// The `symbol` column (packed cells) and its raw-integer mirror (wide).
const SYMBOL: u32 = 2;
const CODE: u32 = 5;

fn spec_for(db: &EventDb, case: &Case) -> SCuboidSpec {
    spec_over(db, case, SYMBOL)
}

fn spec_over(db: &EventDb, case: &Case, attr: u32) -> SCuboidSpec {
    let names = ["A", "B", "C"];
    let position_syms: Vec<&str> = case.symbols.iter().map(|&d| names[d]).collect();
    let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
    for &s in &position_syms {
        if !bindings.iter().any(|(n, _, _)| *n == s) {
            bindings.push((s, attr, case.level));
        }
    }
    let template = PatternTemplate::new(case.kind, &position_syms, &bindings).unwrap();
    let m = template.m();
    let mpred = match case.pred_tag {
        Some((pos, want)) if pos < m => MatchPred::cmp(
            pos,
            db.attr("tag").unwrap(),
            CmpOp::Eq,
            if want { "a" } else { "b" },
        ),
        _ => MatchPred::True,
    };
    let group_by = if case.group_by_parity {
        vec![AttrLevel::new(2, 1)]
    } else {
        vec![]
    };
    SCuboidSpec::new(
        template,
        vec![AttrLevel::new(0, 0)],
        vec![SortKey {
            attr: 1,
            ascending: true,
        }],
    )
    .with_mpred(mpred)
    .with_restriction(case.restriction)
    .with_agg(agg_for(case.agg))
    .with_group_by(group_by)
}

fn engine(case: &Case, strategy: EngineStrategy, threads: usize) -> Engine {
    Engine::with_config(
        build_db(&case.seqs),
        EngineConfig {
            strategy,
            threads,
            ..Default::default()
        },
    )
}

/// Executes the spec and returns `(sorted cells, sequences scanned)`. Cell
/// values are compared through their full `Display` rendering, so any
/// float drift — not just large errors — fails the test.
fn run(engine: &Engine, spec: &SCuboidSpec) -> (Vec<(s_olap::core::CellKey, String)>, u64) {
    let out = engine.execute(spec).unwrap();
    let cells = out
        .cuboid
        .iter_sorted()
        .into_iter()
        .map(|(k, v)| (k.clone(), format!("{v}")))
        .collect();
    (cells, out.stats.sequences_scanned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: parallel CB and parallel II at 2/4/8 worker
    /// threads reproduce the sequential paths cell-for-cell, for every
    /// aggregate, and charge the same number of scanned sequences.
    #[test]
    fn parallel_matches_sequential_for_all_aggregates(case in case_strategy()) {
        let spec = {
            let db = build_db(&case.seqs);
            spec_for(&db, &case)
        };
        let (cb_cells, cb_scans) = run(&engine(&case, EngineStrategy::CounterBased, 1), &spec);
        let (ii_cells, ii_scans) = run(&engine(&case, EngineStrategy::InvertedIndex, 1), &spec);
        prop_assert_eq!(&cb_cells, &ii_cells, "sequential CB vs sequential II disagree");
        for threads in [2usize, 4, 8] {
            let (p_cb, p_cb_scans) = run(&engine(&case, EngineStrategy::CounterBased, threads), &spec);
            prop_assert_eq!(&p_cb, &cb_cells, "CB threads={} vs sequential CB", threads);
            prop_assert_eq!(p_cb_scans, cb_scans, "CB threads={} scan accounting", threads);
            let (p_ii, p_ii_scans) = run(&engine(&case, EngineStrategy::InvertedIndex, threads), &spec);
            prop_assert_eq!(&p_ii, &ii_cells, "II threads={} vs sequential II", threads);
            prop_assert_eq!(p_ii_scans, ii_scans, "II threads={} scan accounting", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Packed kernels ≡ the generic `Vec` path ≡ CB ≡ II at 1 and 8
    /// threads, for every aggregate, restriction and template shape the
    /// strategy draws (repeated symbols included).
    #[test]
    fn packed_kernels_equal_the_generic_path(mut case in case_strategy()) {
        case.level = 0; // an integer column has no hierarchy to climb
        let db = build_db(&case.seqs);
        let (packed, wide) = (spec_over(&db, &case, SYMBOL), spec_over(&db, &case, CODE));
        let (baseline, _) = run(&engine(&case, EngineStrategy::CounterBased, 1), &packed);
        for strategy in [EngineStrategy::CounterBased, EngineStrategy::InvertedIndex] {
            for threads in [1usize, 8] {
                let e = engine(&case, strategy, threads);
                prop_assert_eq!(&run(&e, &packed).0, &baseline, "packed {:?} t={}", strategy, threads);
                prop_assert_eq!(&run(&e, &wide).0, &baseline, "wide {:?} t={}", strategy, threads);
            }
        }
    }
}

/// The shapes the random cases rarely hit, fixed: the round-trip template
/// `(X, Y, Y, X)`, substring and subsequence, all three restrictions and
/// all five aggregates, over a database with single-event sequences and
/// sequences shorter than the template (a sequence without events does
/// not exist: clustering only sees events).
#[test]
fn packed_and_generic_agree_on_round_trips_and_degenerate_sequences() {
    let seqs = vec![
        vec![(0, true), (1, false), (1, true), (0, false), (1, true)],
        vec![(2, true)],
        vec![(0, false), (0, true), (0, false), (0, true)],
        vec![(1, true), (2, false)],
        vec![
            (3, true),
            (1, false),
            (1, false),
            (3, true),
            (1, true),
            (1, false),
            (3, false),
        ],
    ];
    for kind in [PatternKind::Substring, PatternKind::Subsequence] {
        for restriction in [
            CellRestriction::LeftMaximalityMatchedGo,
            CellRestriction::LeftMaximalityDataGo,
            CellRestriction::AllMatchedGo,
        ] {
            for agg in 0..5u8 {
                let case = Case {
                    seqs: seqs.clone(),
                    symbols: vec![0, 1, 1, 0],
                    level: 0,
                    kind,
                    restriction,
                    pred_tag: None,
                    agg,
                    group_by_parity: false,
                };
                let db = build_db(&case.seqs);
                let (packed, wide) = (spec_over(&db, &case, SYMBOL), spec_over(&db, &case, CODE));
                let (baseline, _) = run(&engine(&case, EngineStrategy::CounterBased, 1), &packed);
                assert!(
                    !baseline.is_empty(),
                    "{kind:?} {restriction:?}: a round trip exists"
                );
                for strategy in [EngineStrategy::CounterBased, EngineStrategy::InvertedIndex] {
                    for threads in [1usize, 8] {
                        let e = engine(&case, strategy, threads);
                        for (spec, path) in [(&packed, "packed"), (&wide, "generic")] {
                            assert_eq!(
                                run(&e, spec).0,
                                baseline,
                                "{path} {strategy:?} t={threads} {kind:?} {restriction:?} agg {agg}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Runs one fixed case across both strategies and all thread counts,
/// asserting everything agrees with the sequential CB baseline.
fn assert_all_paths_agree(case: &Case) {
    let spec = {
        let db = build_db(&case.seqs);
        spec_for(&db, case)
    };
    let (baseline, base_scans) = run(&engine(case, EngineStrategy::CounterBased, 1), &spec);
    for strategy in [EngineStrategy::CounterBased, EngineStrategy::InvertedIndex] {
        for threads in [1usize, 2, 4, 8] {
            let (cells, _) = run(&engine(case, strategy, threads), &spec);
            assert_eq!(
                cells, baseline,
                "{strategy:?} threads={threads} diverged from sequential CB"
            );
        }
    }
    // CB charges every sequence in the selected groups regardless of threads.
    let (_, par_scans) = run(&engine(case, EngineStrategy::CounterBased, 8), &spec);
    assert_eq!(par_scans, base_scans);
}

fn edge_case(seqs: Vec<Vec<(u8, bool)>>, agg: u8) -> Case {
    Case {
        seqs,
        symbols: vec![0, 1],
        level: 0,
        kind: PatternKind::Substring,
        restriction: CellRestriction::LeftMaximalityMatchedGo,
        pred_tag: None,
        agg,
        group_by_parity: true,
    }
}

/// Empty-group edge: every event is tagged `b` but the predicate demands
/// `a`, so each clustered group scans its sequences and produces zero
/// cells. Parallel workers must agree on the empty cuboid (and still
/// charge the scans).
#[test]
fn empty_result_groups_agree_across_threads() {
    for agg in 0..5u8 {
        let mut case = edge_case(vec![vec![(0, false), (1, false)], vec![(1, false)]], agg);
        case.pred_tag = Some((0, true));
        let spec = {
            let db = build_db(&case.seqs);
            spec_for(&db, &case)
        };
        let (cells, _) = run(&engine(&case, EngineStrategy::CounterBased, 8), &spec);
        assert!(cells.is_empty(), "agg {agg}: expected an empty cuboid");
        assert_all_paths_agree(&case);
    }
}

/// Single-sequence edge: more worker threads than sequences — the chunking
/// must degenerate gracefully to one worker, not panic or drop work.
#[test]
fn single_sequence_with_more_threads_than_work() {
    for agg in 0..5u8 {
        let case = edge_case(vec![vec![(0, true), (1, false), (0, true), (1, true)]], agg);
        assert_all_paths_agree(&case);
    }
}

/// Singleton groups edge: grouping by parity with one sequence per group
/// exercises the per-group chunk split at its minimum.
#[test]
fn singleton_groups_agree_across_threads() {
    for agg in 0..5u8 {
        let case = edge_case(vec![vec![(0, true), (0, false)], vec![(1, true)]], agg);
        assert_all_paths_agree(&case);
    }
}
