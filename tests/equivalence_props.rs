//! Property tests for the load-bearing invariant of the reproduction: the
//! counter-based and inverted-index approaches compute **identical**
//! S-cuboids, for random datasets, templates, restrictions, predicates
//! and abstraction levels — plus the matcher's ordering
//! invariants (left-maximality ≤ all-matched, substring ⊆ subsequence).

use proptest::prelude::*;

use s_olap::prelude::Strategy as EngineStrategy;
#[allow(unused_imports)]
use s_olap::prelude::{
    AggFunc, AttrLevel, CellRestriction, CmpOp, ColumnType, Engine, EngineConfig, EventDb,
    EventDbBuilder, MatchPred, Op, PatternKind, PatternTemplate, SCuboidSpec, SortKey, SumMode,
    Value,
};

/// A random event database: `n` sequences over an alphabet of ≤ 5 symbols,
/// each event tagged `a`/`b` (for matching predicates), plus the two-level
/// hierarchy symbol → parity group.
///
/// The last column, `code`, repeats each event's symbol as a raw integer —
/// the very id the `symbol` dictionary assigns it. A raw integer has no
/// finite domain, so a template over `code` cannot pack its cells into one
/// `u64` and takes the generic `Vec`-keyed path of every kernel, while the
/// same template over `symbol` takes the packed one: their cuboids must be
/// equal cell for cell.
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
    symbols: Vec<usize>, // dim index per template position
    level: usize,
    kind: PatternKind,
    restriction: CellRestriction,
    pred_tag: Option<(usize, bool)>, // (position, required tag)
    agg: u8,
    group_by_parity: bool,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let seq = prop::collection::vec((0u8..5, any::<bool>()), 1..10);
    let seqs = prop::collection::vec(seq, 1..12);
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
        0u8..4,
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

/// The `symbol` column (packed cells) and its raw-integer mirror (wide).
const SYMBOL: u32 = 2;
const CODE: u32 = 5;

fn spec_for(db: &EventDb, case: &Case) -> SCuboidSpec {
    spec_over(db, case, SYMBOL)
}

fn spec_over(db: &EventDb, case: &Case, attr: u32) -> SCuboidSpec {
    // Dimension names A, B, C; positions pick from them.
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
    let agg = match case.agg {
        0 => AggFunc::Count,
        1 => AggFunc::Sum(4, SumMode::AllEvents),
        2 => AggFunc::Sum(4, SumMode::FirstEvent),
        _ => AggFunc::Max(4),
    };
    let group_by = if case.group_by_parity {
        vec![AttrLevel::new(2, 1)] // parity of the FIRST event
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
    .with_agg(agg)
    .with_group_by(group_by)
}

fn cells_of(engine: &Engine, spec: &SCuboidSpec) -> Vec<(s_olap::core::CellKey, String)> {
    let out = engine.execute(spec).unwrap();
    out.cuboid
        .iter_sorted()
        .into_iter()
        // Compare float aggregates textually at fixed precision to dodge
        // accumulation-order noise (none expected — both engines fold
        // leftmost-first — but cheap insurance).
        .map(|(k, v)| (k.clone(), format!("{v}")))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// CB ≡ II, for every case shape.
    #[test]
    fn cb_equals_ii(case in case_strategy()) {
        let spec = {
            let db = build_db(&case.seqs);
            spec_for(&db, &case)
        };
        let cb = Engine::with_config(
            build_db(&case.seqs),
            EngineConfig { strategy: EngineStrategy::CounterBased, ..Default::default() },
        );
        let ii = Engine::with_config(
            build_db(&case.seqs),
            EngineConfig { strategy: EngineStrategy::InvertedIndex, ..Default::default() },
        );
        let a = cells_of(&cb, &spec);
        let b = cells_of(&ii, &spec);
        prop_assert_eq!(&a, &b, "CB vs II");
        // The same template over the raw-integer mirror of `symbol` (base
        // level only: an integer column has no hierarchy) runs every kernel
        // on its `Vec`-keyed fallback.
        if case.level == 0 {
            let wide = spec_over(&cb.db(), &case, CODE);
            prop_assert_eq!(&a, &cells_of(&cb, &wide), "packed CB vs wide CB");
            prop_assert_eq!(&a, &cells_of(&ii, &wide), "packed CB vs wide II");
        }
    }

    /// Left-maximality counts never exceed all-matched counts, cell-wise,
    /// and matched-go/data-go agree on COUNT.
    #[test]
    fn left_maximality_bounded_by_all_matched(mut case in case_strategy()) {
        case.agg = 0;
        let engine = Engine::new(build_db(&case.seqs));
        case.restriction = CellRestriction::LeftMaximalityMatchedGo;
        let spec = spec_for(&engine.db(), &case);

        let lm = engine.execute(&spec).unwrap();
        case.restriction = CellRestriction::AllMatchedGo;
        let spec = spec_for(&engine.db(), &case);

        let all = engine.execute(&spec).unwrap();
        case.restriction = CellRestriction::LeftMaximalityDataGo;
        let spec = spec_for(&engine.db(), &case);

        let dg = engine.execute(&spec).unwrap();
        prop_assert_eq!(lm.cuboid.len(), all.cuboid.len(), "same non-empty cells");
        for (k, v) in lm.cuboid.iter_sorted() {
            let a = all.cuboid.cells().get(k).and_then(|x| x.as_count()).unwrap_or(0);
            prop_assert!(v.as_count().unwrap() <= a, "cell {:?}: lm {} > all {}", k, v, a);
            let d = dg.cuboid.cells().get(k).and_then(|x| x.as_count()).unwrap_or(0);
            prop_assert_eq!(v.as_count().unwrap(), d, "matched-go vs data-go COUNT");
        }
    }

    /// Every substring cell count is ≤ the subsequence count of the same
    /// cell (occurrence containment), under all-matched counting.
    #[test]
    fn substring_counts_below_subsequence(mut case in case_strategy()) {
        case.agg = 0;
        case.restriction = CellRestriction::AllMatchedGo;
        // Keep subsequence enumeration tractable.
        case.symbols.truncate(3);
        let engine = Engine::new(build_db(&case.seqs));
        case.kind = PatternKind::Substring;
        let spec = spec_for(&engine.db(), &case);

        let sub = engine.execute(&spec).unwrap();
        case.kind = PatternKind::Subsequence;
        let spec = spec_for(&engine.db(), &case);

        let sseq = engine.execute(&spec).unwrap();
        for (k, v) in sub.cuboid.iter_sorted() {
            let s = sseq.cuboid.cells().get(k).and_then(|x| x.as_count()).unwrap_or(0);
            prop_assert!(
                v.as_count().unwrap() <= s,
                "cell {:?}: substring {} > subsequence {}",
                k, v, s
            );
        }
    }

    /// Rolling the result up (P-ROLL-UP on every dimension) matches
    /// computing directly at the coarse level — engine-level, both
    /// strategies, via the operation path (which exercises the list-merge
    /// fast path when symbols are distinct).
    #[test]
    fn p_roll_up_matches_direct(mut case in case_strategy()) {
        case.level = 0;
        case.agg = 0;
        let engine = Engine::new(build_db(&case.seqs));
        let fine = spec_for(&engine.db(), &case);
        engine.execute(&fine).unwrap();
        // Apply P-ROLL-UP to every distinct dimension through the engine.
        let mut spec = fine.clone();
        let dims: Vec<String> = spec.template.dims.iter().map(|d| d.name.clone()).collect();
        let mut out = None;
        for d in dims {
            let (s, o) = engine.execute_op(&spec, &Op::PRollUp { dim: d }).unwrap();
            spec = s;
            out = Some(o);
        }
        let via_ops = out.unwrap();
        // Direct computation at the coarse level on a fresh engine.
        let direct_engine = Engine::with_config(
            build_db(&case.seqs),
            EngineConfig { strategy: EngineStrategy::CounterBased, ..Default::default() },
        );
        case.level = 1;
        let spec = spec_for(&direct_engine.db(), &case);

        let direct = direct_engine.execute(&spec).unwrap();
        prop_assert_eq!(&via_ops.cuboid.cells(), &direct.cuboid.cells());
    }

    /// The cuboid repository returns byte-identical results, and
    /// APPEND ∘ DE-TAIL round-trips to a cache hit.
    #[test]
    fn navigation_round_trip(mut case in case_strategy()) {
        case.agg = 0;
        let engine = Engine::new(build_db(&case.seqs));
        let spec = spec_for(&engine.db(), &case);
        let first = engine.execute(&spec).unwrap();
        let (spec2, _) = engine
            .execute_op(&spec, &Op::Append { symbol: "A".into(), attr: 2, level: case.level })
            .unwrap();
        let (spec3, back) = engine.execute_op(&spec2, &Op::DeTail).unwrap();
        prop_assert_eq!(spec3.fingerprint(), spec.fingerprint());
        prop_assert!(back.stats.cuboid_cache_hit);
        prop_assert_eq!(&first.cuboid.cells(), &back.cuboid.cells());
    }
}
