//! Property test: random navigation journeys.
//!
//! The inverted-index fast paths (prefix-join APPEND, left-join PREPEND,
//! list-merge P-ROLL-UP, refinement P-DRILL-DOWN, cuboid-repository
//! DE-HEAD/DE-TAIL) are only exercised through `Engine::execute_op` with
//! operation hints — so this test drives a CB engine and an II engine
//! through the *same random sequence of operations* and asserts cell-exact
//! agreement after every step. This is the invariant an interactive
//! exploration session rests on.

use proptest::prelude::*;

use s_olap::prelude::Strategy as EngineStrategy;
#[allow(unused_imports)]
use s_olap::prelude::{
    AttrLevel, CmpOp, ColumnType, Engine, EngineConfig, EventDb, EventDbBuilder, MatchPred, Op,
    PatternKind, PatternTemplate, SCuboidSpec, SortKey, Value,
};

fn build_db(seqs: &[Vec<u8>]) -> EventDb {
    let mut db = EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("symbol", ColumnType::Str)
        .build()
        .unwrap();
    for (sid, seq) in seqs.iter().enumerate() {
        for (pos, &sym) in seq.iter().enumerate() {
            db.push_row(&[
                Value::Int(sid as i64),
                Value::Int(pos as i64),
                Value::Str(format!("s{}", sym % 6)),
            ])
            .unwrap();
        }
    }
    db.set_base_level_name(2, "symbol");
    db.attach_str_level(2, "parity", |n| {
        let v: u32 = n[1..].parse().unwrap();
        format!("p{}", v % 2)
    })
    .unwrap();
    db.attach_str_level(2, "all", |_| "⊤".into()).unwrap();
    db
}

fn initial_spec() -> SCuboidSpec {
    let t = PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y"],
        &[("X", 2, 0), ("Y", 2, 0)],
    )
    .unwrap();
    SCuboidSpec::new(
        t,
        vec![AttrLevel::new(0, 0)],
        vec![SortKey {
            attr: 1,
            ascending: true,
        }],
    )
}

/// An abstract navigation move, concretised against the current spec (so
/// random sequences stay valid: levels in range, symbols existing, etc.).
#[derive(Debug, Clone, Copy)]
enum Move {
    AppendNew,
    AppendExisting,
    Prepend,
    /// PREPEND of a fresh symbol: the new dimension joins the template's
    /// dimension list last while its symbol stands first, so dimension
    /// order and position order part ways.
    PrependNew,
    DeTail,
    DeHead,
    PRollUp(u8),
    PDrillDown(u8),
    SliceTop,
    MinSupport(u8),
}

fn concretise(engine: &Engine, spec: &SCuboidSpec, mv: Move) -> Option<Op> {
    let db = engine.db();
    match mv {
        Move::AppendNew => Some(Op::Append {
            symbol: spec.template.fresh_symbol_name(),
            attr: 2,
            level: 0,
        }),
        Move::AppendExisting => {
            let d = spec.template.dims.first()?;
            Some(Op::Append {
                symbol: d.name.clone(),
                attr: d.attr,
                level: d.level,
            })
        }
        Move::Prepend => {
            let d = spec.template.dims.last()?;
            Some(Op::Prepend {
                symbol: d.name.clone(),
                attr: d.attr,
                level: d.level,
            })
        }
        Move::PrependNew => Some(Op::Prepend {
            symbol: spec.template.fresh_symbol_name(),
            attr: 2,
            level: 0,
        }),
        Move::DeTail => (spec.template.m() > 1).then_some(Op::DeTail),
        Move::DeHead => (spec.template.m() > 1).then_some(Op::DeHead),
        Move::PRollUp(i) => {
            let dims = &spec.template.dims;
            let d = &dims[i as usize % dims.len()];
            (d.level + 1 < db.level_count(d.attr)).then(|| Op::PRollUp {
                dim: d.name.clone(),
            })
        }
        Move::PDrillDown(i) => {
            let dims = &spec.template.dims;
            let d = &dims[i as usize % dims.len()];
            (d.level > 0).then(|| Op::PDrillDown {
                dim: d.name.clone(),
            })
        }
        Move::SliceTop => {
            let out = engine.execute(spec).ok()?;
            let top = out.cuboid.top_k(1);
            let (key, _) = top.first()?;
            Some(Op::Dice {
                global: vec![],
                pattern: spec
                    .template
                    .dims
                    .iter()
                    .enumerate()
                    .map(|(i, d)| (d.name.clone(), key.pattern[i]))
                    .collect(),
            })
        }
        Move::MinSupport(n) => Some(Op::SetMinSupport(if n == 0 {
            None
        } else {
            Some(n as u64)
        })),
    }
}

fn move_strategy() -> impl Strategy<Value = Move> {
    prop_oneof![
        Just(Move::AppendNew),
        Just(Move::AppendExisting),
        Just(Move::Prepend),
        Just(Move::PrependNew),
        Just(Move::DeTail),
        Just(Move::DeHead),
        any::<u8>().prop_map(Move::PRollUp),
        any::<u8>().prop_map(Move::PDrillDown),
        Just(Move::SliceTop),
        (0u8..4).prop_map(Move::MinSupport),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cb_and_ii_agree_along_every_journey(
        seqs in prop::collection::vec(prop::collection::vec(0u8..6, 0..8), 1..10),
        moves in prop::collection::vec(move_strategy(), 0..8),
    ) {
        let cb = Engine::with_config(
            build_db(&seqs),
            EngineConfig { strategy: EngineStrategy::CounterBased, ..Default::default() },
        );
        let ii = Engine::with_config(
            build_db(&seqs),
            EngineConfig { strategy: EngineStrategy::InvertedIndex, ..Default::default() },
        );
        let mut spec_cb = initial_spec();
        let mut spec_ii = initial_spec();
        let out_cb = cb.execute(&spec_cb).unwrap();
        let out_ii = ii.execute(&spec_ii).unwrap();
        prop_assert_eq!(&out_cb.cuboid.cells, &out_ii.cuboid.cells, "initial");
        // Cap the template length so subsequence-free journeys stay fast.
        for (step, mv) in moves.into_iter().enumerate() {
            if spec_cb.template.m() >= 5
                && matches!(
                    mv,
                    Move::AppendNew | Move::AppendExisting | Move::Prepend | Move::PrependNew
                )
            {
                continue;
            }
            // Concretise against the CB engine (same data ⇒ same answer on
            // the II engine; SliceTop consults the cuboid, which the
            // equality assertion of the previous step guarantees agrees).
            let Some(op) = concretise(&cb, &spec_cb, mv) else { continue };
            let (ns_cb, o_cb) = cb.execute_op(&spec_cb, &op).unwrap();
            let (ns_ii, o_ii) = ii.execute_op(&spec_ii, &op).unwrap();
            prop_assert_eq!(ns_cb.fingerprint(), ns_ii.fingerprint(), "specs diverged");
            prop_assert_eq!(
                &o_cb.cuboid.cells,
                &o_ii.cuboid.cells,
                "step {} ({:?}) diverged",
                step,
                op.name()
            );
            spec_cb = ns_cb;
            spec_ii = ns_ii;
        }
    }
}

/// One step of a slice-and-extend exploration (QuerySet A's shape).
#[derive(Debug, Clone, Copy)]
enum SlicedMove {
    /// Slice dimension `i` on the top cell's value, at the dimension's level.
    Slice(u8),
    /// Slice dimension `i` on the top cell's value rolled up one level —
    /// every comparison against the slice then goes through `map_up`.
    SliceCoarser(u8),
    Append,
    Prepend,
    DeTail,
}

fn sliced_move_strategy() -> impl Strategy<Value = SlicedMove> {
    prop_oneof![
        any::<u8>().prop_map(SlicedMove::Slice),
        any::<u8>().prop_map(SlicedMove::SliceCoarser),
        Just(SlicedMove::Append),
        Just(SlicedMove::Prepend),
        Just(SlicedMove::DeTail),
    ]
}

/// The spec a sliced move leads to, or `None` where it does not apply.
fn sliced_step(
    engine: &Engine,
    spec: &SCuboidSpec,
    top: Option<&Vec<u64>>,
    mv: SlicedMove,
) -> Option<SCuboidSpec> {
    let db = engine.db();
    let fresh = |prepend: bool| {
        let (symbol, attr, level) = (spec.template.fresh_symbol_name(), 2, 0);
        let op = if prepend {
            Op::Prepend {
                symbol,
                attr,
                level,
            }
        } else {
            Op::Append {
                symbol,
                attr,
                level,
            }
        };
        s_olap::core::ops::apply(&db, spec, &op).ok()
    };
    match mv {
        SlicedMove::Slice(i) | SlicedMove::SliceCoarser(i) => {
            let d = i as usize % spec.template.n();
            let dim = &spec.template.dims[d];
            let mut level = dim.level;
            let mut value = *top?.get(d)?;
            if matches!(mv, SlicedMove::SliceCoarser(_)) {
                level += 1;
                value = db.map_up(dim.attr, dim.level, value, level).ok()?;
            }
            let mut next = spec.clone();
            next.pattern_slice.insert(d, (level, value));
            Some(next)
        }
        SlicedMove::Append => (spec.template.m() < 5).then(|| fresh(false)).flatten(),
        SlicedMove::Prepend => (spec.template.m() < 5).then(|| fresh(true)).flatten(),
        SlicedMove::DeTail => (spec.template.m() > 2)
            .then(|| s_olap::core::ops::apply(&db, spec, &Op::DeTail).ok())
            .flatten(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random chains of slice-pattern — at the dimension's level and one
    /// level coarser — interleaved with APPEND, PREPEND and DE-TAIL on one
    /// warm inverted-index engine (so every step starts from whatever
    /// sliced and unsliced indices the earlier steps left in the store)
    /// agree, step by step, with a counter-based scan on an engine that
    /// has never seen a query.
    #[test]
    fn sliced_ladders_equal_fresh_counter_scans(
        seqs in prop::collection::vec(prop::collection::vec(0u8..6, 1..9), 2..12),
        moves in prop::collection::vec(sliced_move_strategy(), 1..9),
    ) {
        let ii = Engine::with_config(
            build_db(&seqs),
            EngineConfig {
                strategy: EngineStrategy::InvertedIndex,
                use_cuboid_repo: false,
                ..Default::default()
            },
        );
        let mut spec = initial_spec();
        let mut top = ii.execute(&spec).unwrap().cuboid.top_k(1).first().map(|(k, _)| k.pattern.clone());
        for (step, mv) in moves.into_iter().enumerate() {
            let Some(next) = sliced_step(&ii, &spec, top.as_ref(), mv) else { continue };
            let warm = ii.execute(&next).unwrap();
            let fresh = Engine::with_config(
                build_db(&seqs),
                EngineConfig { strategy: EngineStrategy::CounterBased, ..Default::default() },
            );
            prop_assert_eq!(
                &warm.cuboid.cells,
                &fresh.execute(&next).unwrap().cuboid.cells,
                "step {} ({:?}) on {}",
                step,
                mv,
                next.template.render_head()
            );
            top = warm.cuboid.top_k(1).first().map(|(k, _)| k.pattern.clone());
            spec = next;
        }
    }
}

/// A slice that refines the slice an index was cached under is answered by
/// filtering that index: nothing is built and nothing is joined.
#[test]
fn a_refining_slice_reuses_the_cached_sliced_index() {
    let seqs: Vec<Vec<u8>> = (0..40u8)
        .map(|i| (0..7).map(|p| (i.wrapping_mul(5) + p * p) % 6).collect())
        .collect();
    let ii = Engine::with_config(
        build_db(&seqs),
        EngineConfig {
            strategy: EngineStrategy::InvertedIndex,
            use_cuboid_repo: false,
            ..Default::default()
        },
    );
    let xy = initial_spec();
    let top = ii.execute(&xy).unwrap().cuboid.top_k(1)[0]
        .0
        .pattern
        .clone();
    // Slice X, APPEND Z: the ladder caches (X, Y, Z) restricted to X.
    let mut xyz = s_olap::core::ops::apply(
        &ii.db(),
        &xy,
        &Op::Append {
            symbol: "Z".into(),
            attr: 2,
            level: 0,
        },
    )
    .unwrap();
    xyz.pattern_slice.insert(0, (0, top[0]));
    let built = ii.execute(&xyz).unwrap();
    assert_eq!(built.stats.index_joins, 1);
    assert!(built.stats.index_bytes_built > 0);
    // Slicing further — on Z, at its level and one level up — refines it.
    let z = built.cuboid.top_k(1)[0].0.pattern[2];
    // Its own statement: a `db()` guard in the loop header would live
    // through every `execute` below, a re-entrant read.
    let z_up = ii.db().map_up(2, 0, z, 1).unwrap();
    for (level, value) in [(0, z), (1, z_up)] {
        let mut refined = xyz.clone();
        refined.pattern_slice.insert(2, (level, value));
        let out = ii.execute(&refined).unwrap();
        assert_eq!(out.stats.index_joins, 0, "slice Z at level {level}");
        assert_eq!(out.stats.index_bytes_built, 0, "slice Z at level {level}");
        assert_eq!(out.stats.indices_built, 0, "slice Z at level {level}");
        let cb = Engine::with_config(
            build_db(&seqs),
            EngineConfig {
                strategy: EngineStrategy::CounterBased,
                ..Default::default()
            },
        );
        assert_eq!(out.cuboid.cells, cb.execute(&refined).unwrap().cuboid.cells);
        assert!(!out.cuboid.is_empty());
    }
}
