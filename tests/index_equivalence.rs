//! The posting-list equivalence battery (DESIGN.md §12): the galloping
//! join kernel is metamorphically pinned to scan intersection and bitmap
//! AND on identical inputs, each encoding's size claim is checked on the
//! sets themselves, and the engine — whose lists take whichever encoding
//! their density calls for — produces bit-identical cuboids for all five
//! aggregates, every strategy, sequential and sharded builds, with exact,
//! thread-invariant index-byte accounting and clean recovery from a
//! governor abort mid-join.

use std::collections::BTreeSet;

use proptest::prelude::*;

use s_olap::eventdb::Error;
use s_olap::index::{
    build_index, gallop_intersect, Bitmap, CompressedSidSet, Encoding, IndexKey, InvertedIndex,
    SidSet,
};
use s_olap::prelude::Strategy as EngineStrategy;
use s_olap::prelude::{
    AggFunc, AttrLevel, CmpOp, ColumnType, Engine, EngineConfig, EventDb, EventDbBuilder,
    MatchPred, PatternKind, PatternTemplate, SCuboidSpec, SortKey, SumMode, Value,
};

const ALL_STRATEGIES: [EngineStrategy; 3] = [
    EngineStrategy::CounterBased,
    EngineStrategy::InvertedIndex,
    EngineStrategy::Auto,
];

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

fn encode(v: &[u32], e: u8) -> SidSet {
    match e {
        0 => SidSet::from_sorted(v.to_vec()),
        1 => SidSet::from(v.iter().copied().collect::<Bitmap>()),
        _ => SidSet::from(CompressedSidSet::from_sorted(v.to_vec())),
    }
}

proptest! {
    /// Metamorphic join pin: on identical inputs, the galloping seeker
    /// join ≡ the sorted-list scan join ≡ the bitmap AND, for all nine
    /// encoding pairings.
    #[test]
    fn gallop_join_equals_scan_join_equals_bitmap_and(
        a in prop::collection::vec(0u32..2_000, 0..250),
        b in prop::collection::vec(0u32..2_000, 0..250),
    ) {
        let (av, bv) = (sorted(a), sorted(b));
        // Scan join: merge-walk the two sorted lists (the pre-codec path).
        let scan: Vec<u32> = {
            let sb: BTreeSet<u32> = bv.iter().copied().collect();
            av.iter().copied().filter(|s| sb.contains(s)).collect()
        };
        // Bitmap AND.
        let bitmap = encode(&av, 1).intersect(&encode(&bv, 1)).to_vec();
        prop_assert_eq!(&bitmap, &scan, "bitmap AND vs scan join");
        for ea in 0..3u8 {
            for eb in 0..3u8 {
                let (sa, sb) = (encode(&av, ea), encode(&bv, eb));
                let gallop = gallop_intersect(sa.seeker(), sb.seeker());
                prop_assert_eq!(&gallop, &scan, "gallop {}x{} vs scan", ea, eb);
                // The SidSet algebra dispatches to the same kernel.
                prop_assert_eq!(sa.intersect(&sb).to_vec(), scan.clone());
            }
        }
    }
}

/// Deterministic little database in the chaos-suite shape: 24 sequences
/// over 5 symbols, an `a`/`b` tag, a dyadic `weight` measure (so SUM/AVG
/// are bit-exact under any fold order), and a parity hierarchy.
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

/// `(X, Y)` substring spec with a matching predicate (forcing the II
/// verification scan) and one of the five aggregates.
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

/// A length-3 `(X, Y, X)` spec whose index is assembled by joining pair
/// indices — the gallop-join ladder plus the verification scan.
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

fn config(strategy: EngineStrategy, threads: usize) -> EngineConfig {
    EngineConfig {
        strategy,
        threads,
        timeout: None,
        budget_cells: None,
        ..Default::default()
    }
}

/// Bit-exact cell image of a query result (Debug-formatted `f64`s
/// round-trip, so equal strings ⇔ equal bits), plus the scan count.
fn cells_of(engine: &Engine, spec: &SCuboidSpec) -> (Vec<(String, String)>, u64) {
    let out = engine.execute(spec).unwrap();
    let cells = out
        .cuboid
        .iter_sorted()
        .into_iter()
        .map(|(k, v)| (format!("{k:?}"), format!("{v:?}")))
        .collect();
    (cells, out.stats.sequences_scanned)
}

/// Every strategy × threads {1, 8} × all five aggregates × pair and
/// join-ladder templates: cuboids bit-identical to a sequential counter
/// scan, and each strategy's scan accounting independent of the thread
/// count.
#[test]
fn engine_is_bit_identical_across_strategies_and_threads() {
    let db = build_db();
    for spec in (0..5).map(spec_for).chain([spec_len3()]) {
        let reference = {
            let engine = Engine::with_config(db.clone(), config(EngineStrategy::CounterBased, 1));
            cells_of(&engine, &spec).0
        };
        assert!(
            !reference.is_empty(),
            "vacuous fixture: the reference cuboid has no cells"
        );
        for strategy in ALL_STRATEGIES {
            let sequential = cells_of(&Engine::with_config(db.clone(), config(strategy, 1)), &spec);
            assert_eq!(
                sequential.0, reference,
                "{strategy:?}/t1 diverged from CB/t1"
            );
            let sharded = cells_of(&Engine::with_config(db.clone(), config(strategy, 8)), &spec);
            assert_eq!(sharded, sequential, "{strategy:?}/t8 diverged from t1");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random databases: the inverted-index path stays bit-identical to a
    /// sequential counter scan at both thread counts.
    #[test]
    fn random_dbs_ii_equals_cb_across_threads(
        seqs in prop::collection::vec(prop::collection::vec(0u8..5, 1..9), 1..14),
        agg in 0u8..5,
    ) {
        let mut db = EventDbBuilder::new()
            .dimension("sid", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("symbol", ColumnType::Str)
            .dimension("tag", ColumnType::Str)
            .measure("weight", ColumnType::Float)
            .build()
            .unwrap();
        for (sid, seq) in seqs.iter().enumerate() {
            for (pos, &sym) in seq.iter().enumerate() {
                db.push_row(&[
                    Value::Int(sid as i64),
                    Value::Int(pos as i64),
                    Value::Str(format!("s{sym}")),
                    Value::from(if (sym + pos as u8).is_multiple_of(2) {
                        "a"
                    } else {
                        "b"
                    }),
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
        let spec = spec_for(agg);
        let cb = Engine::with_config(db.clone(), config(EngineStrategy::CounterBased, 1));
        let expect = cells_of(&cb, &spec).0;
        for threads in [1usize, 8] {
            let ii = Engine::with_config(
                db.clone(),
                config(EngineStrategy::InvertedIndex, threads),
            );
            prop_assert_eq!(cells_of(&ii, &spec).0, expect.clone(), "II/t{}", threads);
        }
    }
}

/// A governor abort mid-join is a no-op: typed error out, then the same
/// engine answers bit-identically to a fresh one.
#[test]
fn governor_abort_mid_join_recovers() {
    let mut engine = Engine::with_config(
        build_db(),
        EngineConfig {
            budget_cells: Some(1),
            ..config(EngineStrategy::InvertedIndex, 1)
        },
    );
    match engine.execute(&spec_len3()) {
        Err(Error::ResourceExhausted {
            resource: "cells", ..
        }) => {}
        other => panic!("expected a cells abort, got {other:?}"),
    }
    assert_eq!(engine.cuboid_repo().len(), 0, "no partial cuboid cached");
    engine.config_mut().budget_cells = None;
    let fresh = Engine::with_config(build_db(), config(EngineStrategy::InvertedIndex, 1));
    for spec in (0..5).map(spec_for).chain([spec_len3()]) {
        assert_eq!(
            cells_of(&engine, &spec),
            cells_of(&fresh, &spec),
            "post-abort answers diverge from a fresh engine"
        );
    }
}

/// Sequence fixture for direct `build_index` calls.
fn sequences(db: &EventDb) -> Vec<s_olap::eventdb::Sequence> {
    use s_olap::eventdb::{build_sequence_groups, Pred, SeqQuerySpec};
    let groups = build_sequence_groups(
        db,
        &SeqQuerySpec {
            filter: Pred::True,
            cluster_by: vec![AttrLevel::new(0, 0)],
            sequence_by: vec![SortKey {
                attr: 1,
                ascending: true,
            }],
            group_by: vec![],
        },
    )
    .unwrap();
    groups.iter_sequences().cloned().collect()
}

/// The (X, Y) substring template over `symbol` at its base level.
fn xy_template() -> PatternTemplate {
    PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y"],
        &[("X", 2, 0), ("Y", 2, 0)],
    )
    .unwrap()
}

/// `InvertedIndex::heap_bytes` of `ix` had every list been stored as
/// `encoding`.
fn heap_as(ix: &InvertedIndex, encoding: Encoding) -> usize {
    ix.lists
        .iter()
        .map(|(key, set)| key.len() * 8 + set.clone().encoded(encoding).heap_bytes() + 48)
        .sum()
}

/// `heap_bytes` of a compressed list is the encoded size — skip table +
/// payload bytes, not the decoded `u32` width — an index's is the
/// documented sum over its lists, and `IndexBytesBuilt` reports it
/// invariant across thread counts.
#[test]
fn index_bytes_accounting_is_exact_and_thread_invariant() {
    let db = build_db();
    let seqs = sequences(&db);
    let (ix, _) = build_index(&db, seqs.iter(), &xy_template()).unwrap();
    let mut expect_total = 0usize;
    for (key, set) in &ix.lists {
        let SidSet::Compressed(c) = set.clone().encoded(Encoding::Compressed) else {
            unreachable!("encoded as compressed");
        };
        assert!(c.is_sealed(), "encoded lists are sealed");
        assert_eq!(
            c.heap_bytes(),
            c.encoded_data_len() + c.skip_table_bytes(),
            "sealed compressed heap_bytes = payload + skip table"
        );
        assert!(
            c.heap_bytes() < c.len() * std::mem::size_of::<u32>() + c.skip_table_bytes() + 1,
            "encoded accounting never exceeds decoded width plus the skip table"
        );
        expect_total += key.len() * 8 + set.heap_bytes() + 48;
    }
    assert_eq!(
        ix.heap_bytes(),
        expect_total,
        "InvertedIndex::heap_bytes sum"
    );

    // Engine level: IndexBytesBuilt equals the sealed index's heap_bytes,
    // whatever the thread count (sharded builds canonicalize identically).
    let bytes_at = |threads: usize| -> usize {
        let engine =
            Engine::with_config(db.clone(), config(EngineStrategy::InvertedIndex, threads));
        engine
            .execute(&spec_for(0))
            .unwrap()
            .stats
            .index_bytes_built
    };
    let t1 = bytes_at(1);
    assert_eq!(t1, bytes_at(8), "thread-invariant");
    assert_eq!(t1, bytes_at(1), "deterministic rebuild");
}

/// On a sparse workload (wide sid space, thin lists) compressed lists are
/// strictly smaller than plain ones — the acceptance bar for the codec
/// actually paying for itself — and the density rule never stores an
/// index larger than the worse of the two encodings it picks between.
#[test]
fn compressed_index_is_smaller_on_sparse_lists() {
    // 600 sequences over 3 symbols: every pattern list is long (hundreds
    // of sids), which is where delta+varint beats 4-byte sids.
    let mut db = EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("symbol", ColumnType::Str)
        .dimension("tag", ColumnType::Str)
        .measure("weight", ColumnType::Float)
        .build()
        .unwrap();
    let mut state = 7u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
        state >> 33
    };
    for sid in 0..600i64 {
        for pos in 0..4i64 {
            let sym = next() % 3;
            db.push_row(&[
                Value::Int(sid),
                Value::Int(pos),
                Value::Str(format!("s{sym}")),
                Value::from("a"),
                Value::Float(1.0),
            ])
            .unwrap();
        }
    }
    db.set_base_level_name(2, "symbol");
    let seqs = sequences(&db);
    let (ix, _) = build_index(&db, seqs.iter(), &xy_template()).unwrap();
    let (list, compressed) = (
        heap_as(&ix, Encoding::List),
        heap_as(&ix, Encoding::Compressed),
    );
    assert!(
        compressed < list,
        "compressed ({compressed}) must undercut list ({list}) on sparse lists"
    );
    let bitmap = heap_as(&ix, Encoding::Bitmap);
    assert!(ix.heap_bytes() <= compressed.max(bitmap));
}

/// The engine's own base index exercises every codec: on a fixture with
/// one list in nearly every sequence (dense), one in every 20th (sparse)
/// and one in three (tiny), the stored lists come out as bitmap,
/// compressed and plain list respectively.
#[test]
fn engine_base_index_holds_every_encoding() {
    let mut db = EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("symbol", ColumnType::Str)
        .build()
        .unwrap();
    for sid in 0..400i64 {
        let mut symbols = vec!["a", "b"];
        if sid % 20 == 0 {
            symbols.extend(["c", "d"]);
        }
        if sid < 3 {
            symbols.extend(["e", "f"]);
        }
        for (pos, sym) in symbols.into_iter().enumerate() {
            db.push_row(&[Value::Int(sid), Value::Int(pos as i64), Value::from(sym)])
                .unwrap();
        }
    }
    db.set_base_level_name(2, "symbol");
    let spec = SCuboidSpec::new(
        xy_template(),
        vec![AttrLevel::new(0, 0)],
        vec![SortKey {
            attr: 1,
            ascending: true,
        }],
    );
    let engine = Engine::builder(db)
        .strategy(EngineStrategy::InvertedIndex)
        .build();
    engine.execute(&spec).unwrap();
    let key = IndexKey::unsliced(
        spec.seq.fingerprint(),
        engine.db().version(),
        0,
        spec.template.signature(),
    );
    let base = engine
        .index_store()
        .get(&key)
        .expect("the base index is stored");
    let stored = |pair: [&str; 2]| {
        let db = engine.db();
        let pattern: Vec<u64> = pair
            .iter()
            .map(|s| db.parse_level_value(2, 0, s).unwrap())
            .collect();
        match base.list(&pattern).expect("pattern is indexed") {
            SidSet::List(_) => Encoding::List,
            SidSet::Bitmap(_) => Encoding::Bitmap,
            SidSet::Compressed(_) => Encoding::Compressed,
        }
    };
    assert_eq!(stored(["a", "b"]), Encoding::Bitmap, "400 of 400 sequences");
    assert_eq!(
        stored(["c", "d"]),
        Encoding::Compressed,
        "20 of 400 sequences"
    );
    assert_eq!(stored(["e", "f"]), Encoding::List, "3 of 400 sequences");
}
