//! The compressed-backend equivalence battery (DESIGN.md §12): the
//! galloping join kernel is metamorphically pinned to scan intersection
//! and bitmap AND on identical inputs, and the engine produces
//! bit-identical cuboids under every posting-list backend — all five
//! aggregates, both construction strategies, sequential and sharded
//! builds — with exact, thread-invariant index-byte accounting and clean
//! recovery from a governor abort mid-join.

use std::collections::BTreeSet;

use proptest::prelude::*;

use s_olap::eventdb::Error;
use s_olap::index::{
    build_index, gallop_intersect, Bitmap, CompressedSidSet, InvertedIndex, SidSet,
};
use s_olap::prelude::Strategy as EngineStrategy;
use s_olap::prelude::{
    AggFunc, AttrLevel, CmpOp, ColumnType, Engine, EngineConfig, EventDb, EventDbBuilder,
    MatchPred, PatternKind, PatternTemplate, SCuboidSpec, SetBackend, SortKey, SumMode, Value,
};

const ALL_BACKENDS: [SetBackend; 4] = [
    SetBackend::List,
    SetBackend::Bitmap,
    SetBackend::Compressed,
    SetBackend::Auto,
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

fn config(strategy: EngineStrategy, backend: SetBackend, threads: usize) -> EngineConfig {
    EngineConfig {
        strategy,
        backend,
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

/// Every backend × both strategies × threads {1, 8} × all five aggregates
/// × pair and join-ladder templates: cuboids bit-identical to the list
/// backend, scan accounting identical too.
#[test]
fn engine_is_bit_identical_across_backends() {
    let db = build_db();
    for strategy in [EngineStrategy::CounterBased, EngineStrategy::InvertedIndex] {
        for spec in (0..5).map(spec_for).chain([spec_len3()]) {
            let baseline = {
                let engine = Engine::with_config(db.clone(), config(strategy, SetBackend::List, 1));
                cells_of(&engine, &spec)
            };
            assert!(
                !baseline.0.is_empty(),
                "vacuous fixture: the baseline cuboid has no cells"
            );
            for backend in ALL_BACKENDS {
                for threads in [1usize, 8] {
                    let engine =
                        Engine::with_config(db.clone(), config(strategy, backend, threads));
                    let got = cells_of(&engine, &spec);
                    assert_eq!(
                        got, baseline,
                        "{strategy:?}/{backend:?}/t{threads} diverged from List/t1"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random databases: the compressed backend stays bit-identical to the
    /// list backend on both strategies and thread counts.
    #[test]
    fn random_dbs_compressed_equals_list(
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
        for strategy in [EngineStrategy::CounterBased, EngineStrategy::InvertedIndex] {
            let list = Engine::with_config(db.clone(), config(strategy, SetBackend::List, 1));
            let expect = cells_of(&list, &spec);
            for threads in [1usize, 8] {
                let comp = Engine::with_config(
                    db.clone(),
                    config(strategy, SetBackend::Compressed, threads),
                );
                prop_assert_eq!(
                    cells_of(&comp, &spec),
                    expect.clone(),
                    "{:?} compressed/t{}",
                    strategy,
                    threads
                );
            }
        }
    }
}

/// A governor abort mid-join on the compressed backend is a no-op: typed
/// error out, then the same engine answers bit-identically to a fresh
/// list-backend engine.
#[test]
fn governor_abort_mid_join_recovers_on_compressed() {
    let mut engine = Engine::with_config(
        build_db(),
        EngineConfig {
            budget_cells: Some(1),
            ..config(EngineStrategy::InvertedIndex, SetBackend::Compressed, 1)
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
    let fresh = Engine::with_config(
        build_db(),
        config(EngineStrategy::InvertedIndex, SetBackend::List, 1),
    );
    for spec in (0..5).map(spec_for).chain([spec_len3()]) {
        assert_eq!(
            cells_of(&engine, &spec),
            cells_of(&fresh, &spec),
            "post-abort answers diverge from a fresh list engine"
        );
    }
}

/// `SOLAP_INDEX` picks the default backend (and garbage falls back to
/// Auto). Process-global, so this test owns the variable briefly; every
/// other test here passes an explicit backend.
#[test]
fn solap_index_env_sets_default_backend() {
    for (val, want) in [
        ("list", SetBackend::List),
        ("bitmap", SetBackend::Bitmap),
        ("compressed", SetBackend::Compressed),
        ("auto", SetBackend::Auto),
        ("garbage", SetBackend::Auto),
    ] {
        std::env::set_var("SOLAP_INDEX", val);
        let got = EngineConfig::default().backend;
        std::env::remove_var("SOLAP_INDEX");
        assert_eq!(got, want, "SOLAP_INDEX={val}");
    }
    assert_eq!(
        EngineConfig::default().backend,
        SetBackend::Auto,
        "unset default"
    );
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

/// `heap_bytes` on a compressed index is the encoded size — skip table +
/// payload bytes, not the decoded `u32` width — and `IndexBytesBuilt`
/// reports exactly that, invariant across thread counts.
#[test]
fn index_bytes_accounting_is_exact_and_thread_invariant() {
    let db = build_db();
    let seqs = sequences(&db);
    let template = PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y"],
        &[("X", 2, 0), ("Y", 2, 0)],
    )
    .unwrap();
    let (ix, _) = build_index(&db, seqs.iter(), &template, SetBackend::Compressed).unwrap();
    // Per-list: exactly the encoded form. Per-index: the documented sum.
    let mut expect_total = 0usize;
    for (key, set) in &ix.lists {
        let SidSet::Compressed(c) = set else {
            panic!("compressed build produced a non-compressed list");
        };
        assert!(c.is_sealed(), "built lists are sealed");
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
    let bytes_at = |backend: SetBackend, threads: usize| -> usize {
        let engine = Engine::with_config(
            db.clone(),
            config(EngineStrategy::InvertedIndex, backend, threads),
        );
        engine
            .execute(&spec_for(0))
            .unwrap()
            .stats
            .index_bytes_built
    };
    let c1 = bytes_at(SetBackend::Compressed, 1);
    assert_eq!(c1, bytes_at(SetBackend::Compressed, 8), "thread-invariant");
    assert_eq!(
        c1,
        bytes_at(SetBackend::Compressed, 1),
        "deterministic rebuild"
    );
}

/// On a sparse workload (wide sid space, thin lists) the compressed
/// backend builds a strictly smaller index than the list backend — the
/// acceptance bar for the codec actually paying for itself.
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
    let template = PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y"],
        &[("X", 2, 0), ("Y", 2, 0)],
    )
    .unwrap();
    let heap = |backend: SetBackend| -> usize {
        let (ix, _): (InvertedIndex, _) =
            build_index(&db, seqs.iter(), &template, backend).unwrap();
        ix.heap_bytes()
    };
    let (list, compressed) = (heap(SetBackend::List), heap(SetBackend::Compressed));
    assert!(
        compressed < list,
        "compressed ({compressed}) must undercut list ({list}) on sparse lists"
    );
    // Auto never does worse than the best single encoding it chooses from.
    assert!(heap(SetBackend::Auto) <= compressed.max(heap(SetBackend::Bitmap)));
}
