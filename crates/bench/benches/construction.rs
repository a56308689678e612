//! End-to-end S-cuboid construction: counter-based vs inverted-index on
//! the same query (the core comparison of §5.2). `matching` has the hash
//! vs dense counter layouts.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use solap_bench::plans::synthetic_spec;
use solap_core::{CellKey, Engine, EngineConfig, SCuboid, Strategy};
use solap_datagen::{generate_synthetic, SyntheticConfig};
use solap_eventdb::{build_sequence_groups, ColumnType, EventDbBuilder};
use solap_pattern::{AggFunc, AggValue, PatternKind, PatternTemplate};

fn db(d: usize) -> solap_eventdb::EventDb {
    generate_synthetic(&SyntheticConfig {
        i: 100,
        l: 20.0,
        theta: 0.9,
        d,
        seed: 42,
        hierarchy: false,
    })
    .unwrap()
}

fn bench_construction(c: &mut Criterion) {
    let data = db(2_000);
    let mut g = c.benchmark_group("construction");
    g.sample_size(10);
    for (label, strategy) in [
        ("cb", Strategy::CounterBased),
        ("ii", Strategy::InvertedIndex),
    ] {
        g.bench_function(BenchmarkId::new("xy-query", label), |b| {
            b.iter_with_setup(
                || {
                    Engine::with_config(
                        data.clone(),
                        EngineConfig {
                            strategy,
                            use_cuboid_repo: false,
                            ..Default::default()
                        },
                    )
                },
                |engine| {
                    let spec = synthetic_spec(&engine.db(), PatternKind::Substring, &["X", "Y"], 0)
                        .unwrap();
                    engine.execute(&spec).unwrap().cuboid.len()
                },
            )
        });
    }
    // The iterative advantage: second query on a warm II engine.
    g.bench_function("ii-warm-repeat", |b| {
        let engine = Engine::with_config(
            data.clone(),
            EngineConfig {
                strategy: Strategy::InvertedIndex,
                use_cuboid_repo: false,
                ..Default::default()
            },
        );
        let spec = synthetic_spec(&engine.db(), PatternKind::Substring, &["X", "Y"], 0).unwrap();
        engine.execute(&spec).unwrap();
        b.iter(|| engine.execute(&spec).unwrap().cuboid.len())
    });
    g.finish();
}

/// The construction kernels at `I100.L20.θ0.9.D8K` — the size of one
/// `explore_cold` window — where a builder can iterate in seconds:
/// steps 1–2, and the 3-rung join ladder `(X,Y) → (X,Y,Z,A,B)` under a
/// slice on the top `(x, y)` cell. (`indexing` has the L2 base build,
/// `matching` the counter scans.)
fn bench_kernels_d8k(c: &mut Criterion) {
    let data = db(8_000);
    let mut g = c.benchmark_group("kernels-d8k");
    g.sample_size(10);
    let xy = synthetic_spec(&data, PatternKind::Substring, &["X", "Y"], 0).unwrap();
    g.bench_function("select-cluster", |b| {
        b.iter(|| {
            build_sequence_groups(&data, &xy.seq)
                .unwrap()
                .total_sequences
        })
    });
    g.bench_function("sliced-ladder-3", |b| {
        b.iter_with_setup(
            || {
                let engine = Engine::with_config(
                    data.clone(),
                    EngineConfig {
                        strategy: Strategy::InvertedIndex,
                        use_cuboid_repo: false,
                        ..Default::default()
                    },
                );
                let top = engine.execute(&xy).unwrap().cuboid.top_k(1)[0].0.clone();
                let mut sliced = synthetic_spec(
                    &engine.db(),
                    PatternKind::Substring,
                    &["X", "Y", "Z", "A", "B"],
                    0,
                )
                .unwrap();
                sliced.pattern_slice.insert(0, (0, top.pattern[0]));
                sliced.pattern_slice.insert(1, (0, top.pattern[1]));
                (engine, sliced)
            },
            |(engine, sliced)| engine.execute(&sliced).unwrap().cuboid.len(),
        )
    });
    g.finish();
}

/// Tabulating the 15 rows a `SELECT` prints from a 10⁴-cell COUNT cuboid
/// whose values tie in runs of 200: the first call on a cuboid (what a
/// repository miss pays) and a repeat call on the same cuboid (a hit).
fn bench_tabulate(c: &mut Criterion) {
    let db = EventDbBuilder::new()
        .dimension("n", ColumnType::Int)
        .build()
        .unwrap();
    let template = PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y"],
        &[("X", 0, 0), ("Y", 0, 0)],
    )
    .unwrap();
    let mut cuboid = SCuboid::new(vec![], template.dims.clone(), AggFunc::Count);
    for i in 0..10_000u64 {
        let key = CellKey {
            global: vec![],
            pattern: vec![i % 100, i / 100],
        };
        cuboid.cells_mut().insert(key, AggValue::Count(i % 50));
    }
    let mut g = c.benchmark_group("tabulate-10k");
    g.bench_function("first-call", |b| {
        // Kept alive past the timed routine, so no sample pays a drop.
        let mut fresh = Vec::new();
        b.iter_with_setup(
            || {
                fresh.push(Arc::new(cuboid.clone()));
                Arc::clone(&fresh[fresh.len() - 1])
            },
            |c| c.tabulate(&db, 15, true).len(),
        )
    });
    cuboid.tabulate(&db, 15, true);
    g.bench_function("repeat-call", |b| {
        b.iter(|| cuboid.tabulate(&db, 15, true).len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_construction,
    bench_kernels_d8k,
    bench_tabulate
);
criterion_main!(benches);
