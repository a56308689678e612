//! End-to-end S-cuboid construction: counter-based vs inverted-index on
//! the same query (the core comparison of §5.2). `matching` has the hash
//! vs dense counter layouts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use solap_bench::plans::synthetic_spec;
use solap_core::{Engine, EngineConfig, Strategy};
use solap_datagen::{generate_synthetic, SyntheticConfig};
use solap_eventdb::build_sequence_groups;
use solap_pattern::PatternKind;

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

criterion_group!(benches, bench_construction, bench_kernels_d8k);
criterion_main!(benches);
