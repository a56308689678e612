//! Micro-benchmarks of the pattern matcher: substring vs subsequence
//! occurrence enumeration and cell assignment under each restriction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use solap_bench::plans::synthetic_spec;
use solap_core::cb::{counter_based, CounterMode};
use solap_core::stats::ScanMeter;
use solap_datagen::{generate_synthetic, SyntheticConfig};
use solap_eventdb::{build_sequence_groups, AttrLevel, Pred, SeqQuerySpec, SortKey};
use solap_pattern::{CellRestriction, MatchPred, Matcher, PatternKind, PatternTemplate};

fn fixture() -> (solap_eventdb::EventDb, solap_eventdb::SequenceGroups) {
    fixture_of(50, 500)
}

fn fixture_of(i: usize, d: usize) -> (solap_eventdb::EventDb, solap_eventdb::SequenceGroups) {
    let db = generate_synthetic(&SyntheticConfig {
        i,
        l: 20.0,
        theta: 0.9,
        d,
        seed: 7,
        hierarchy: false,
    })
    .unwrap();
    let groups = build_sequence_groups(
        &db,
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
    (db, groups)
}

fn template(kind: PatternKind, syms: &[&str]) -> PatternTemplate {
    let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
    for &s in syms {
        if !bindings.iter().any(|(n, _, _)| *n == s) {
            bindings.push((s, 2, 0));
        }
    }
    PatternTemplate::new(kind, syms, &bindings).unwrap()
}

fn bench_matching(c: &mut Criterion) {
    let (db, groups) = fixture();
    let trivial = MatchPred::True;
    let mut g = c.benchmark_group("matcher");
    for (name, kind, syms) in [
        ("substring-xy", PatternKind::Substring, &["X", "Y"][..]),
        (
            "substring-xyyx",
            PatternKind::Substring,
            &["X", "Y", "Y", "X"][..],
        ),
        ("subsequence-xy", PatternKind::Subsequence, &["X", "Y"][..]),
    ] {
        let t = template(kind, syms);
        let m = Matcher::new(&db, &t, &trivial);
        g.bench_function(BenchmarkId::new("assignments", name), |b| {
            b.iter(|| {
                let mut total = 0usize;
                for seq in groups.iter_sequences() {
                    total += m
                        .assignments(seq, CellRestriction::LeftMaximalityMatchedGo)
                        .unwrap()
                        .len();
                }
                total
            })
        });
    }
    let t = template(PatternKind::Substring, &["X", "Y"]);
    let m = Matcher::new(&db, &t, &trivial);
    g.bench_function("all-matched-vs-left-max", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for seq in groups.iter_sequences() {
                total += m
                    .assignments(seq, CellRestriction::AllMatchedGo)
                    .unwrap()
                    .len();
            }
            total
        })
    });
    g.finish();
}

/// The counter scan at `I100.L20.θ0.9.D8K` (one `explore_cold` window):
/// `(X,Y)` into the dense array, `(X,Y,Z,A,B)` — 10¹⁰ cells — into
/// hashed counters.
fn bench_cb_scan_d8k(c: &mut Criterion) {
    let (db, groups) = fixture_of(100, 8_000);
    let mut g = c.benchmark_group("cb-scan-d8k");
    g.sample_size(10);
    for (name, syms, mode) in [
        ("xy-dense", &["X", "Y"][..], CounterMode::Dense),
        (
            "xyzab-hashed",
            &["X", "Y", "Z", "A", "B"][..],
            CounterMode::Hash,
        ),
    ] {
        let spec = synthetic_spec(&db, PatternKind::Substring, syms, 0).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| {
                counter_based(&db, &groups, &spec, mode, &mut ScanMeter::new())
                    .unwrap()
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_matching, bench_cb_scan_d8k);
criterion_main!(benches);
