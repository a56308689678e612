//! Inverted-index primitives: BUILDINDEX, list joins, and list- vs
//! bitmap- vs block-compressed intersections (the §6 bitmap optimisation
//! plus the DESIGN §12 codec) — the encodings one index mixes per list.

use criterion::{criterion_group, criterion_main, Criterion};

use solap_datagen::{generate_synthetic, SyntheticConfig};
use solap_eventdb::{build_sequence_groups, AttrLevel, Pred, SeqQuerySpec, SortKey};
use solap_index::{build_index, join::join, Bitmap, CompressedSidSet, SidSet};
use solap_pattern::{PatternKind, PatternTemplate};

fn fixture() -> (solap_eventdb::EventDb, solap_eventdb::SequenceGroups) {
    fixture_of(60, 2_000)
}

fn fixture_of(i: usize, d: usize) -> (solap_eventdb::EventDb, solap_eventdb::SequenceGroups) {
    let db = generate_synthetic(&SyntheticConfig {
        i,
        l: 20.0,
        theta: 0.9,
        d,
        seed: 5,
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

fn template(syms: &[&str]) -> PatternTemplate {
    let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
    for &s in syms {
        if !bindings.iter().any(|(n, _, _)| *n == s) {
            bindings.push((s, 2, 0));
        }
    }
    PatternTemplate::new(PatternKind::Substring, syms, &bindings).unwrap()
}

fn bench_indexing(c: &mut Criterion) {
    let (db, groups) = fixture();
    let mut g = c.benchmark_group("indexing");
    g.sample_size(10);
    g.bench_function("build-l2", |b| {
        b.iter(|| {
            build_index(&db, groups.iter_sequences(), &template(&["X", "Y"]))
                .unwrap()
                .0
                .list_count()
        })
    });
    let (l2, _) = build_index(&db, groups.iter_sequences(), &template(&["X", "Y"])).unwrap();
    let txyy = template(&["X", "Y", "Y"]);
    let (lyy, _) = build_index(&db, groups.iter_sequences(), &template(&["Y", "Y"])).unwrap();
    g.bench_function("join-l2-lyy", |b| {
        b.iter(|| {
            join(
                &l2,
                &lyy,
                txyy.signature(),
                |_, _| true,
                |c| txyy.is_instantiation(c),
            )
            .list_count()
        })
    });
    // Raw set intersection: sorted lists vs bitmaps.
    let a_ids: Vec<u32> = (0..20_000).step_by(3).collect();
    let b_ids: Vec<u32> = (0..20_000).step_by(5).collect();
    let (la, lb) = (
        SidSet::from_sorted(a_ids.clone()),
        SidSet::from_sorted(b_ids.clone()),
    );
    let (ba, bb) = (
        SidSet::from(a_ids.iter().copied().collect::<Bitmap>()),
        SidSet::from(b_ids.iter().copied().collect::<Bitmap>()),
    );
    let (ca, cb) = (
        SidSet::from(CompressedSidSet::from_sorted(a_ids)),
        SidSet::from(CompressedSidSet::from_sorted(b_ids)),
    );
    // The L2 base build at I100.L20.θ0.9.D8K: one cold `explore_cold`
    // SELECT's BUILDINDEX (152 K windows).
    let (db8k, groups8k) = fixture_of(100, 8_000);
    g.bench_function("build-l2-d8k", |b| {
        b.iter(|| {
            build_index(&db8k, groups8k.iter_sequences(), &template(&["X", "Y"]))
                .unwrap()
                .0
                .list_count()
        })
    });
    g.bench_function("intersect-lists", |b| b.iter(|| la.intersect(&lb).len()));
    g.bench_function("intersect-bitmaps", |b| b.iter(|| ba.intersect(&bb).len()));
    g.bench_function("intersect-compressed", |b| {
        b.iter(|| ca.intersect(&cb).len())
    });
    g.finish();
}

criterion_group!(benches, bench_indexing);
criterion_main!(benches);
