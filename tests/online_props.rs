//! Property tests for online aggregation (§6 "Performance"): for random
//! datasets and chunk sizes, progress snapshots are strictly monotone and
//! end at 1.0, and the final online cuboid is **identical** to the batch
//! counter-based result — the estimator may wobble mid-flight, but it must
//! land exactly.

use proptest::prelude::*;

use s_olap::core::online::{mean_relative_error, online_count};
use s_olap::core::SCuboidSpec;
use s_olap::eventdb::{
    build_sequence_groups, AttrLevel, ColumnType, EventDb, EventDbBuilder, SortKey, Value,
};
use s_olap::pattern::{PatternKind, PatternTemplate};

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
                Value::Str(format!("s{sym}")),
            ])
            .unwrap();
        }
    }
    db
}

fn count_spec(kind: PatternKind) -> SCuboidSpec {
    let t = PatternTemplate::new(kind, &["X", "Y"], &[("X", 2, 0), ("Y", 2, 0)]).unwrap();
    SCuboidSpec::new(
        t,
        vec![AttrLevel::new(0, 0)],
        vec![SortKey {
            attr: 1,
            ascending: true,
        }],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn online_final_matches_batch_cb_and_progress_is_monotone(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..8), 1..16),
        chunk in 1usize..12,
        subsequence in any::<bool>(),
    ) {
        let db = build_db(&seqs);
        let kind = if subsequence { PatternKind::Subsequence } else { PatternKind::Substring };
        let spec = count_spec(kind);
        let groups = build_sequence_groups(&db, &spec.seq).unwrap();

        let mut progresses = Vec::new();
        let online = online_count(&db, &groups, &spec, chunk, |snap| {
            progresses.push(snap.progress);
        }).unwrap();

        // Snapshots march strictly forward and always finish at 1.0.
        prop_assert!(!progresses.is_empty());
        prop_assert!(progresses.iter().all(|p| *p > 0.0 && *p <= 1.0));
        prop_assert!(progresses.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(*progresses.last().unwrap(), 1.0);

        // The final cuboid is the exact batch CB answer, cell for cell.
        let mut meter = s_olap::core::stats::ScanMeter::new();
        let exact = s_olap::core::cb::counter_based(
            &db, &groups, &spec, s_olap::core::cb::CounterMode::Auto, &mut meter,
        ).unwrap();
        prop_assert_eq!(&online.cells(), &exact.cells());
        prop_assert_eq!(mean_relative_error(&online, &exact), 0.0);
    }
}
