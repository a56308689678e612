//! The §6 incremental-update extension: "when a day of new transactions
//! (events) are added to the event database, we could create a new sequence
//! group and precompute the corresponding inverted indices for that day" —
//! here, the day's new sequences are appended to an existing inverted index
//! without rescanning history, and the result is verified against a full
//! rebuild.
//!
//! Run with: `cargo run --release --example incremental_update`

use s_olap::core::ingest::{extend_groups, extend_index};
use s_olap::index::build_index;
use s_olap::prelude::*;

fn main() {
    // Day 1..5 of transit data.
    let mut db = s_olap::datagen::generate_transit(&s_olap::datagen::TransitConfig {
        passengers: 800,
        days: 5,
        ..Default::default()
    })
    .expect("valid config");

    let template = PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y"],
        &[
            ("X", db.attr("location").unwrap(), 0),
            ("Y", db.attr("location").unwrap(), 0),
        ],
    )
    .expect("valid template");
    let seq_spec = s_olap::eventdb::SeqQuerySpec {
        filter: Pred::True,
        cluster_by: vec![
            AttrLevel::new(db.attr("card-id").unwrap(), 0),
            AttrLevel::new(db.attr("time").unwrap(), 1), // AT day
        ],
        sequence_by: vec![SortKey {
            attr: db.attr("time").unwrap(),
            ascending: true,
        }],
        group_by: vec![],
    };

    let groups = s_olap::eventdb::build_sequence_groups(&db, &seq_spec).expect("groups");
    let (index, scanned) = build_index(&db, groups.iter_sequences(), &template).expect("build");
    println!(
        "day 1-5: {} sequences, L2 has {} lists / {} entries ({} KiB), {} sequences scanned",
        groups.total_sequences,
        index.list_count(),
        index.entry_count(),
        index.heap_bytes() / 1024,
        scanned
    );

    // Day 6 arrives: generate it separately and append its events.
    let day6 = s_olap::datagen::generate_transit(&s_olap::datagen::TransitConfig {
        passengers: 800,
        days: 1,
        seed: 99,
        ..Default::default()
    })
    .expect("valid config");
    let from_row = db.len() as u32;
    let day_shift = 6 * s_olap::eventdb::time::SECS_PER_DAY;
    for row in 0..day6.len() as u32 {
        let mut values: Vec<Value> = (0..day6.schema().len() as u32)
            .map(|a| day6.value(row, a))
            .collect();
        if let Value::Time(t) = values[0] {
            values[0] = Value::Time(t + day_shift);
        }
        db.push_row(&values).expect("append");
    }
    println!("appended day 6: {} new events", db.len() as u32 - from_row);

    // Incrementally extend the sequence groups and the inverted index.
    let (extended_groups, new_sids) =
        extend_groups(&db, &seq_spec, &groups, from_row..db.len() as u32)
            .expect("day 6 forms only new clusters");
    let new_seqs: Vec<_> = new_sids
        .iter()
        .map(|&sid| extended_groups.sequence(sid).expect("fresh sid").clone())
        .collect();
    let extended = extend_index(&db, &index, &new_seqs, &template).expect("extend");
    println!(
        "incremental: +{} sequences scanned (only day 6), index now {} lists / {} entries",
        new_seqs.len(),
        extended.list_count(),
        extended.entry_count()
    );

    // Verify against a full rebuild.
    let (rebuilt, rescanned) =
        build_index(&db, extended_groups.iter_sequences(), &template).expect("rebuild");
    assert_eq!(extended.list_count(), rebuilt.list_count());
    for (k, v) in &rebuilt.lists {
        assert_eq!(extended.lists[k].to_vec(), v.to_vec());
    }
    println!(
        "verified: incremental index ≡ full rebuild (which rescanned {} sequences — {}× more)",
        rescanned,
        rescanned / new_seqs.len().max(1) as u64
    );
}
