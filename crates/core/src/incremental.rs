//! Incremental update (§6 "Incremental Update").
//!
//! "When a day of new transactions (events) are added to the event
//! database, we could create a new sequence group and precompute the
//! corresponding inverted indices for that day … it is necessary to devise
//! methods to incrementally update the precomputed inverted indices."
//!
//! Two pieces implement that:
//!
//! * [`extend_index`] — appends new sequences to an existing inverted
//!   index without rescanning the old ones (sids must continue the old
//!   range, which holds when a batch of events forms new clusters — e.g.
//!   a new day under day-level clustering).
//! * [`extend_groups`] — extends a [`SequenceGroups`] with the sequences
//!   formed by rows appended after `from_row`, verifying the new events do
//!   **not** touch existing clusters (if they do, the caller must rebuild —
//!   the paper's "may also invalidate the cached sequence groups … of the
//!   same week" caveat).

use std::collections::BTreeMap;

use solap_eventdb::{
    build_sequence_groups, Error, EventDb, LevelValue, Result, RowId, SeqQuerySpec, Sequence,
    SequenceGroups,
};
use solap_index::{build_index, InvertedIndex};
use solap_pattern::PatternTemplate;

/// Appends sequences to an inverted index in place-by-copy: the returned
/// index contains the old lists plus entries for `new_sequences`. New sids
/// must be strictly greater than every sid already indexed (checked).
pub fn extend_index(
    db: &EventDb,
    base: &InvertedIndex,
    new_sequences: &[Sequence],
    template: &PatternTemplate,
) -> Result<InvertedIndex> {
    debug_assert_eq!(base.sig, template.signature());
    let max_old = base
        .lists
        .values()
        .flat_map(|s| s.iter())
        .max()
        .unwrap_or(0);
    if let Some(bad) = new_sequences
        .iter()
        .find(|s| !base.lists.is_empty() && s.sid <= max_old)
    {
        return Err(Error::InvalidOperation(format!(
            "incremental extend requires fresh sids; sid {} is not greater than {}",
            bad.sid, max_old
        )));
    }
    let (fresh, _) = build_index(db, new_sequences, template)?;
    let mut out = base.clone();
    out.append(fresh);
    Ok(out)
}

/// Extends `old` (built before `from_row` rows existed) with the sequences
/// formed by rows `from_row..`, returning the extended groups **and the
/// sids of the newly added sequences**. Fails with
/// [`Error::ClusterInvalidated`] if a new event lands in an existing
/// cluster — the batch then straddles old sequences and a full rebuild is
/// required (the engine's store path catches exactly that variant and
/// falls back to rebuilding on the next query).
///
/// Use the returned sid list to find the new sequences — when a batch
/// lands in a group that is not last in traversal order, *all* sids after
/// it are renumbered to keep the contiguous-per-group invariant, so
/// "sid ≥ old total" does **not** identify the new sequences.
pub fn extend_groups(
    db: &EventDb,
    spec: &SeqQuerySpec,
    old: &SequenceGroups,
    from_row: RowId,
) -> Result<(SequenceGroups, Vec<solap_eventdb::Sid>)> {
    // Cluster keys present in the old groups.
    let mut old_clusters: BTreeMap<&[LevelValue], ()> = BTreeMap::new();
    for seq in old.iter_sequences() {
        old_clusters.insert(&seq.cluster_key, ());
    }
    // Run steps 1–4 over the new rows only, by augmenting the filter with
    // an implicit row bound (we scan manually instead of re-filtering).
    let mut new_cluster_rows: BTreeMap<Vec<LevelValue>, Vec<RowId>> = BTreeMap::new();
    for row in from_row..db.len() as RowId {
        if !spec.filter.eval(db, row)? {
            continue;
        }
        let mut key = Vec::with_capacity(spec.cluster_by.len());
        for al in &spec.cluster_by {
            key.push(db.value_at_level(row, al.attr, al.level)?);
        }
        if old_clusters.contains_key(key.as_slice()) {
            return Err(Error::ClusterInvalidated {
                cluster: format!("{key:?}"),
            });
        }
        new_cluster_rows.entry(key).or_default().push(row);
    }
    let sort_keys: Vec<(u32, bool)> = spec
        .sequence_by
        .iter()
        .map(|k| (k.attr, k.ascending))
        .collect();
    let mut next_sid = old.total_sequences as u32;
    // Group new sequences and merge into a copy of the old structure.
    let mut result = old.clone();
    let mut appended: BTreeMap<Vec<LevelValue>, Vec<Sequence>> = BTreeMap::new();
    for (ckey, mut rows) in new_cluster_rows {
        if !sort_keys.is_empty() {
            rows.sort_unstable_by(|&a, &b| db.cmp_rows(a, b, &sort_keys));
        }
        let first = rows[0];
        let mut gkey = Vec::with_capacity(spec.group_by.len());
        for al in &spec.group_by {
            gkey.push(db.value_at_level(first, al.attr, al.level)?);
        }
        appended.entry(gkey).or_default().push(Sequence {
            sid: 0, // assigned below in deterministic order
            cluster_key: ckey,
            rows,
        });
    }
    // Tag new sequences with provisional sids past the old range so they
    // can be recognised after the lookup rebuild renumbers everything.
    let first_provisional = next_sid;
    for (gkey, mut seqs) in appended {
        for s in &mut seqs {
            s.sid = next_sid;
            next_sid += 1;
        }
        match result.groups.iter_mut().find(|g| g.key == gkey) {
            Some(g) => g.sequences.extend(seqs),
            None => result.groups.push(solap_eventdb::SequenceGroup {
                key: gkey,
                sequences: seqs,
            }),
        }
    }
    let provisional_new: Vec<solap_eventdb::Sid> = (first_provisional..next_sid).collect();
    // Rebuild the sid lookup; this may renumber, so translate the
    // provisional new sids to their final values by position.
    let (rebuilt, mapping) = rebuild_lookup(result);
    let new_sids: Vec<solap_eventdb::Sid> = provisional_new
        .iter()
        .map(|p| mapping.get(p).copied().unwrap_or(*p))
        .collect();
    Ok((rebuilt, new_sids))
}

/// Recomputes the sid lookup of a hand-assembled [`SequenceGroups`]. The
/// engine's lookup assumes contiguous per-group sid ranges, which no longer
/// holds after appends — so this reassembles the groups into a fresh,
/// contiguous numbering **only when needed**, returning the structure (with
/// `sequence(sid)` valid for all sids) plus the old-sid → new-sid mapping
/// of any renumbering performed (empty when numbering was already
/// contiguous).
fn rebuild_lookup(
    mut groups: SequenceGroups,
) -> (
    SequenceGroups,
    BTreeMap<solap_eventdb::Sid, solap_eventdb::Sid>,
) {
    // Check contiguity; if violated, renumber deterministically.
    let mut expected = 0u32;
    let mut contiguous = true;
    for g in &groups.groups {
        for s in &g.sequences {
            if s.sid != expected {
                contiguous = false;
            }
            expected += 1;
        }
    }
    let mut mapping = BTreeMap::new();
    if !contiguous {
        let mut sid = 0u32;
        for g in &mut groups.groups {
            for s in &mut g.sequences {
                if s.sid != sid {
                    mapping.insert(s.sid, sid);
                }
                s.sid = sid;
                sid += 1;
            }
        }
    }
    // Reassemble through the canonical path to refresh offsets.
    let global_dims = groups.global_dims.clone();
    let gs = std::mem::take(&mut groups.groups);
    let mut offsets = Vec::with_capacity(gs.len());
    let mut total = 0u32;
    for g in &gs {
        offsets.push(total);
        total += g.sequences.len() as u32;
    }
    (
        SequenceGroups::from_parts(global_dims, gs, total as usize, offsets),
        mapping,
    )
}

/// Verifies an incremental extension against a from-scratch rebuild —
/// exposed so integration tests and the harness can assert equivalence.
pub fn rebuild_reference(db: &EventDb, spec: &SeqQuerySpec) -> Result<SequenceGroups> {
    build_sequence_groups(db, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{AttrLevel, ColumnType, EventDbBuilder, Pred, SortKey, Value};
    use solap_pattern::PatternKind;

    fn db_with_days(days: &[&[(&str, i64)]]) -> EventDb {
        // (item, day) pairs; cluster by day.
        let mut db = EventDbBuilder::new()
            .dimension("day", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("item", ColumnType::Str)
            .build()
            .unwrap();
        for day in days {
            for (i, (item, d)) in day.iter().enumerate() {
                db.push_row(&[Value::Int(*d), Value::Int(i as i64), Value::from(*item)])
                    .unwrap();
            }
        }
        db
    }

    fn spec() -> SeqQuerySpec {
        SeqQuerySpec {
            filter: Pred::True,
            cluster_by: vec![AttrLevel::new(0, 0)],
            sequence_by: vec![SortKey {
                attr: 1,
                ascending: true,
            }],
            group_by: vec![],
        }
    }

    fn template() -> PatternTemplate {
        PatternTemplate::new(
            PatternKind::Substring,
            &["X", "Y"],
            &[("X", 2, 0), ("Y", 2, 0)],
        )
        .unwrap()
    }

    #[test]
    fn extend_groups_matches_rebuild() {
        let day1: &[(&str, i64)] = &[("a", 1), ("b", 1), ("c", 1)];
        let mut db = db_with_days(&[day1]);
        let old = build_sequence_groups(&db, &spec()).unwrap();
        let from_row = db.len() as u32;
        for (i, item) in ["b", "c", "a"].iter().enumerate() {
            db.push_row(&[Value::Int(2), Value::Int(i as i64), Value::from(*item)])
                .unwrap();
        }
        let (extended, new_sids) = extend_groups(&db, &spec(), &old, from_row).unwrap();
        assert_eq!(new_sids.len(), 1);
        let rebuilt = rebuild_reference(&db, &spec()).unwrap();
        assert_eq!(extended.total_sequences, rebuilt.total_sequences);
        // Same sequences per cluster key (sid numbering may differ).
        let flat = |g: &SequenceGroups| -> Vec<(Vec<u64>, Vec<u32>)> {
            let mut v: Vec<_> = g
                .iter_sequences()
                .map(|s| (s.cluster_key.clone(), s.rows.clone()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(flat(&extended), flat(&rebuilt));
        // sid lookup works for every sid.
        for s in extended.iter_sequences() {
            assert_eq!(extended.sequence(s.sid).unwrap().rows, s.rows);
        }
    }

    #[test]
    fn extend_groups_rejects_straddling_batches() {
        let day1: &[(&str, i64)] = &[("a", 1), ("b", 1)];
        let mut db = db_with_days(&[day1]);
        let old = build_sequence_groups(&db, &spec()).unwrap();
        let from_row = db.len() as u32;
        // New event lands in day 1's existing cluster.
        db.push_row(&[Value::Int(1), Value::Int(9), Value::from("c")])
            .unwrap();
        let err = extend_groups(&db, &spec(), &old, from_row).unwrap_err();
        let Error::ClusterInvalidated { cluster } = err else {
            panic!("expected ClusterInvalidated, got {err:?}");
        };
        assert!(cluster.contains('1'), "cluster key rendered: {cluster}");
    }

    #[test]
    fn extend_index_matches_full_rebuild() {
        let day1: &[(&str, i64)] = &[("a", 1), ("b", 1), ("a", 1)];
        let mut db = db_with_days(&[day1]);
        let old_groups = build_sequence_groups(&db, &spec()).unwrap();
        let t = template();
        let (old_index, _) = build_index(&db, old_groups.iter_sequences(), &t).unwrap();
        let from_row = db.len() as u32;
        for (i, item) in ["b", "a"].iter().enumerate() {
            db.push_row(&[Value::Int(2), Value::Int(i as i64), Value::from(*item)])
                .unwrap();
        }
        let (extended_groups, new_sids) =
            extend_groups(&db, &spec(), &old_groups, from_row).unwrap();
        let new_seqs: Vec<Sequence> = new_sids
            .iter()
            .map(|&sid| extended_groups.sequence(sid).unwrap().clone())
            .collect();
        assert_eq!(new_seqs.len(), 1);
        let extended = extend_index(&db, &old_index, &new_seqs, &t).unwrap();
        let (rebuilt, _) = build_index(&db, extended_groups.iter_sequences(), &t).unwrap();
        assert_eq!(extended.list_count(), rebuilt.list_count());
        for (k, v) in &rebuilt.lists {
            assert_eq!(extended.lists[k].to_vec(), v.to_vec(), "pattern {k:?}");
        }
    }

    #[test]
    fn new_sids_are_correct_even_when_renumbering() {
        // Group by day parity so the new batch lands in a group that is
        // NOT last in traversal order, forcing a renumber.
        let mut db = EventDbBuilder::new()
            .dimension("day", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("item", ColumnType::Str)
            .build()
            .unwrap();
        for day in 0..3i64 {
            for pos in 0..2i64 {
                db.push_row(&[Value::Int(day), Value::Int(pos), Value::from("x")])
                    .unwrap();
            }
        }
        db.attach_int_level(0, "parity", |d| format!("p{}", d % 2))
            .unwrap();
        let spec = SeqQuerySpec {
            filter: Pred::True,
            cluster_by: vec![AttrLevel::new(0, 0)],
            sequence_by: vec![SortKey {
                attr: 1,
                ascending: true,
            }],
            group_by: vec![AttrLevel::new(0, 1)],
        };
        let old = build_sequence_groups(&db, &spec).unwrap();
        assert_eq!(old.groups.len(), 2);
        let from_row = db.len() as u32;
        db.add_int_mapping(0, 4, "p0").unwrap();
        for pos in 0..2i64 {
            db.push_row(&[Value::Int(4), Value::Int(pos), Value::from("y")])
                .unwrap();
        }
        let (ext, new_sids) = extend_groups(&db, &spec, &old, from_row).unwrap();
        assert_eq!(new_sids.len(), 1);
        // The reported new sequence really is the `y` one.
        let s = ext.sequence(new_sids[0]).unwrap();
        assert_eq!(db.value(s.rows[0], 2), Value::from("y"));
        // And the whole structure matches a rebuild.
        let rebuilt = rebuild_reference(&db, &spec).unwrap();
        let flat = |g: &SequenceGroups| -> Vec<(Vec<u64>, Vec<u32>)> {
            let mut v: Vec<_> = g
                .iter_sequences()
                .map(|s| (s.cluster_key.clone(), s.rows.clone()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(flat(&ext), flat(&rebuilt));
        for s in ext.iter_sequences() {
            assert_eq!(
                ext.sequence(s.sid).unwrap().rows,
                s.rows,
                "lookup consistent"
            );
        }
    }

    #[test]
    fn extend_index_rejects_stale_sids() {
        let day1: &[(&str, i64)] = &[("a", 1), ("b", 1)];
        let db = db_with_days(&[day1]);
        let groups = build_sequence_groups(&db, &spec()).unwrap();
        let t = template();
        let (index, _) = build_index(&db, groups.iter_sequences(), &t).unwrap();
        let stale = groups.iter_sequences().next().unwrap().clone();
        assert!(extend_index(&db, &index, &[stale], &t).is_err());
    }
}
