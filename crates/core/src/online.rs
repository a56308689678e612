//! Online aggregation for S-OLAP (§6 "Performance").
//!
//! "The online aggregation feature would allow an S-OLAP system to report
//! 'what it knows so far' instead of waiting until the S-OLAP query is
//! fully processed. Such an approximate answer … is periodically refreshed
//! and refined as the computation continues."
//!
//! This module runs the counter-based scan in chunks and, after each chunk,
//! reports a snapshot whose COUNT cells are **scaled up** by the inverse of
//! the fraction of sequences processed — the natural unbiased estimator
//! when sequences are scanned in arbitrary order.

use std::collections::HashMap;

use solap_eventdb::{Error, EventDb, Result, SequenceGroups};
use solap_pattern::{AggValue, Matcher};

use crate::cb::{cell_selected, group_selected};
use crate::cuboid::{CellKey, SCuboid};
use crate::spec::SCuboidSpec;

/// A periodic snapshot passed to the progress callback.
#[derive(Debug, Clone)]
pub struct OnlineSnapshot {
    /// Fraction of sequences processed, in `(0, 1]`.
    pub progress: f64,
    /// The current **estimate** (raw counts scaled by `1 / progress`).
    pub estimate: SCuboid,
}

/// Runs an online COUNT aggregation: `report` is called after every
/// `chunk_size` sequences with a refreshed estimate, and the exact final
/// cuboid is returned. Only COUNT specs are supported (the paper motivates
/// the feature with approximate passenger counts); anything else is an
/// [`Error::InvalidOperation`], as is a zero chunk size.
pub fn online_count(
    db: &EventDb,
    groups: &SequenceGroups,
    spec: &SCuboidSpec,
    chunk_size: usize,
    mut report: impl FnMut(&OnlineSnapshot),
) -> Result<SCuboid> {
    if !matches!(spec.agg, solap_pattern::AggFunc::Count) {
        return Err(Error::InvalidOperation(
            "online aggregation estimates COUNT cuboids only".into(),
        ));
    }
    if chunk_size == 0 {
        return Err(Error::InvalidOperation(
            "online aggregation needs a positive chunk size".into(),
        ));
    }
    let matcher = Matcher::new(db, &spec.template, &spec.mpred);
    let total: usize = groups
        .groups
        .iter()
        .filter(|g| group_selected(spec, &g.key))
        .map(|g| g.sequences.len())
        .sum();
    let mut counts: HashMap<CellKey, u64> = HashMap::new();
    let mut processed = 0usize;
    let mut since_report = 0usize;
    for group in &groups.groups {
        if !group_selected(spec, &group.key) {
            continue;
        }
        for seq in &group.sequences {
            for a in matcher.assignments(seq, spec.restriction)? {
                if !cell_selected(db, spec, &a.cell)? {
                    continue;
                }
                *counts
                    .entry(CellKey {
                        global: group.key.clone(),
                        pattern: a.cell,
                    })
                    .or_default() += 1;
            }
            processed += 1;
            since_report += 1;
            if since_report >= chunk_size && processed < total {
                since_report = 0;
                report(&snapshot(spec, &counts, processed, total));
            }
        }
    }
    let mut exact = SCuboid::new(
        spec.seq.group_by.clone(),
        spec.template.dims.clone(),
        spec.agg,
    );
    let cells = exact.cells_mut();
    for (k, c) in counts {
        cells.insert(k, AggValue::Count(c));
    }
    if let Some(ms) = spec.min_support {
        crate::iceberg::apply_min_support(&mut exact, ms);
    }
    report(&OnlineSnapshot {
        progress: 1.0,
        estimate: exact.clone(),
    });
    Ok(exact)
}

fn snapshot(
    spec: &SCuboidSpec,
    counts: &HashMap<CellKey, u64>,
    processed: usize,
    total: usize,
) -> OnlineSnapshot {
    let progress = processed as f64 / total as f64;
    let scale = 1.0 / progress;
    let mut estimate = SCuboid::new(
        spec.seq.group_by.clone(),
        spec.template.dims.clone(),
        spec.agg,
    );
    let cells = estimate.cells_mut();
    for (k, &c) in counts {
        cells.insert(
            k.clone(),
            AggValue::Count((c as f64 * scale).round() as u64),
        );
    }
    OnlineSnapshot { progress, estimate }
}

/// Convenience: the relative error of an estimate against the exact cuboid,
/// averaged over the exact cuboid's cells (used by tests and the harness to
/// show estimates tightening).
pub fn mean_relative_error(estimate: &SCuboid, exact: &SCuboid) -> f64 {
    if exact.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (k, v) in exact.cells() {
        let e = estimate.cells().get(k).map(|x| x.as_f64()).unwrap_or(0.0);
        let x = v.as_f64();
        total += if x == 0.0 { 0.0 } else { (e - x).abs() / x };
    }
    total / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{
        build_sequence_groups, AttrLevel, ColumnType, EventDbBuilder, SortKey, Value,
    };
    use solap_pattern::{PatternKind, PatternTemplate};

    fn db(n: usize) -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("sid", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("item", ColumnType::Str)
            .build()
            .unwrap();
        // n sequences alternating two shapes so estimates converge.
        for sid in 0..n {
            let items: &[&str] = if sid % 2 == 0 {
                &["a", "b", "c"]
            } else {
                &["b", "c", "a"]
            };
            for (i, it) in items.iter().enumerate() {
                db.push_row(&[
                    Value::Int(sid as i64),
                    Value::Int(i as i64),
                    Value::from(*it),
                ])
                .unwrap();
            }
        }
        db
    }

    fn spec() -> SCuboidSpec {
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

    #[test]
    fn final_result_is_exact() {
        let db = db(40);
        let s = spec();
        let groups = build_sequence_groups(&db, &s.seq).unwrap();
        let online = online_count(&db, &groups, &s, 7, |_| {}).unwrap();
        let mut meter = crate::stats::ScanMeter::new();
        let exact =
            crate::cb::counter_based(&db, &groups, &s, crate::cb::CounterMode::Hash, &mut meter)
                .unwrap();
        assert_eq!(online.cells(), exact.cells());
    }

    #[test]
    fn snapshots_progress_monotonically_and_tighten() {
        let db = db(100);
        let s = spec();
        let groups = build_sequence_groups(&db, &s.seq).unwrap();
        let mut progresses = Vec::new();
        let mut errors = Vec::new();
        let exact = {
            let mut meter = crate::stats::ScanMeter::new();
            crate::cb::counter_based(&db, &groups, &s, crate::cb::CounterMode::Hash, &mut meter)
                .unwrap()
        };
        online_count(&db, &groups, &s, 10, |snap| {
            progresses.push(snap.progress);
            errors.push(mean_relative_error(&snap.estimate, &exact));
        })
        .unwrap();
        assert!(progresses.len() >= 9);
        assert!(progresses.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*progresses.last().unwrap(), 1.0);
        // The data is homogeneous, so even early estimates are close and
        // the final error is exactly zero.
        assert_eq!(*errors.last().unwrap(), 0.0);
        assert!(
            errors[0] < 0.25,
            "early estimate too far off: {}",
            errors[0]
        );
    }

    #[test]
    fn unsupported_inputs_are_typed_errors() {
        let db = db(4);
        let s = spec();
        let groups = build_sequence_groups(&db, &s.seq).unwrap();
        let zero = online_count(&db, &groups, &s, 0, |_| {}).unwrap_err();
        assert_eq!(zero.code(), "invalid_operation");
        let mut sum = spec();
        sum.agg = solap_pattern::AggFunc::Sum(1, solap_pattern::SumMode::AllEvents);
        let bad = online_count(&db, &groups, &sum, 5, |_| {}).unwrap_err();
        assert_eq!(bad.code(), "invalid_operation");
    }

    #[test]
    fn early_estimates_scale_up() {
        let db = db(50);
        let s = spec();
        let groups = build_sequence_groups(&db, &s.seq).unwrap();
        let mut first: Option<OnlineSnapshot> = None;
        online_count(&db, &groups, &s, 5, |snap| {
            if first.is_none() && snap.progress < 1.0 {
                first = Some(snap.clone());
            }
        })
        .unwrap();
        let snap = first.expect("at least one intermediate snapshot");
        // 10% processed → totals should approximate the full total.
        let est_total: u64 = snap
            .estimate
            .cells()
            .values()
            .filter_map(|v| v.as_count())
            .sum();
        assert!(
            (90..=110).contains(&est_total),
            "estimate total {est_total}"
        );
    }
}
