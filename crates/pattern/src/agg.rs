//! Aggregate functions over S-cuboid cells (§3.2 step 6).
//!
//! `COUNT(*)` counts the matched substrings/subsequences assigned to a cell.
//! The paper sketches `SUM` with two semantics — sum over **all** events of
//! the assigned content, or over the **first** event of each assigned
//! content — and notes that other functions can be added once their
//! semantics is defined; this module implements both SUM modes plus AVG,
//! MIN and MAX over a measure attribute.

use std::fmt;

use solap_eventdb::{AttrId, EventDb, Result, Sequence};

use crate::matcher::Content;

/// Which events of the assigned content a measure aggregate reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SumMode {
    /// Every event of the assigned content (`SUM = Σ eᵢ.amount`, the
    /// paper's first formulation).
    AllEvents,
    /// Only the first event of each assigned content (the paper's
    /// alternative formulation).
    FirstEvent,
}

/// The aggregate function of an S-cuboid specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)`.
    Count,
    /// `SUM(measure)` in a [`SumMode`].
    Sum(AttrId, SumMode),
    /// `AVG(measure)` over the events selected by the [`SumMode`].
    Avg(AttrId, SumMode),
    /// `MIN(measure)` over assigned-content events.
    Min(AttrId),
    /// `MAX(measure)` over assigned-content events.
    Max(AttrId),
}

impl AggFunc {
    /// Renders the `SELECT` clause form, e.g. `COUNT(*)` or `SUM(amount)`.
    pub fn render(&self, db: &EventDb) -> String {
        let name = |a: &AttrId| db.schema().column(*a).name.clone();
        match self {
            AggFunc::Count => "COUNT(*)".into(),
            AggFunc::Sum(a, SumMode::AllEvents) => format!("SUM({})", name(a)),
            AggFunc::Sum(a, SumMode::FirstEvent) => format!("SUM-FIRST({})", name(a)),
            AggFunc::Avg(a, SumMode::AllEvents) => format!("AVG({})", name(a)),
            AggFunc::Avg(a, SumMode::FirstEvent) => format!("AVG-FIRST({})", name(a)),
            AggFunc::Min(a) => format!("MIN({})", name(a)),
            AggFunc::Max(a) => format!("MAX({})", name(a)),
        }
    }
}

/// Running state of one cell's aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggState {
    /// Count accumulator.
    Count(u64),
    /// Sum accumulator.
    Sum(f64),
    /// Average accumulator (sum, n).
    Avg(f64, u64),
    /// Minimum accumulator.
    Min(f64),
    /// Maximum accumulator.
    Max(f64),
}

impl AggState {
    /// Fresh state for a function.
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum(..) => AggState::Sum(0.0),
            AggFunc::Avg(..) => AggState::Avg(0.0, 0),
            AggFunc::Min(_) => AggState::Min(f64::INFINITY),
            AggFunc::Max(_) => AggState::Max(f64::NEG_INFINITY),
        }
    }

    /// Folds one assignment's content into the state.
    pub fn update(
        &mut self,
        db: &EventDb,
        func: AggFunc,
        seq: &Sequence,
        content: Content<'_>,
    ) -> Result<()> {
        // The measured events, without materialising them: the matched
        // positions (or every event of the sequence), optionally only the
        // first.
        let measure_rows = |first_only: bool| {
            let n = match content {
                Content::Matched(positions) => positions.len(),
                Content::WholeSequence => seq.rows.len(),
            };
            (0..n.min(if first_only { 1 } else { n })).map(move |k| match content {
                Content::Matched(positions) => seq.rows[positions[k] as usize],
                Content::WholeSequence => seq.rows[k],
            })
        };
        match (self, func) {
            (AggState::Count(c), AggFunc::Count) => *c += 1,
            (AggState::Sum(s), AggFunc::Sum(attr, mode)) => {
                for row in measure_rows(mode == SumMode::FirstEvent) {
                    *s += db.float(row, attr).unwrap_or(0.0);
                }
            }
            (AggState::Avg(s, n), AggFunc::Avg(attr, mode)) => {
                for row in measure_rows(mode == SumMode::FirstEvent) {
                    *s += db.float(row, attr).unwrap_or(0.0);
                    *n += 1;
                }
            }
            (AggState::Min(m), AggFunc::Min(attr)) => {
                for row in measure_rows(false) {
                    let v = db.float(row, attr).unwrap_or(f64::INFINITY);
                    if v < *m {
                        *m = v;
                    }
                }
            }
            (AggState::Max(m), AggFunc::Max(attr)) => {
                for row in measure_rows(false) {
                    let v = db.float(row, attr).unwrap_or(f64::NEG_INFINITY);
                    if v > *m {
                        *m = v;
                    }
                }
            }
            (state, func) => {
                unreachable!("aggregate state {state:?} mismatches function {func:?}")
            }
        }
        Ok(())
    }

    /// Merges another state of the same function (used when groups are
    /// scanned in parallel).
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Avg(s1, n1), AggState::Avg(s2, n2)) => {
                *s1 += s2;
                *n1 += n2;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if b < a {
                    *a = *b;
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if b > a {
                    *a = *b;
                }
            }
            (a, b) => unreachable!("cannot merge {a:?} with {b:?}"),
        }
    }

    /// Finalises the state into a cell value.
    pub fn finish(&self) -> AggValue {
        match self {
            AggState::Count(c) => AggValue::Count(*c),
            AggState::Sum(s) => AggValue::Float(*s),
            AggState::Avg(s, n) => AggValue::Float(if *n == 0 { 0.0 } else { s / *n as f64 }),
            AggState::Min(m) | AggState::Max(m) => AggValue::Float(*m),
        }
    }
}

/// A finalised aggregate value of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggValue {
    /// A count.
    Count(u64),
    /// A float (sum/avg/min/max).
    Float(f64),
}

impl AggValue {
    /// The value as f64 (counts widen).
    pub fn as_f64(&self) -> f64 {
        match self {
            AggValue::Count(c) => *c as f64,
            AggValue::Float(f) => *f,
        }
    }

    /// The value as a count, if it is one.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            AggValue::Count(c) => Some(*c),
            AggValue::Float(_) => None,
        }
    }
}

impl fmt::Display for AggValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggValue::Count(c) => write!(f, "{c}"),
            AggValue::Float(x) => write!(f, "{x:.3}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{AssignedContent, Assignment};
    use solap_eventdb::{ColumnType, EventDbBuilder, Value};

    fn db_with_amounts(amounts: &[f64]) -> (solap_eventdb::EventDb, Sequence) {
        let mut db = EventDbBuilder::new()
            .dimension("page", ColumnType::Str)
            .measure("amount", ColumnType::Float)
            .build()
            .unwrap();
        let mut rows = Vec::new();
        for (i, &a) in amounts.iter().enumerate() {
            db.push_row(&[Value::from(format!("p{i}")), Value::Float(a)])
                .unwrap();
            rows.push(i as u32);
        }
        (
            db,
            Sequence {
                sid: 0,
                cluster_key: vec![],
                rows,
            },
        )
    }

    fn matched(positions: Vec<u32>) -> Assignment {
        Assignment {
            cell: vec![0],
            content: AssignedContent::Matched(positions),
        }
    }

    #[test]
    fn count_counts_assignments() {
        let (db, seq) = db_with_amounts(&[1.0, 2.0]);
        let f = AggFunc::Count;
        let mut st = AggState::new(f);
        st.update(&db, f, &seq, matched(vec![0]).content.view())
            .unwrap();
        st.update(&db, f, &seq, matched(vec![1]).content.view())
            .unwrap();
        assert_eq!(st.finish(), AggValue::Count(2));
    }

    #[test]
    fn sum_all_vs_first() {
        let (db, seq) = db_with_amounts(&[1.0, 2.0, 4.0]);
        let all = AggFunc::Sum(1, SumMode::AllEvents);
        let mut st = AggState::new(all);
        st.update(&db, all, &seq, matched(vec![0, 2]).content.view())
            .unwrap();
        assert_eq!(st.finish(), AggValue::Float(5.0));
        let first = AggFunc::Sum(1, SumMode::FirstEvent);
        let mut st = AggState::new(first);
        st.update(&db, first, &seq, matched(vec![0, 2]).content.view())
            .unwrap();
        st.update(&db, first, &seq, matched(vec![1, 2]).content.view())
            .unwrap();
        assert_eq!(st.finish(), AggValue::Float(3.0));
    }

    #[test]
    fn whole_sequence_content_sums_everything() {
        let (db, seq) = db_with_amounts(&[1.0, 2.0, 4.0]);
        let f = AggFunc::Sum(1, SumMode::AllEvents);
        let mut st = AggState::new(f);
        let a = Assignment {
            cell: vec![0],
            content: AssignedContent::WholeSequence,
        };
        st.update(&db, f, &seq, a.content.view()).unwrap();
        assert_eq!(st.finish(), AggValue::Float(7.0));
    }

    #[test]
    fn avg_min_max() {
        let (db, seq) = db_with_amounts(&[1.0, 3.0, 8.0]);
        let favg = AggFunc::Avg(1, SumMode::AllEvents);
        let mut avg = AggState::new(favg);
        avg.update(&db, favg, &seq, matched(vec![0, 1]).content.view())
            .unwrap();
        assert_eq!(avg.finish(), AggValue::Float(2.0));
        assert_eq!(AggState::new(favg).finish(), AggValue::Float(0.0));
        let fmin = AggFunc::Min(1);
        let mut min = AggState::new(fmin);
        min.update(&db, fmin, &seq, matched(vec![1, 2]).content.view())
            .unwrap();
        assert_eq!(min.finish(), AggValue::Float(3.0));
        let fmax = AggFunc::Max(1);
        let mut max = AggState::new(fmax);
        max.update(&db, fmax, &seq, matched(vec![0, 2]).content.view())
            .unwrap();
        assert_eq!(max.finish(), AggValue::Float(8.0));
    }

    #[test]
    fn merge_combines_partial_states() {
        let mut a = AggState::Count(3);
        a.merge(&AggState::Count(4));
        assert_eq!(a.finish(), AggValue::Count(7));
        let mut s = AggState::Avg(6.0, 2);
        s.merge(&AggState::Avg(2.0, 2));
        assert_eq!(s.finish(), AggValue::Float(2.0));
        let mut m = AggState::Min(5.0);
        m.merge(&AggState::Min(1.0));
        assert_eq!(m.finish(), AggValue::Float(1.0));
    }

    #[test]
    fn merge_is_associative_with_fresh_state_as_identity() {
        // The parallel path relies on merge being associative (workers may
        // be merged in any grouping, as long as chunk ORDER is fixed) and
        // on `AggState::new` being a left/right identity for every variant.
        let triples: [(AggFunc, [AggState; 3]); 5] = [
            (
                AggFunc::Count,
                [AggState::Count(2), AggState::Count(0), AggState::Count(5)],
            ),
            (
                AggFunc::Sum(1, SumMode::AllEvents),
                [AggState::Sum(1.5), AggState::Sum(2.25), AggState::Sum(0.5)],
            ),
            (
                AggFunc::Avg(1, SumMode::AllEvents),
                [
                    AggState::Avg(1.5, 2),
                    AggState::Avg(4.0, 1),
                    AggState::Avg(0.5, 3),
                ],
            ),
            (
                AggFunc::Min(1),
                [AggState::Min(3.0), AggState::Min(-1.0), AggState::Min(7.0)],
            ),
            (
                AggFunc::Max(1),
                [AggState::Max(3.0), AggState::Max(-1.0), AggState::Max(7.0)],
            ),
        ];
        for (f, [a, b, c]) in triples {
            // (a ⊕ b) ⊕ c
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            // a ⊕ (b ⊕ c)
            let mut bc = b;
            bc.merge(&c);
            let mut right = a;
            right.merge(&bc);
            assert_eq!(left.finish(), right.finish(), "{f:?} not associative");
            // identity on both sides
            let mut id_left = AggState::new(f);
            id_left.merge(&a);
            let mut id_right = a;
            id_right.merge(&AggState::new(f));
            assert_eq!(id_left.finish(), a.finish(), "{f:?} left identity");
            assert_eq!(id_right.finish(), a.finish(), "{f:?} right identity");
        }
    }

    #[test]
    fn sharded_updates_merged_in_chunk_order_equal_sequential() {
        // State-level model of counter_based_parallel: split one cell's
        // assignment stream into chunks, fold each into a fresh partial,
        // merge partials in chunk order — identical result to the single
        // sequential fold. Dyadic measures make SUM/AVG bit-exact.
        let amounts: Vec<f64> = (0..12).map(|k| (k as f64) + 0.5).collect();
        let (db, seq) = db_with_amounts(&amounts);
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum(1, SumMode::AllEvents),
            AggFunc::Avg(1, SumMode::AllEvents),
            AggFunc::Min(1),
            AggFunc::Max(1),
        ];
        let assignments: Vec<Assignment> =
            (0..12).map(|p| matched(vec![p, (p + 5) % 12])).collect();
        for f in funcs {
            let mut sequential = AggState::new(f);
            for a in &assignments {
                sequential.update(&db, f, &seq, a.content.view()).unwrap();
            }
            for chunk in [1usize, 3, 5, 12] {
                let mut merged = AggState::new(f);
                for part in assignments.chunks(chunk) {
                    let mut local = AggState::new(f);
                    for a in part {
                        local.update(&db, f, &seq, a.content.view()).unwrap();
                    }
                    merged.merge(&local);
                }
                assert_eq!(merged.finish(), sequential.finish(), "{f:?} chunk={chunk}");
            }
        }
    }

    #[test]
    fn render_and_display() {
        let (db, _) = db_with_amounts(&[0.0]);
        assert_eq!(AggFunc::Count.render(&db), "COUNT(*)");
        assert_eq!(
            AggFunc::Sum(1, SumMode::AllEvents).render(&db),
            "SUM(amount)"
        );
        assert_eq!(AggValue::Count(7).to_string(), "7");
        assert_eq!(AggValue::Float(1.5).to_string(), "1.500");
        assert_eq!(AggValue::Count(7).as_f64(), 7.0);
        assert_eq!(AggValue::Count(7).as_count(), Some(7));
        assert_eq!(AggValue::Float(1.0).as_count(), None);
    }
}
