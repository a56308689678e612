//! Property tests for the matcher: occurrence-set relationships between
//! template kinds and restrictions, and consistency between the matcher's
//! several entry points (enumeration, containment, unique-pattern listing,
//! concrete-cell queries).

use std::collections::HashSet;

use proptest::prelude::*;

use solap_eventdb::{CmpOp, ColumnType, EventDb, EventDbBuilder, Sequence, Value};
use solap_pattern::{CellRestriction, MatchPred, Matcher, PatternKind, PatternTemplate};

fn build(seqs: &[Vec<(u8, bool)>]) -> (EventDb, Vec<Sequence>) {
    let mut db = EventDbBuilder::new()
        .dimension("item", ColumnType::Str)
        .dimension("tag", ColumnType::Str)
        .build()
        .unwrap();
    let mut out = Vec::new();
    let mut row = 0u32;
    for (sid, seq) in seqs.iter().enumerate() {
        let mut rows = Vec::new();
        for &(sym, tag) in seq {
            db.push_row(&[
                Value::Str(format!("s{}", sym % 4)),
                Value::Str(if tag { "a".into() } else { "b".into() }),
            ])
            .unwrap();
            rows.push(row);
            row += 1;
        }
        out.push(Sequence {
            sid: sid as u32,
            cluster_key: vec![],
            rows,
        });
    }
    (db, out)
}

fn template(kind: PatternKind, shape: &[usize]) -> PatternTemplate {
    let names = ["A", "B", "C"];
    let syms: Vec<&str> = shape.iter().map(|&d| names[d % 3]).collect();
    let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
    for &s in &syms {
        if !bindings.iter().any(|(n, _, _)| *n == s) {
            bindings.push((s, 0, 0));
        }
    }
    PatternTemplate::new(kind, &syms, &bindings).unwrap()
}

type Case = (Vec<Vec<(u8, bool)>>, Vec<usize>, Option<(usize, bool)>);

fn case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(prop::collection::vec((0u8..4, any::<bool>()), 0..9), 1..6),
        prop::collection::vec(0usize..3, 1..4),
        prop::option::of((0usize..3, any::<bool>())),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Substring occurrences are a subset of subsequence occurrences.
    #[test]
    fn substring_subset_of_subsequence((seqs, shape, _) in case()) {
        let (db, sequences) = build(&seqs);
        let trivial = MatchPred::True;
        let sub = template(PatternKind::Substring, &shape);
        let sseq = template(PatternKind::Subsequence, &shape);
        let m_sub = Matcher::new(&db, &sub, &trivial);
        let m_seq = Matcher::new(&db, &sseq, &trivial);
        for s in &sequences {
            let mut sub_occ = HashSet::new();
            m_sub.for_each_occurrence(s, |o| { sub_occ.insert(o.positions.clone()); true }).unwrap();
            let mut seq_occ = HashSet::new();
            m_seq.for_each_occurrence(s, |o| { seq_occ.insert(o.positions.clone()); true }).unwrap();
            prop_assert!(sub_occ.is_subset(&seq_occ));
        }
    }

    /// A predicate can only remove occurrences, and every surviving
    /// occurrence's events satisfy it.
    #[test]
    fn predicates_filter_monotonically((seqs, shape, pred) in case()) {
        let (db, sequences) = build(&seqs);
        let t = template(PatternKind::Substring, &shape);
        let trivial = MatchPred::True;
        let p = match pred {
            Some((pos, want)) if pos < t.m() =>
                MatchPred::cmp(pos, 1, CmpOp::Eq, if want { "a" } else { "b" }),
            _ => MatchPred::True,
        };
        let m_free = Matcher::new(&db, &t, &trivial);
        let m_pred = Matcher::new(&db, &t, &p);
        for s in &sequences {
            let mut free = HashSet::new();
            m_free.for_each_occurrence(s, |o| { free.insert(o.positions.clone()); true }).unwrap();
            let mut kept = HashSet::new();
            m_pred.for_each_occurrence(s, |o| {
                kept.insert(o.positions.clone());
                // Verify the predicate actually holds on the matched rows.
                let rows: Vec<u32> = o.positions.iter().map(|&i| s.rows[i as usize]).collect();
                assert!(p.eval(&db, &rows).unwrap());
                true
            }).unwrap();
            prop_assert!(kept.is_subset(&free));
        }
    }

    /// Left-maximality keeps exactly the distinct cells of all-matched, and
    /// picks each cell's leftmost occurrence.
    #[test]
    fn left_maximality_is_leftmost_distinct((seqs, shape, _) in case()) {
        let (db, sequences) = build(&seqs);
        let trivial = MatchPred::True;
        for kind in [PatternKind::Substring, PatternKind::Subsequence] {
            let t = template(kind, &shape);
            let m = Matcher::new(&db, &t, &trivial);
            for s in &sequences {
                let all = m.assignments(s, CellRestriction::AllMatchedGo).unwrap();
                let lm = m.assignments(s, CellRestriction::LeftMaximalityMatchedGo).unwrap();
                let all_cells: HashSet<_> = all.iter().map(|a| a.cell.clone()).collect();
                let lm_cells: HashSet<_> = lm.iter().map(|a| a.cell.clone()).collect();
                prop_assert_eq!(&all_cells, &lm_cells);
                prop_assert_eq!(lm.len(), lm_cells.len(), "one assignment per cell");
                // Leftmost: no all-matched occurrence of the same cell
                // starts earlier than the left-max one.
                for a in &lm {
                    let solap_pattern::AssignedContent::Matched(pos) = &a.content else {
                        unreachable!("matched-go content");
                    };
                    for other in all.iter().filter(|o| o.cell == a.cell) {
                        let solap_pattern::AssignedContent::Matched(opos) = &other.content else {
                            unreachable!()
                        };
                        prop_assert!(pos <= opos, "not leftmost: {:?} vs {:?}", pos, opos);
                    }
                }
            }
        }
    }

    /// `contains_pattern` agrees with occurrence enumeration: every value
    /// string an occurrence instantiates is contained, an absent one is not.
    #[test]
    fn entry_points_agree((seqs, shape, _) in case()) {
        let (db, sequences) = build(&seqs);
        let trivial = MatchPred::True;
        for kind in [PatternKind::Substring, PatternKind::Subsequence] {
            let t = template(kind, &shape);
            let m = Matcher::new(&db, &t, &trivial);
            for s in &sequences {
                let mut enumerated: HashSet<Vec<u64>> = HashSet::new();
                m.for_each_occurrence(s, |o| {
                    enumerated.insert(t.expand_cell(&o.cell));
                    true
                }).unwrap();
                for pat in &enumerated {
                    prop_assert!(m.contains_pattern(s, pat).unwrap());
                }
                // And a value string not present is not "contained".
                let absent = vec![u64::MAX; t.m()];
                prop_assert!(!m.contains_pattern(s, &absent).unwrap());
            }
        }
    }
}
