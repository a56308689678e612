//! Index-join algebra (Figure 15 lines 6–9) and the P-ROLL-UP list merge.
//!
//! `L_{i+1}^{(Y1..Yi+1)} = L_i^{(Y1..Yi)} ⋈ L_2^{(Yi,Yi+1)}`: an inverted
//! list is in the join iff it intersects a left list and a right list whose
//! patterns overlap on the shared element (paper §4.2.2: *"l =
//! L2\[v1,v2\] ∩ L2\[v3,v3\] such that … v2 = v3"*). The join produces
//! **candidate** lists; sequences in them must still be verified against the
//! data ("Scan the database to eliminate invalid entries"), which the engine
//! layer does since it owns the matcher.
//!
//! The same function also implements the PREPEND join (`L_2 ⋈ L_m`,
//! overlapping the left pattern's last element with the right pattern's
//! first), since both are "concatenate overlapping patterns, intersect
//! lists".

use std::collections::HashMap;

use solap_eventdb::{LevelValue, Result};
use solap_pattern::TemplateSignature;

use crate::inverted::InvertedIndex;

/// Joins `left` (length `i`) with `right` (length `j`), overlapping the last
/// element of each left pattern with the first element of each right
/// pattern. The candidate pattern is `left ++ right[1..]` (length
/// `i + j - 1`); its candidate list is the intersection of the two lists.
///
/// `admits(p, v)` says whether value `v` may stand at position `p` of the
/// candidate (a position slice): both sides are pruned by it **before**
/// any candidate is formed, so a sliced join enumerates only the lists
/// compatible with the slice. `accept` filters the candidates that remain
/// (e.g. "must instantiate the target template" — for `(X, Y, Y, X)` the
/// fourth element must equal the first). Empty intersections are dropped.
pub fn join(
    left: &InvertedIndex,
    right: &InvertedIndex,
    target_sig: TemplateSignature,
    admits: impl Fn(usize, LevelValue) -> bool,
    accept: impl Fn(&[LevelValue]) -> bool,
) -> InvertedIndex {
    assert_eq!(
        target_sig.m(),
        left.m() + right.m() - 1,
        "target length must be left + right - overlap"
    );
    let admitted = |pattern: &[LevelValue], at: usize| {
        pattern.iter().enumerate().all(|(p, &v)| admits(at + p, v))
    };
    // Bucket the admissible right lists by the first element of their
    // pattern.
    let overlap = left.m() - 1;
    let mut by_first: HashMap<LevelValue, Vec<(&Vec<LevelValue>, &crate::sidset::SidSet)>> =
        HashMap::new();
    for (k, v) in &right.lists {
        if admitted(k, overlap) {
            by_first.entry(k[0]).or_default().push((k, v));
        }
    }
    let mut out = InvertedIndex::new(target_sig);
    let mut candidate: Vec<LevelValue> = Vec::new();
    for (lk, lv) in &left.lists {
        if !admitted(lk, 0) {
            continue;
        }
        let Some(rights) = by_first.get(lk.last().expect("non-empty pattern")) else {
            continue;
        };
        for (rk, rv) in rights {
            candidate.clear();
            candidate.extend_from_slice(lk);
            candidate.extend_from_slice(&rk[1..]);
            if !accept(&candidate) {
                continue;
            }
            let inter = lv.intersect(rv);
            if !inter.is_empty() {
                out.lists.insert(candidate.clone(), inter);
            }
        }
    }
    out
}

/// Merges an index to a coarser abstraction for P-ROLL-UP (§4.2.2 item 4):
/// each pattern is mapped elementwise by `map_value(position, value)` and
/// lists landing on the same coarse pattern are unioned.
///
/// Only legal when the template's symbols are pairwise distinct (the
/// paper's s6 counter-example shows repeated symbols under-approximate);
/// the engine checks that before calling.
pub fn rollup_merge(
    index: &InvertedIndex,
    target_sig: TemplateSignature,
    mut map_value: impl FnMut(usize, LevelValue) -> Result<LevelValue>,
) -> Result<InvertedIndex> {
    assert_eq!(target_sig.m(), index.m());
    let mut out = InvertedIndex::new(target_sig);
    let mut coarse: Vec<LevelValue> = Vec::with_capacity(index.m());
    for (k, v) in &index.lists {
        coarse.clear();
        for (p, &val) in k.iter().enumerate() {
            coarse.push(map_value(p, val)?);
        }
        match out.lists.get_mut(&coarse) {
            Some(existing) => *existing = existing.union(v),
            None => {
                out.lists.insert(coarse.clone(), v.clone());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::build_index;
    use solap_pattern::{PatternKind, PatternTemplate};

    /// Rebuild the Figure 8/10 fixtures locally (unit-test scope).
    fn fig8() -> (solap_eventdb::EventDb, Vec<solap_eventdb::Sequence>) {
        use solap_eventdb::{ColumnType, EventDbBuilder, Value};
        let mut db = EventDbBuilder::new()
            .dimension("location", ColumnType::Str)
            .dimension("action", ColumnType::Str)
            .build()
            .unwrap();
        let seq_defs: [&[&str]; 4] = [
            &[
                "Glenmont", "Pentagon", "Pentagon", "Wheaton", "Wheaton", "Pentagon",
            ],
            &["Pentagon", "Wheaton", "Wheaton", "Pentagon"],
            &["Clarendon", "Pentagon"],
            &["Wheaton", "Clarendon", "Deanwood", "Wheaton"],
        ];
        let mut seqs = Vec::new();
        let mut row = 0u32;
        for (sid, stations) in seq_defs.iter().enumerate() {
            let mut rows = Vec::new();
            for (i, st) in stations.iter().enumerate() {
                let action = if i % 2 == 0 { "in" } else { "out" };
                db.push_row(&[Value::from(*st), Value::from(action)])
                    .unwrap();
                rows.push(row);
                row += 1;
            }
            seqs.push(solap_eventdb::Sequence {
                sid: sid as u32,
                cluster_key: vec![],
                rows,
            });
        }
        (db, seqs)
    }

    fn template(syms: &[&str]) -> PatternTemplate {
        let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
        for &s in syms {
            if !bindings.iter().any(|(n, _, _)| *n == s) {
                bindings.push((s, 0, 0));
            }
        }
        PatternTemplate::new(PatternKind::Substring, syms, &bindings).unwrap()
    }

    fn station(db: &solap_eventdb::EventDb, name: &str) -> u64 {
        db.dict(0).unwrap().lookup(name).unwrap() as u64
    }

    /// Figure 13: L2^(X,Y) ⋈ L2^(Y,Y) candidate lists before verification.
    #[test]
    fn join_produces_figure_13_candidates() {
        let (db, seqs) = fig8();
        let (l2, _) = build_index(&db, &seqs, &template(&["X", "Y"])).unwrap();
        let (lyy, _) = build_index(&db, &seqs, &template(&["Y", "Y"])).unwrap();
        let txyy = template(&["X", "Y", "Y"]);
        let joined = join(
            &l2,
            &lyy,
            txyy.signature(),
            |_, _| true,
            |cand| txyy.is_instantiation(cand),
        );
        let p = station(&db, "Pentagon");
        let w = station(&db, "Wheaton");
        let c = station(&db, "Clarendon");
        let g = station(&db, "Glenmont");
        let d = station(&db, "Deanwood");
        // Figure 13 rows (candidates, pre-verification):
        // l10 Clarendon,Pentagon,Pentagon = {s3}∩{s1} = {} → dropped
        assert!(joined.list(&[c, p, p]).is_none());
        // l11 Glenmont,Pentagon,Pentagon = {s1}
        assert_eq!(joined.list(&[g, p, p]).unwrap().to_vec(), vec![0]);
        // l12 Pentagon,Pentagon,Pentagon = {s1} (false positive, removed by verify)
        assert_eq!(joined.list(&[p, p, p]).unwrap().to_vec(), vec![0]);
        // l13 Wheaton,Pentagon,Pentagon = {s1,s2}∩{s1} = {s1}
        assert_eq!(joined.list(&[w, p, p]).unwrap().to_vec(), vec![0]);
        // l14 Deanwood,Wheaton,Wheaton = {s4}∩{s1,s2} = {} → dropped
        assert!(joined.list(&[d, w, w]).is_none());
        // l15 Pentagon,Wheaton,Wheaton = {s1,s2}
        assert_eq!(joined.list(&[p, w, w]).unwrap().to_vec(), vec![0, 1]);
    }

    /// Figure 14: joining up to (X, Y, Y, X).
    #[test]
    fn join_to_xyyx_yields_figure_14() {
        let (db, seqs) = fig8();
        let (l2, _) = build_index(&db, &seqs, &template(&["X", "Y"])).unwrap();
        let (lyy, _) = build_index(&db, &seqs, &template(&["Y", "Y"])).unwrap();
        let txyy = template(&["X", "Y", "Y"]);
        let l3 = join(
            &l2,
            &lyy,
            txyy.signature(),
            |_, _| true,
            |c| txyy.is_instantiation(c),
        );
        // (Verification would remove s1 from (P,P,P); harmless here since
        // (P,P,P,P) requires an (P,P) suffix join that yields s1 anyway and
        // the final is_instantiation filter applies.)
        let txyyx = template(&["X", "Y", "Y", "X"]);
        let l4 = join(
            &l3,
            &l2,
            txyyx.signature(),
            |_, _| true,
            |c| txyyx.is_instantiation(c),
        );
        let p = station(&db, "Pentagon");
        let w = station(&db, "Wheaton");
        // Figure 14: the only non-empty list is [P,W,W,P] = {s1, s2}.
        assert_eq!(l4.list(&[p, w, w, p]).unwrap().to_vec(), vec![0, 1]);
        // Candidates violating X-repetition must have been filtered.
        for k in l4.lists.keys() {
            assert!(txyyx.is_instantiation(k), "non-instantiation {k:?} leaked");
        }
    }

    /// PREPEND joins a length-2 index on the left.
    #[test]
    fn prepend_join_shape() {
        let (db, seqs) = fig8();
        let (l2, _) = build_index(&db, &seqs, &template(&["X", "Y"])).unwrap();
        let tzxy = template(&["Z", "X", "Y"]);
        let joined = join(
            &l2,
            &l2,
            tzxy.signature(),
            |_, _| true,
            |c| tzxy.is_instantiation(c),
        );
        let g = station(&db, "Glenmont");
        let p = station(&db, "Pentagon");
        let w = station(&db, "Wheaton");
        // s1 = ⟨G,P,P,W,W,P⟩ contains (G,P,P) and (G,P) ∩ (P,P) = {s1}.
        assert_eq!(joined.list(&[g, p, p]).unwrap().to_vec(), vec![0]);
        assert!(
            joined.list(&[g, p, w]).is_some(),
            "candidate may be a false positive"
        );
        let _ = w;
    }

    /// A position slice prunes both sides before candidates are formed and
    /// yields exactly the admitted subset of the unsliced join.
    #[test]
    fn sliced_join_is_the_admitted_subset() {
        let (db, seqs) = fig8();
        let (l2, _) = build_index(&db, &seqs, &template(&["X", "Y"])).unwrap();
        let txyz = template(&["X", "Y", "Z"]);
        let full = join(&l2, &l2, txyz.signature(), |_, _| true, |_| true);
        let (p, w) = (station(&db, "Pentagon"), station(&db, "Wheaton"));
        // Fix X = Pentagon and Z = Wheaton.
        let admits = |pos: usize, v: LevelValue| match pos {
            0 => v == p,
            2 => v == w,
            _ => true,
        };
        let tried = std::cell::Cell::new(0);
        let sliced = join(&l2, &l2, txyz.signature(), admits, |_| {
            tried.set(tried.get() + 1);
            true
        });
        assert!(tried.get() < full.list_count(), "pruned before the loop");
        let expect: Vec<_> = full
            .iter_sorted()
            .into_iter()
            .filter(|(k, _)| k[0] == p && k[2] == w)
            .map(|(k, v)| (k.clone(), v.to_vec()))
            .collect();
        assert!(!expect.is_empty());
        let got: Vec<_> = sliced
            .iter_sorted()
            .into_iter()
            .map(|(k, v)| (k.clone(), v.to_vec()))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn rollup_merge_unions_lists() {
        let (db, seqs) = fig8();
        let (l2, _) = build_index(&db, &seqs, &template(&["X", "Y"])).unwrap();
        // Roll every station up to one of two districts: D10 = {Pentagon,
        // Clarendon} (paper's example), D20 = the rest.
        let p = station(&db, "Pentagon");
        let c = station(&db, "Clarendon");
        let coarse = |_pos: usize, v: LevelValue| -> Result<LevelValue> {
            Ok(if v == p || v == c { 100 } else { 200 })
        };
        let merged = rollup_merge(&l2, l2.sig.clone(), coarse).unwrap();
        // L2[Wheaton,Clarendon] = {s4}, L2[Wheaton,Pentagon] = {s1,s2} →
        // [D20, D10] ⊇ union {s1,s2,s4}; also Wheaton→Pentagon etc.
        let w_d10 = merged.list(&[200, 100]).unwrap().to_vec();
        assert!(w_d10.contains(&0) && w_d10.contains(&1) && w_d10.contains(&3));
        // Counts of lists shrink (9 fine lists → at most 4 coarse).
        assert!(merged.list_count() <= 4);
    }

    #[test]
    #[should_panic(expected = "target length")]
    fn join_length_mismatch_panics() {
        let (db, seqs) = fig8();
        let (l2, _) = build_index(&db, &seqs, &template(&["X", "Y"])).unwrap();
        let t = template(&["X", "Y"]);
        let _ = join(&l2, &l2, t.signature(), |_, _| true, |_| true);
    }
}
