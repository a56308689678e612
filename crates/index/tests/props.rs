//! Property tests for the index crate: sid-set algebra against a BTreeSet
//! model, and the join+filter ladder against directly built indices.

use std::collections::BTreeSet;

use proptest::prelude::*;

use solap_eventdb::{ColumnType, EventDb, EventDbBuilder, Sequence, Value};
use solap_index::{
    build_index, choose_encoding, join::join, join::rollup_merge, Bitmap, CompressedSidSet,
    Encoding, SidSet,
};
use solap_pattern::{MatchPred, Matcher, PatternKind, PatternTemplate};

fn sorted(v: &mut Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v.clone()
}

proptest! {
    /// SidSet union/intersection agree with BTreeSet for every encoding mix.
    #[test]
    fn set_algebra_matches_model(
        mut a in prop::collection::vec(0u32..300, 0..40),
        mut b in prop::collection::vec(0u32..300, 0..40),
        enc in 0u8..9,
    ) {
        let (av, bv) = (sorted(&mut a), sorted(&mut b));
        let model_i: Vec<u32> = {
            let (sa, sb): (BTreeSet<_>, BTreeSet<_>) =
                (av.iter().copied().collect(), bv.iter().copied().collect());
            sa.intersection(&sb).copied().collect()
        };
        let model_u: Vec<u32> = {
            let (sa, sb): (BTreeSet<_>, BTreeSet<_>) =
                (av.iter().copied().collect(), bv.iter().copied().collect());
            sa.union(&sb).copied().collect()
        };
        let make = |v: &[u32], e: u8| -> SidSet {
            match e {
                0 => SidSet::from_sorted(v.to_vec()),
                1 => SidSet::from(v.iter().copied().collect::<Bitmap>()),
                _ => SidSet::from(CompressedSidSet::from_sorted(v.to_vec())),
            }
        };
        let sa = make(&av, enc % 3);
        let sb = make(&bv, (enc / 3) % 3);
        prop_assert_eq!(sa.intersect(&sb).to_vec(), model_i);
        prop_assert_eq!(sa.union(&sb).to_vec(), model_u);
        // Membership agrees too.
        for probe in [0u32, 1, 150, 299] {
            prop_assert_eq!(sa.contains(probe), av.binary_search(&probe).is_ok());
        }
    }
}

fn build_db(seqs: &[Vec<u8>]) -> (EventDb, Vec<Sequence>) {
    let mut db = EventDbBuilder::new()
        .dimension("item", ColumnType::Str)
        .build()
        .unwrap();
    let mut out = Vec::new();
    let mut row = 0u32;
    for (sid, seq) in seqs.iter().enumerate() {
        let mut rows = Vec::new();
        for &sym in seq {
            db.push_row(&[Value::Str(format!("s{}", sym % 5))]).unwrap();
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

fn template(shape: &[usize]) -> PatternTemplate {
    let names = ["A", "B", "C"];
    let syms: Vec<&str> = shape.iter().map(|&d| names[d % 3]).collect();
    let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
    for &s in &syms {
        if !bindings.iter().any(|(n, _, _)| *n == s) {
            bindings.push((s, 0, 0));
        }
    }
    PatternTemplate::new(PatternKind::Substring, &syms, &bindings).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Joining L_{m-1} with L_2 and verifying against the data equals the
    /// directly built L_m — the Figure 15 ladder is lossless.
    #[test]
    fn join_plus_verify_equals_direct(
        seqs in prop::collection::vec(prop::collection::vec(0u8..5, 0..9), 1..8),
        shape in prop::collection::vec(0usize..3, 3..5),
    ) {
        let (db, sequences) = build_db(&seqs);
        let full = template(&shape);
        let m = shape.len();
        // Left: the prefix template of length m-1; right: the trailing pair.
        let prefix = template(&shape[..m - 1]);
        let pair = template(&shape[m - 2..]);
        let (l_prefix, _) = build_index(&db, &sequences, &prefix).unwrap();
        let (l_pair, _) = build_index(&db, &sequences, &pair).unwrap();
        let candidate = join(&l_prefix, &l_pair, full.signature(), |_, _| true, |c| {
            full.is_instantiation(c)
        });
        // Verify candidates against the data.
        let trivial = MatchPred::True;
        let matcher = Matcher::new(&db, &full, &trivial);
        let mut verified: Vec<(Vec<u64>, Vec<u32>)> = Vec::new();
        for (pattern, sids) in &candidate.lists {
            let kept: Vec<u32> = sids
                .iter()
                .filter(|&s| matcher.contains_pattern(&sequences[s as usize], pattern).unwrap())
                .collect();
            if !kept.is_empty() {
                verified.push((pattern.clone(), kept));
            }
        }
        verified.sort();
        let (direct, _) = build_index(&db, &sequences, &full).unwrap();
        let mut expected: Vec<(Vec<u64>, Vec<u32>)> = direct
            .lists
            .iter()
            .map(|(k, v)| (k.clone(), v.to_vec()))
            .collect();
        expected.sort();
        prop_assert_eq!(verified, expected);
    }

    /// Rolling an index up by a value mapping equals building the index at
    /// the coarse level directly — when all symbols are distinct.
    #[test]
    fn rollup_merge_equals_coarse_build(
        seqs in prop::collection::vec(prop::collection::vec(0u8..5, 0..9), 1..8),
    ) {
        let (mut db, sequences) = build_db(&seqs);
        db.set_base_level_name(0, "item");
        db.attach_str_level(0, "parity", |n| {
            let v: u32 = n[1..].parse().unwrap();
            format!("p{}", v % 2)
        })
        .unwrap();
        // Distinct-symbol template (A, B) at both levels.
        let fine = PatternTemplate::new(
            PatternKind::Substring,
            &["A", "B"],
            &[("A", 0, 0), ("B", 0, 0)],
        )
        .unwrap();
        let coarse = PatternTemplate::new(
            PatternKind::Substring,
            &["A", "B"],
            &[("A", 0, 1), ("B", 0, 1)],
        )
        .unwrap();
        let (l_fine, _) = build_index(&db, &sequences, &fine).unwrap();
        let merged = rollup_merge(&l_fine, coarse.signature(), |_pos, v| {
            db.map_up(0, 0, v, 1)
        })
        .unwrap();
        let (l_coarse, _) = build_index(&db, &sequences, &coarse).unwrap();
        let norm = |ix: &solap_index::InvertedIndex| -> Vec<(Vec<u64>, Vec<u32>)> {
            let mut v: Vec<_> = ix.lists.iter().map(|(k, s)| (k.clone(), s.to_vec())).collect();
            v.sort();
            v
        };
        prop_assert_eq!(norm(&merged), norm(&l_coarse));
    }

    /// Every built list holds exactly the sequences containing its
    /// pattern, in the encoding its density calls for.
    #[test]
    fn built_lists_are_exact_and_sealed_by_density(
        seqs in prop::collection::vec(prop::collection::vec(0u8..5, 0..9), 1..8),
        shape in prop::collection::vec(0usize..3, 1..4),
    ) {
        let (db, sequences) = build_db(&seqs);
        let t = template(&shape);
        let (index, scanned) = build_index(&db, &sequences, &t).unwrap();
        prop_assert_eq!(scanned, sequences.len() as u64);
        let trivial = MatchPred::True;
        let matcher = Matcher::new(&db, &t, &trivial);
        for (pattern, set) in &index.lists {
            let holders: Vec<u32> = sequences
                .iter()
                .filter(|s| matcher.contains_pattern(s, pattern).unwrap())
                .map(|s| s.sid)
                .collect();
            prop_assert_eq!(set.to_vec(), holders);
            let sids = set.to_vec();
            let want = choose_encoding(sids.len(), sids.last().copied().unwrap_or(0));
            let got = match set {
                SidSet::List(_) => Encoding::List,
                SidSet::Bitmap(_) => Encoding::Bitmap,
                SidSet::Compressed(_) => Encoding::Compressed,
            };
            prop_assert_eq!(got, want);
        }
    }
}
