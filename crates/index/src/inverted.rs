//! The inverted index `L_m` and the BUILDINDEX algorithm (Figure 9).

use solap_eventdb::{EventDb, LevelValue, QueryGovernor, Result, Sequence, Sid};
use solap_pattern::{
    Cell, CellCodec, CellMap, CellRestriction, CellTable, MatchPred, Matcher, PatternTemplate,
    TemplateSignature,
};

use crate::sidset::SidSet;

/// Largest code space whose lists BUILDINDEX collects in an array indexed
/// by pattern code; larger spaces collect in a hash map keyed by the code.
const LIST_SLOTS: u64 = 1 << 16;

/// A size-`m` inverted index over one sequence group: pattern → sid set.
///
/// An inverted list `L_m[v1, …, vm]` stores the sids of all sequences that
/// contain the length-`m` pattern `(v1, …, vm)` (as a substring or
/// subsequence, per the signature's kind). Only template instantiations are
/// keyed — for a repeated-symbol template like `(X, Y, Y, X)` the index is
/// `L^T_m`, the template-restricted subset of the paper's notation.
///
/// The lists live in a [`CellMap`] keyed by the pattern's packed code over
/// its *positions* (one radix digit per position, first most significant),
/// so they are stored and iterated in pattern order.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// The structural identity: per-position `(attr, level)` bindings, the
    /// symbol-equality classes, and substring/subsequence kind.
    pub sig: TemplateSignature,
    /// The non-empty inverted lists, each in the encoding
    /// [`crate::sidset::choose_encoding`] picks for its density once the
    /// index is sealed.
    lists: CellMap<SidSet>,
}

impl InvertedIndex {
    /// An empty index with the given identity, keyed under `codec` (one
    /// dimension per position).
    pub fn new(sig: TemplateSignature, codec: CellCodec) -> Self {
        Self::from_lists(sig, CellMap::new(codec))
    }

    /// An index over the given lists.
    pub fn from_lists(sig: TemplateSignature, lists: CellMap<SidSet>) -> Self {
        debug_assert_eq!(lists.codec().arity(), sig.m());
        InvertedIndex { sig, lists }
    }

    /// The lists, keyed by pattern code, in pattern order.
    pub fn lists(&self) -> &CellMap<SidSet> {
        &self.lists
    }

    /// The layout the lists are keyed with.
    pub fn codec(&self) -> &CellCodec {
        self.lists.codec()
    }

    /// Pattern length `m`.
    pub fn m(&self) -> usize {
        self.sig.m()
    }

    /// Number of non-empty lists.
    pub fn list_count(&self) -> usize {
        self.lists.len()
    }

    /// Total number of sid entries across lists.
    pub fn entry_count(&self) -> usize {
        self.lists.values().map(SidSet::len).sum()
    }

    /// Heap bytes — the "Size of II" column of Table 1: the code array,
    /// the list array and every list's own bytes (exact for a sealed
    /// index; see [`CellMap::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.lists.heap_bytes(SidSet::heap_bytes)
    }

    /// The list for a concrete pattern, if non-empty.
    pub fn list(&self, pattern: &[LevelValue]) -> Option<&SidSet> {
        self.lists.get(pattern)
    }

    /// Keeps the lists whose pattern satisfies `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(Cell<'_>) -> bool) {
        self.lists.retain(|pattern, _| keep(pattern));
    }

    /// Appends an index built over strictly later sids: per-pattern lists
    /// are concatenated, so appending shards in sid order reproduces the
    /// lists of one pass over all of them. An index keyed under another
    /// codec (the dictionary grew in between) is re-keyed first.
    pub fn append(&mut self, later: InvertedIndex) {
        let lists = std::mem::replace(&mut self.lists, CellMap::new(CellCodec::wide(0)));
        self.lists = lists.merge(later.lists, |earlier, later| {
            for sid in later.iter() {
                earlier.push(sid);
            }
        });
    }

    /// Canonicalizes every list for long-term storage (see
    /// [`crate::sidset::SidSet::sealed`]): each list settles on the
    /// encoding its final content calls for, whatever encoding a join or
    /// union left it in. Executors call this before caching an index, so
    /// [`InvertedIndex::heap_bytes`] accounts the stored form exactly.
    pub fn seal(&mut self) {
        let lists = std::mem::replace(&mut self.lists, CellMap::new(CellCodec::wide(0)));
        self.lists = lists.map_values(SidSet::sealed);
    }

    /// `(pattern, list)` pairs in pattern order, patterns materialised.
    pub fn iter_sorted(&self) -> Vec<(Vec<LevelValue>, &SidSet)> {
        self.lists.iter().map(|(k, v)| (k.to_vec(), v)).collect()
    }
}

/// BUILDINDEX (Figure 9): scans the sequences of one group and records, for
/// each sequence, every unique pattern instantiation it contains.
///
/// The matching predicate and cell restriction are deliberately **not**
/// consulted — indices are predicate-free so one index serves every query
/// with the same structural signature; predicates are verified at counting
/// time (Figure 11 lines 13–15).
///
/// Returns the index together with the number of sequences scanned (the
/// statistic reported by Table 1 and Figure 16).
pub fn build_index<'a>(
    db: &EventDb,
    sequences: impl IntoIterator<Item = &'a Sequence>,
    template: &PatternTemplate,
) -> Result<(InvertedIndex, u64)> {
    build_index_governed(db, sequences, template, &QueryGovernor::unbounded())
}

/// [`build_index`] under a [`QueryGovernor`]: pattern enumeration ticks per
/// candidate window and each newly created inverted list is charged against
/// the cell budget, sequence by sequence.
pub fn build_index_governed<'a>(
    db: &EventDb,
    sequences: impl IntoIterator<Item = &'a Sequence>,
    template: &PatternTemplate,
    gov: &QueryGovernor,
) -> Result<(InvertedIndex, u64)> {
    let trivial = MatchPred::True;
    let matcher = Matcher::new(db, template, &trivial).with_governor(gov);
    // Pass 1, one visit per window: number the patterns (their packed cell
    // code addresses the table) and log one `(list, sid)` posting per
    // pattern per sequence.
    const UNNUMBERED: u32 = u32::MAX;
    let mut list_of: CellTable<u32> =
        CellTable::new(matcher.codec().clone(), LIST_SLOTS, UNNUMBERED);
    let mut last_sid: Vec<Sid> = Vec::new();
    let mut postings: Vec<(u32, Sid)> = Vec::new();
    let mut scanned = 0u64;
    for seq in sequences {
        scanned += 1;
        let lists_before = last_sid.len();
        matcher.for_each_assignment(seq, CellRestriction::AllMatchedGo, |cell, _| {
            let (list, fresh) = list_of.slot(cell);
            if fresh {
                *list = last_sid.len() as u32;
                last_sid.push(seq.sid);
            } else if std::mem::replace(&mut last_sid[*list as usize], seq.sid) == seq.sid {
                // The sequence already showed this pattern (Figure 9 line 4
                // keeps unique patterns).
                return Ok(());
            }
            postings.push((*list, seq.sid));
            Ok(())
        })?;
        gov.charge_cells((last_sid.len() - lists_before) as u64)?;
    }
    if let Some(rec) = gov.recorder() {
        rec.add(solap_eventdb::Counter::MatchWindows, matcher.take_windows());
    }
    // Pass 2: a counting sort by list keeps each list's sids in scan (sid)
    // order.
    let mut starts = vec![0usize; last_sid.len() + 1];
    for &(list, _) in &postings {
        starts[list as usize + 1] += 1;
    }
    for list in 0..last_sid.len() {
        starts[list + 1] += starts[list];
    }
    let mut cursor = starts.clone();
    let mut sorted: Vec<Sid> = vec![0; postings.len()];
    for &(list, sid) in &postings {
        sorted[cursor[list as usize]] = sid;
        cursor[list as usize] += 1;
    }
    // Each list goes from its slice of the sort straight into its sealed
    // encoding, in cell-code order. With the dimensions in position order
    // (no repeats, no PREPEND reordering) a cell is its own pattern;
    // otherwise each cell is re-keyed as its pattern.
    let lists = list_of.into_map().map_values(|list| {
        let list = list as usize;
        SidSet::sealed_from(&sorted[starts[list]..starts[list + 1]])
    });
    let lists = if template.in_position_order() {
        lists
    } else {
        let positions = lists.codec().select(&template.symbols);
        lists.map_cells(
            positions,
            |cell, pattern| {
                pattern.clear();
                pattern.extend(template.symbols.iter().map(|&d| cell.get(d)));
            },
            |_, _| {},
        )
    };
    Ok((
        InvertedIndex::from_lists(template.signature(), lists),
        scanned,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{ColumnType, EventDbBuilder, Value};
    use solap_pattern::PatternKind;

    /// The Figure 8 sequence group.
    pub(crate) fn fig8() -> (EventDb, Vec<Sequence>) {
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
            seqs.push(Sequence {
                sid: sid as u32,
                cluster_key: vec![],
                rows,
            });
        }
        (db, seqs)
    }

    pub(crate) fn template(db: &EventDb, kind: PatternKind, syms: &[&str]) -> PatternTemplate {
        let _ = db;
        let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
        for &s in syms {
            if !bindings.iter().any(|(n, _, _)| *n == s) {
                bindings.push((s, 0, 0));
            }
        }
        PatternTemplate::new(kind, syms, &bindings).unwrap()
    }

    fn station(db: &EventDb, name: &str) -> u64 {
        db.dict(0).unwrap().lookup(name).unwrap() as u64
    }

    #[test]
    fn l1_matches_figure_10() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Substring, &["X"]);
        let (l1, scanned) = build_index(&db, &seqs, &t).unwrap();
        assert_eq!(scanned, 4);
        let expect = [
            ("Clarendon", vec![2, 3]),
            ("Deanwood", vec![3]),
            ("Glenmont", vec![0]),
            ("Pentagon", vec![0, 1, 2]),
            ("Wheaton", vec![0, 1, 3]),
        ];
        assert_eq!(l1.list_count(), expect.len());
        for (name, sids) in expect {
            assert_eq!(
                l1.list(&[station(&db, name)]).unwrap().to_vec(),
                sids,
                "L1[{name}]"
            );
        }
    }

    #[test]
    fn l2_matches_figure_10() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Substring, &["X", "Y"]);
        let (l2, _) = build_index(&db, &seqs, &t).unwrap();
        let expect = [
            (("Clarendon", "Deanwood"), vec![3]),
            (("Clarendon", "Pentagon"), vec![2]),
            (("Deanwood", "Wheaton"), vec![3]),
            (("Glenmont", "Pentagon"), vec![0]),
            (("Pentagon", "Pentagon"), vec![0]),
            (("Pentagon", "Wheaton"), vec![0, 1]),
            (("Wheaton", "Clarendon"), vec![3]),
            (("Wheaton", "Pentagon"), vec![0, 1]),
            (("Wheaton", "Wheaton"), vec![0, 1]),
        ];
        assert_eq!(
            l2.list_count(),
            expect.len(),
            "Figure 10 has 9 non-empty L2 lists"
        );
        for ((x, y), sids) in expect {
            assert_eq!(
                l2.list(&[station(&db, x), station(&db, y)])
                    .unwrap()
                    .to_vec(),
                sids,
                "L2[{x},{y}]"
            );
        }
        assert_eq!(l2.entry_count(), 12);
        // Exact bytes: 9 codes, 9 list slots, 12 four-byte sids, and the
        // two-dimension codec (two sizes, two strides).
        let slots = 9 * (8 + std::mem::size_of::<crate::sidset::SidSet>());
        let codec = 2 * std::mem::size_of::<Option<u64>>() + 2 * 8;
        assert_eq!(l2.codec().heap_bytes(), codec);
        assert_eq!(l2.heap_bytes(), slots + 12 * 4 + codec);
        assert_eq!(
            l2.heap_bytes(),
            384,
            "the Figure 10 L2, as in EXPERIMENTS.md"
        );
    }

    #[test]
    fn repeated_symbol_template_restricts_lists() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Substring, &["X", "X"]);
        let (lxx, _) = build_index(&db, &seqs, &t).unwrap();
        // Footnote 7: L2^(X,X) = {l5, l9} = (Pentagon,Pentagon), (Wheaton,Wheaton).
        assert_eq!(lxx.list_count(), 2);
        assert!(lxx
            .list(&[station(&db, "Pentagon"), station(&db, "Pentagon")])
            .is_some());
        assert!(lxx
            .list(&[station(&db, "Wheaton"), station(&db, "Wheaton")])
            .is_some());
    }

    /// PREPEND leaves a template whose dimension order is not its position
    /// order; lists are keyed by position all the same.
    #[test]
    fn lists_are_keyed_by_position_not_by_dimension_order() {
        let (db, seqs) = fig8();
        let mut prepended = template(&db, PatternKind::Substring, &["X", "Y"]);
        prepended.symbols = vec![1, 0]; // (Y, X) over dims [X, Y]
        let canonical = PatternTemplate::from_signature(&prepended.signature());
        assert_eq!(canonical.symbols, vec![0, 1]);
        let (a, _) = build_index(&db, &seqs, &prepended).unwrap();
        let (b, _) = build_index(&db, &seqs, &canonical).unwrap();
        assert_eq!(a.lists, b.lists);
        let glenmont_pentagon = [station(&db, "Glenmont"), station(&db, "Pentagon")];
        assert_eq!(a.list(&glenmont_pentagon).unwrap().to_vec(), vec![0]);
    }

    #[test]
    fn subsequence_index_includes_gapped_patterns() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Subsequence, &["X", "Y"]);
        let (l2, _) = build_index(&db, &seqs, &t).unwrap();
        // s0 contains (Glenmont, Wheaton) only as a gapped subsequence.
        let l = l2
            .list(&[station(&db, "Glenmont"), station(&db, "Wheaton")])
            .expect("gapped pattern must be indexed");
        assert_eq!(l.to_vec(), vec![0]);
    }

    #[test]
    fn iter_sorted_is_deterministic() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Substring, &["X", "Y"]);
        let (l2, _) = build_index(&db, &seqs, &t).unwrap();
        let a: Vec<Vec<u64>> = l2.iter_sorted().iter().map(|(k, _)| (*k).clone()).collect();
        let mut b = a.clone();
        b.sort();
        assert_eq!(a, b);
    }
}
