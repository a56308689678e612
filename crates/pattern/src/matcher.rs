//! Occurrence enumeration and cell assignment.
//!
//! Given a data sequence and a pattern template, the matcher enumerates
//! *occurrences* — position lists whose level values instantiate the
//! template and whose events satisfy the matching predicate — and converts
//! them to *cell assignments* under a [`CellRestriction`]:
//!
//! * left-maximality-matched-go: the leftmost satisfying occurrence per
//!   cell (each sequence contributes at most once per cell — this is what
//!   makes Figure 12 of the paper count `(Pentagon, Wheaton) = 2`);
//! * all-matched-go: every satisfying occurrence;
//! * left-maximality-data-go: leftmost per cell, but the whole sequence is
//!   the assigned content.
//!
//! There is one substring window loop and one subsequence DFS (`scan`);
//! BUILDINDEX, the counter scan, [`Matcher::assignments`] and index
//! verification are all visitors of it. The per-window path
//! allocates nothing: lane values, the cell under construction and the
//! matched positions live in buffers the matcher reuses across sequences.

use std::cell::Cell;

use solap_eventdb::{EventDb, LevelValue, QueryGovernor, Result, RowId, Sequence};

use crate::code::{CellCodec, CellTable};
use crate::mpred::MatchPred;
use crate::template::{CellRestriction, PatternKind, PatternTemplate};

/// How many distinct cells of one sequence the left-maximality dedupe keeps
/// in its linear scratch before spilling into a hash table. A substring
/// template yields at most one cell per window, so ordinary sequences never
/// spill.
const SEEN_INLINE: usize = 64;

/// One occurrence of a template in a sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Occurrence {
    /// Indices into the sequence's event list, strictly increasing;
    /// contiguous for substring templates.
    pub positions: Vec<u32>,
    /// The cell key: one value per pattern dimension.
    pub cell: Vec<LevelValue>,
}

/// What a cell receives when a sequence is assigned to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignedContent {
    /// The matched events (their indices into the sequence).
    Matched(Vec<u32>),
    /// The whole data sequence (the *data-go* restrictions).
    WholeSequence,
}

impl AssignedContent {
    /// The borrowed form aggregate updates read.
    pub fn view(&self) -> Content<'_> {
        match self {
            AssignedContent::Matched(positions) => Content::Matched(positions),
            AssignedContent::WholeSequence => Content::WholeSequence,
        }
    }
}

/// [`AssignedContent`] borrowed from the matcher's buffers — what
/// [`Matcher::for_each_assignment`] hands its visitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content<'a> {
    /// The matched events (their indices into the sequence).
    Matched(&'a [u32]),
    /// The whole data sequence.
    WholeSequence,
}

/// A (cell, content) assignment produced for one sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The cell key (pattern-dimension values).
    pub cell: Vec<LevelValue>,
    /// The content assigned.
    pub content: AssignedContent,
}

/// A matcher binds a database, a template and a matching predicate, and
/// amortises per-sequence level-value extraction across its methods.
pub struct Matcher<'a> {
    db: &'a EventDb,
    template: &'a PatternTemplate,
    mpred: &'a MatchPred,
    /// Distinct `(attr, level)` pairs the template reads, and the index of
    /// each position's pair within that list.
    lanes: Vec<(u32, usize)>,
    pos_lane: Vec<usize>,
    /// Whether a position is the first of its dimension: it sets the
    /// dimension's cell value, later positions must repeat it.
    binds: Vec<bool>,
    codec: CellCodec,
    /// Optional per-query governor ticked per match-window / DFS node, so
    /// explosive occurrence enumeration stays abortable.
    gov: Option<&'a QueryGovernor>,
    /// Candidate windows / DFS nodes attempted since the last
    /// [`Matcher::take_windows`] (observability; matchers are per-thread,
    /// so a non-atomic cell suffices).
    windows: Cell<u64>,
    /// Buffers reused from one sequence to the next; taken out for the
    /// duration of a scan.
    scratch: Cell<Scratch>,
    /// Left-maximality dedupe state, reused from one sequence to the next.
    seen: Cell<Seen>,
}

/// The cells one sequence has been assigned to so far: the codes of the
/// first [`SEEN_INLINE`] in a scratch searched linearly (no hashing, no
/// allocation), the rest — subsequence templates over long sequences, and
/// cells too wide for a code — stamped with the sequence's epoch in a table
/// kept across sequences.
#[derive(Default)]
struct Seen {
    inline: Vec<u64>,
    spill: Option<CellTable<u32>>,
    epoch: u32,
}

impl Seen {
    fn next_sequence(&mut self) {
        self.inline.clear();
        if self.epoch == u32::MAX {
            self.spill = None;
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Whether `cell` is new to the current sequence; remembers it.
    #[inline]
    fn first_time(&mut self, cell: &[LevelValue], codec: &CellCodec) -> bool {
        if codec.space().is_some() {
            let code = codec.pack(cell);
            if self.inline.contains(&code) {
                return false;
            }
            if self.inline.len() < SEEN_INLINE {
                self.inline.push(code);
                return true;
            }
        }
        let spill = self
            .spill
            .get_or_insert_with(|| CellTable::new(codec.clone(), 0, 0));
        let stamp = spill.slot(cell).0;
        std::mem::replace(stamp, self.epoch) != self.epoch
    }
}

#[derive(Default)]
struct Scratch {
    /// Lane `l` of the current sequence at `[l * len..][..len]`.
    values: Vec<LevelValue>,
    cell: Vec<LevelValue>,
    positions: Vec<u32>,
    rows: Vec<RowId>,
}

/// One scan in flight: the sequence, the scratch buffers, what to match
/// and whom to tell.
struct Walk<'w, F> {
    seq: &'w Sequence,
    len: usize,
    /// A fixed value per position (verification), or free enumeration.
    want: Option<&'w [LevelValue]>,
    /// Whether the matching predicate is evaluated.
    pred: bool,
    values: &'w [LevelValue],
    cell: &'w mut [LevelValue],
    positions: &'w mut [u32],
    rows: &'w mut [RowId],
    visit: &'w mut F,
    stop: bool,
}

impl<'a> Matcher<'a> {
    /// Creates a matcher. `mpred` placeholder positions must fit the
    /// template length.
    pub fn new(db: &'a EventDb, template: &'a PatternTemplate, mpred: &'a MatchPred) -> Self {
        debug_assert!(
            mpred.max_pos().is_none_or(|p| p < template.m()),
            "matching predicate references placeholder beyond template length"
        );
        let mut lanes: Vec<(u32, usize)> = Vec::new();
        let mut pos_lane = Vec::with_capacity(template.m());
        let mut binds = Vec::with_capacity(template.m());
        for (p, &d) in template.symbols.iter().enumerate() {
            let dim = &template.dims[d];
            let key = (dim.attr, dim.level);
            let lane = match lanes.iter().position(|&l| l == key) {
                Some(i) => i,
                None => {
                    lanes.push(key);
                    lanes.len() - 1
                }
            };
            pos_lane.push(lane);
            binds.push(!template.symbols[..p].contains(&d));
        }
        Matcher {
            db,
            template,
            mpred,
            lanes,
            pos_lane,
            binds,
            codec: CellCodec::new(db, &template.dims),
            gov: None,
            windows: Cell::new(0),
            scratch: Cell::default(),
            seen: Cell::default(),
        }
    }

    /// Attaches a [`QueryGovernor`]; enumeration loops then tick it once
    /// per candidate window or DFS node and abort when a limit trips.
    pub fn with_governor(mut self, gov: &'a QueryGovernor) -> Self {
        self.gov = Some(gov);
        self
    }

    #[inline]
    fn tick(&self) -> Result<()> {
        self.windows.set(self.windows.get() + 1);
        match self.gov {
            Some(g) => g.tick(),
            None => Ok(()),
        }
    }

    /// Returns and resets the number of candidate match windows / DFS nodes
    /// attempted since the last call (flushed into the query recorder by
    /// construction loops).
    pub fn take_windows(&self) -> u64 {
        self.windows.replace(0)
    }

    /// The template this matcher works with.
    pub fn template(&self) -> &PatternTemplate {
        self.template
    }

    /// The packed-code layout of this template's cells.
    pub fn codec(&self) -> &CellCodec {
        &self.codec
    }

    /// The one enumeration: calls `visit(cell, positions)` for every
    /// occurrence of the template in `seq`, leftmost-first, until it
    /// returns `false`. `want` fixes the value at every position instead —
    /// index verification, which ignores the matching predicate.
    fn scan<F>(&self, seq: &Sequence, want: Option<&[LevelValue]>, visit: &mut F) -> Result<()>
    where
        F: FnMut(&[LevelValue], &[u32]) -> Result<bool>,
    {
        let (m, len) = (self.template.m(), seq.rows.len());
        if len < m {
            return Ok(());
        }
        let mut s = self.scratch.take();
        let out = self.gather(seq, &mut s).and_then(|()| {
            let mut walk = Walk {
                seq,
                len,
                want,
                pred: want.is_none() && !self.mpred.is_true(),
                values: &s.values,
                cell: &mut s.cell,
                positions: &mut s.positions,
                rows: &mut s.rows,
                visit,
                stop: false,
            };
            match self.template.kind {
                PatternKind::Substring => self.windows(&mut walk),
                PatternKind::Subsequence => self.dfs(&mut walk, 0, 0),
            }
        });
        self.scratch.set(s);
        out
    }

    /// One lane gather per sequence, into the reused buffer.
    fn gather(&self, seq: &Sequence, s: &mut Scratch) -> Result<()> {
        s.values.clear();
        for &(attr, level) in &self.lanes {
            // solint: allow(governor-tick) O(rows) lane materialization per sequence; the window/DFS scan that consumes it ticks
            for &row in &seq.rows {
                s.values.push(self.db.value_at_level(row, attr, level)?);
            }
        }
        s.cell.resize(self.template.n(), 0);
        s.positions.resize(self.template.m(), 0);
        s.rows.resize(self.template.m(), 0);
        Ok(())
    }

    /// Tries event `i` at position `p`: its value must be the wanted one
    /// and the one its dimension already carries (repeated symbols).
    #[inline]
    fn bind<F>(&self, w: &mut Walk<'_, F>, p: usize, i: usize) -> bool {
        let v = w.values[self.pos_lane[p] * w.len + i];
        let d = self.template.symbols[p];
        if w.want.is_some_and(|want| want[p] != v) || (!self.binds[p] && w.cell[d] != v) {
            return false;
        }
        w.cell[d] = v;
        w.positions[p] = i as u32;
        w.rows[p] = w.seq.rows[i];
        true
    }

    fn windows<F>(&self, w: &mut Walk<'_, F>) -> Result<()>
    where
        F: FnMut(&[LevelValue], &[u32]) -> Result<bool>,
    {
        let m = self.template.m();
        'windows: for start in 0..=(w.len - m) {
            self.tick()?;
            for p in 0..m {
                if !self.bind(w, p, start + p) {
                    continue 'windows;
                }
            }
            if w.pred && !self.mpred.eval(self.db, w.rows)? {
                continue;
            }
            if !(w.visit)(w.cell, w.positions)? {
                break;
            }
        }
        Ok(())
    }

    fn dfs<F>(&self, w: &mut Walk<'_, F>, p: usize, from: usize) -> Result<()>
    where
        F: FnMut(&[LevelValue], &[u32]) -> Result<bool>,
    {
        self.tick()?;
        let m = self.template.m();
        if p == m {
            w.stop = !(w.visit)(w.cell, w.positions)?;
            return Ok(());
        }
        // Not enough events left to complete the pattern.
        if from > w.len - (m - p) {
            return Ok(());
        }
        for i in from..=(w.len - (m - p)) {
            if !self.bind(w, p, i) {
                continue;
            }
            // Prune with the conjuncts already determined.
            if !w.pred || self.mpred.eval_prefix(self.db, w.rows, p + 1)? {
                self.dfs(w, p + 1, i + 1)?;
            }
            // With every value fixed the leftmost candidate decides: what
            // follows a later one is a suffix of what followed this one.
            if w.stop || w.want.is_some() {
                break;
            }
        }
        Ok(())
    }

    /// Enumerates satisfying occurrences leftmost-first, calling `f` for
    /// each; `f` returns `false` to stop early.
    pub fn for_each_occurrence(
        &self,
        seq: &Sequence,
        mut f: impl FnMut(&Occurrence) -> bool,
    ) -> Result<()> {
        self.scan(seq, None, &mut |cell, positions| {
            Ok(f(&Occurrence {
                positions: positions.to_vec(),
                cell: cell.to_vec(),
            }))
        })
    }

    /// Streams this sequence's cell assignments under `restriction`,
    /// leftmost-first, as `f(cell, content)` — both borrowed from the
    /// matcher's buffers. Returns how many were delivered.
    pub fn for_each_assignment(
        &self,
        seq: &Sequence,
        restriction: CellRestriction,
        mut f: impl FnMut(&[LevelValue], Content<'_>) -> Result<()>,
    ) -> Result<u64> {
        // Left-maximality: a cell this sequence was already assigned to has
        // had its leftmost occurrence.
        let leftmost_only = restriction != CellRestriction::AllMatchedGo;
        let mut seen = self.seen.take();
        seen.next_sequence();
        let mut delivered = 0;
        let out = self.scan(seq, None, &mut |cell, positions| {
            if leftmost_only && !seen.first_time(cell, &self.codec) {
                return Ok(true);
            }
            delivered += 1;
            let content = match restriction {
                CellRestriction::LeftMaximalityDataGo => Content::WholeSequence,
                _ => Content::Matched(positions),
            };
            f(cell, content).map(|()| true)
        });
        self.seen.set(seen);
        out.map(|()| delivered)
    }

    /// Produces this sequence's cell assignments under `restriction`,
    /// leftmost-first, deterministic.
    pub fn assignments(
        &self,
        seq: &Sequence,
        restriction: CellRestriction,
    ) -> Result<Vec<Assignment>> {
        let mut out: Vec<Assignment> = Vec::new();
        self.for_each_assignment(seq, restriction, |cell, content| {
            out.push(Assignment {
                cell: cell.to_vec(),
                content: match content {
                    Content::Matched(positions) => AssignedContent::Matched(positions.to_vec()),
                    Content::WholeSequence => AssignedContent::WholeSequence,
                },
            });
            Ok(())
        })?;
        Ok(out)
    }

    /// Whether `seq` contains the concrete length-`m` value string `values`
    /// (an instantiation of the template), **ignoring the matching
    /// predicate**. This is the containment test the inverted-index
    /// verification scans use (Figure 15 line 9).
    pub fn contains_pattern(&self, seq: &Sequence, values: &[LevelValue]) -> Result<bool> {
        debug_assert_eq!(values.len(), self.template.m());
        let mut found = false;
        self.scan(seq, Some(values), &mut |_, _| {
            found = true;
            Ok(false)
        })?;
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{CmpOp, ColumnType, EventDbBuilder, Value};
    use std::collections::HashMap;

    /// Builds a db holding one station-sequence per test sequence; action
    /// alternates in/out by position (as in Figure 8's note).
    fn db_and_seqs(seqs: &[&[&str]]) -> (EventDb, Vec<Sequence>) {
        let mut db = EventDbBuilder::new()
            .dimension("location", ColumnType::Str)
            .dimension("action", ColumnType::Str)
            .build()
            .unwrap();
        let mut out = Vec::new();
        let mut row = 0u32;
        for (sid, stations) in seqs.iter().enumerate() {
            let mut rows = Vec::new();
            for (i, st) in stations.iter().enumerate() {
                let action = if i % 2 == 0 { "in" } else { "out" };
                db.push_row(&[Value::from(*st), Value::from(action)])
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

    fn template(kind: PatternKind, syms: &[&str]) -> PatternTemplate {
        let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
        for &s in syms {
            if !bindings.iter().any(|(n, _, _)| *n == s) {
                bindings.push((s, 0, 0));
            }
        }
        PatternTemplate::new(kind, syms, &bindings).unwrap()
    }

    /// Figure 8's s1: ⟨Glenmont,Pentagon,Pentagon,Wheaton,Wheaton,Pentagon⟩.
    const S1: &[&str] = &[
        "Glenmont", "Pentagon", "Pentagon", "Wheaton", "Wheaton", "Pentagon",
    ];

    #[test]
    fn substring_xy_occurrences() {
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let mut cells = Vec::new();
        m.for_each_occurrence(&seqs[0], |o| {
            cells.push(o.cell.clone());
            true
        })
        .unwrap();
        assert_eq!(cells.len(), 5); // all adjacent pairs
    }

    #[test]
    fn fig12_counts_with_in_out_predicate() {
        // Q3: SUBSTRING(X, Y) with x1.action = in, y1.action = out.
        let (db, seqs) = db_and_seqs(&[
            S1,
            &["Pentagon", "Wheaton", "Wheaton", "Pentagon"],
            &["Clarendon", "Pentagon"],
            &["Wheaton", "Clarendon", "Deanwood", "Wheaton"],
        ]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::cmp(0, 1, CmpOp::Eq, "in").and(MatchPred::cmp(1, 1, CmpOp::Eq, "out"));
        let m = Matcher::new(&db, &t, &p);
        let mut counts: HashMap<(String, String), u64> = HashMap::new();
        for s in &seqs {
            for a in m
                .assignments(s, CellRestriction::LeftMaximalityMatchedGo)
                .unwrap()
            {
                let x = db.render_level(0, 0, a.cell[0]);
                let y = db.render_level(0, 0, a.cell[1]);
                *counts.entry((x, y)).or_default() += 1;
            }
        }
        // Figure 12 exactly:
        let expect = [
            (("Clarendon", "Pentagon"), 1),
            (("Deanwood", "Wheaton"), 1),
            (("Glenmont", "Pentagon"), 1),
            (("Pentagon", "Wheaton"), 2),
            (("Wheaton", "Clarendon"), 1),
            (("Wheaton", "Pentagon"), 2),
        ];
        assert_eq!(counts.len(), expect.len());
        for ((x, y), c) in expect {
            assert_eq!(counts[&(x.to_owned(), y.to_owned())], c, "({x},{y})");
        }
    }

    #[test]
    fn left_maximality_vs_all_matched() {
        // ⟨a,a,b,a,a⟩ with pattern (A,A): windows (0,1) and (3,4) match.
        let (db, seqs) = db_and_seqs(&[&["a", "a", "b", "a", "a"]]);
        let t = template(PatternKind::Substring, &["A", "A"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let lm = m
            .assignments(&seqs[0], CellRestriction::LeftMaximalityMatchedGo)
            .unwrap();
        assert_eq!(lm.len(), 1);
        assert_eq!(lm[0].content, AssignedContent::Matched(vec![0, 1]));
        let all = m
            .assignments(&seqs[0], CellRestriction::AllMatchedGo)
            .unwrap();
        assert_eq!(all.len(), 2);
        let dg = m
            .assignments(&seqs[0], CellRestriction::LeftMaximalityDataGo)
            .unwrap();
        assert_eq!(dg.len(), 1);
        assert_eq!(dg[0].content, AssignedContent::WholeSequence);
    }

    /// More distinct cells in one sequence than the dedupe keeps inline:
    /// the spill table must agree with a plain first-occurrence filter,
    /// sequence after sequence.
    #[test]
    fn left_maximality_dedupe_survives_the_spill() {
        let long: Vec<String> = (0..40).map(|i| format!("s{}", i % 25)).collect();
        let long: Vec<&str> = long.iter().map(String::as_str).collect();
        let (db, seqs) = db_and_seqs(&[&long, &long[5..], S1]);
        let t = template(PatternKind::Subsequence, &["X", "Y"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        for seq in &seqs {
            let all = m.assignments(seq, CellRestriction::AllMatchedGo).unwrap();
            let mut firsts: Vec<Assignment> = Vec::new();
            for a in all {
                if !firsts.iter().any(|f| f.cell == a.cell) {
                    firsts.push(a);
                }
            }
            let lm = m
                .assignments(seq, CellRestriction::LeftMaximalityMatchedGo)
                .unwrap();
            assert_eq!(lm, firsts);
        }
        assert!(
            m.assignments(&seqs[0], CellRestriction::LeftMaximalityMatchedGo)
                .unwrap()
                .len()
                > SEEN_INLINE
        );
    }

    #[test]
    fn repeated_symbols_require_equal_values() {
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Substring, &["X", "Y", "Y", "X"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let a = m
            .assignments(&seqs[0], CellRestriction::LeftMaximalityMatchedGo)
            .unwrap();
        // Only (Pentagon, Wheaton, Wheaton, Pentagon) at positions 2..6.
        assert_eq!(a.len(), 1);
        assert_eq!(db.render_level(0, 0, a[0].cell[0]), "Pentagon".to_owned());
        assert_eq!(a[0].content, AssignedContent::Matched(vec![2, 3, 4, 5]));
    }

    #[test]
    fn subsequence_matches_with_gaps() {
        let (db, seqs) = db_and_seqs(&[&["a", "x", "b", "x", "c"]]);
        let t = template(PatternKind::Subsequence, &["P", "Q", "R"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let mut found = false;
        m.for_each_occurrence(&seqs[0], |o| {
            if o.positions == vec![0, 2, 4] {
                found = true;
            }
            true
        })
        .unwrap();
        assert!(found, "gapped occurrence (a,b,c) must be enumerated");
        // Substring matcher must NOT find (a,b,c).
        let ts = template(PatternKind::Substring, &["P", "Q", "R"]);
        let ms = Matcher::new(&db, &ts, &p);
        let mut any = Vec::new();
        ms.for_each_occurrence(&seqs[0], |o| {
            any.push(o.cell.clone());
            true
        })
        .unwrap();
        assert_eq!(any.len(), 3); // only the 3 contiguous windows
    }

    #[test]
    fn subsequence_left_maximality_is_leftmost() {
        // haabaai with pattern (a,a): paper §3.2(b) — the first "aa".
        let (db, seqs) = db_and_seqs(&[&["a", "a", "b", "a", "a"]]);
        let t = template(PatternKind::Subsequence, &["A", "A"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let lm = m
            .assignments(&seqs[0], CellRestriction::LeftMaximalityMatchedGo)
            .unwrap();
        assert_eq!(lm.len(), 1);
        assert_eq!(lm[0].content, AssignedContent::Matched(vec![0, 1]));
        // all-matched-go: subsequence pairs of a's: positions C(4,2)=6.
        let all = m
            .assignments(&seqs[0], CellRestriction::AllMatchedGo)
            .unwrap();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn substring_occurrences_subset_of_subsequence() {
        let (db, seqs) = db_and_seqs(&[S1]);
        let p = MatchPred::True;
        let tsub = template(PatternKind::Substring, &["X", "Y"]);
        let tseq = template(PatternKind::Subsequence, &["X", "Y"]);
        let msub = Matcher::new(&db, &tsub, &p);
        let mseq = Matcher::new(&db, &tseq, &p);
        let mut sub_occ = Vec::new();
        msub.for_each_occurrence(&seqs[0], |o| {
            sub_occ.push(o.positions.clone());
            true
        })
        .unwrap();
        let mut seq_occ = Vec::new();
        mseq.for_each_occurrence(&seqs[0], |o| {
            seq_occ.push(o.positions.clone());
            true
        })
        .unwrap();
        for o in &sub_occ {
            assert!(seq_occ.contains(o));
        }
        assert!(seq_occ.len() >= sub_occ.len());
    }

    #[test]
    fn contains_pattern_concrete() {
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let pent = db.dict(0).unwrap().lookup("Pentagon").unwrap() as u64;
        let whea = db.dict(0).unwrap().lookup("Wheaton").unwrap() as u64;
        let glen = db.dict(0).unwrap().lookup("Glenmont").unwrap() as u64;
        assert!(m.contains_pattern(&seqs[0], &[pent, whea]).unwrap());
        assert!(m.contains_pattern(&seqs[0], &[glen, pent]).unwrap());
        assert!(!m.contains_pattern(&seqs[0], &[whea, glen]).unwrap());
        // Subsequence containment with gaps.
        let ts = template(PatternKind::Subsequence, &["X", "Y"]);
        let ms = Matcher::new(&db, &ts, &p);
        assert!(ms.contains_pattern(&seqs[0], &[glen, whea]).unwrap());
    }

    #[test]
    fn too_short_sequences_produce_nothing() {
        let (db, seqs) = db_and_seqs(&[&["a"]]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        assert!(m
            .assignments(&seqs[0], CellRestriction::AllMatchedGo)
            .unwrap()
            .is_empty());
        assert!(!m.contains_pattern(&seqs[0], &[0, 0]).unwrap());
        let ts = template(PatternKind::Subsequence, &["X", "Y"]);
        let ms = Matcher::new(&db, &ts, &p);
        assert!(ms
            .assignments(&seqs[0], CellRestriction::AllMatchedGo)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn early_stop_is_respected() {
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let mut n = 0;
        m.for_each_occurrence(&seqs[0], |_| {
            n += 1;
            n < 2
        })
        .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn predicate_prunes_subsequence_dfs() {
        // Predicate forces position 0 to be an "in" event (even index).
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Subsequence, &["X", "Y"]);
        let p = MatchPred::cmp(0, 1, CmpOp::Eq, "in");
        let m = Matcher::new(&db, &t, &p);
        m.for_each_occurrence(&seqs[0], |o| {
            assert!(
                o.positions[0] % 2 == 0,
                "pruned position leaked: {:?}",
                o.positions
            );
            true
        })
        .unwrap();
    }
}
