//! The inverted-index S-cuboid construction approach (§4.2.2).
//!
//! QUERYINDICES (Figure 15): to answer a query with pattern template `T`
//! of length `m`, fetch (or assemble) the inverted index `L_m^T`, then count
//! per list the sequences satisfying the cell restriction and matching
//! predicate. Assembly walks a join ladder from the **largest available
//! prefix index**: `L_{i+1} = L_i ⋈ L_2`, followed by a verification scan
//! that eliminates false-positive candidates ("Scan the database to
//! eliminate invalid entries"). Indices created along the way are cached —
//! the by-product that makes follow-up iterative queries cheap.
//!
//! The operation fast paths of §4.2.2 are implemented as index
//! *preparation* steps: P-ROLL-UP merges the previous query's index by list
//! union (legal only when all template symbols are distinct — the paper's
//! s6 counter-example), P-DRILL-DOWN refines it by rescanning only the
//! sequences the coarse index mentions, and PREPEND joins a fresh `L_2` on
//! the left of the previous index.

use std::sync::Arc;

use solap_eventdb::metrics::{self, Counter, Stage};
use solap_eventdb::{
    fail_point, panic_message, Error, EventDb, LevelValue, QueryGovernor, Result, SequenceGroups,
};
use solap_index::{
    build_index_governed, join::join, join::rollup_merge, IndexKey, IndexStore, InvertedIndex,
    SidSet,
};
use solap_pattern::{
    AggFunc, AggValue, Cell, CellCodec, CellMap, CellMapBuilder, CellRestriction, MatchPred,
    Matcher, PatternTemplate, TemplateSignature,
};

use crate::cb::{group_selected, insert_cells, with_accumulator, Accumulator, CellFold};
use crate::cuboid::SCuboid;
use crate::spec::SCuboidSpec;
use crate::stats::{ExecStats, ScanMeter};

pub use solap_index::PosSlice;

/// Executes S-OLAP queries over one sequence-group set using inverted
/// indices cached in an [`IndexStore`].
pub struct IiExecutor<'a> {
    db: &'a EventDb,
    groups: &'a SequenceGroups,
    /// Fingerprint of the spec that formed `groups` (with `db`'s version,
    /// their identity in the index store).
    pub groups_fp: u64,
    store: &'a IndexStore,
    threads: usize,
    /// Index builds, verification scans and cuboid folding tick it, and
    /// new inverted lists / cuboid cells are charged against its budget.
    gov: &'a QueryGovernor,
}

impl<'a> IiExecutor<'a> {
    /// Creates an executor running under `gov` (single-threaded index
    /// construction; see [`IiExecutor::with_threads`]).
    pub fn new(
        db: &'a EventDb,
        groups: &'a SequenceGroups,
        groups_fp: u64,
        store: &'a IndexStore,
        gov: &'a QueryGovernor,
    ) -> Self {
        IiExecutor {
            db,
            groups,
            groups_fp,
            store,
            threads: 1,
            gov,
        }
    }

    /// Sets the worker count for base-index construction (`threads ≤ 1`
    /// keeps the sequential path).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    fn key(
        &self,
        group_idx: usize,
        sig: TemplateSignature,
        slice: &[Option<(usize, LevelValue)>],
    ) -> IndexKey {
        IndexKey::new(self.groups_fp, self.db.version(), group_idx, sig, slice)
    }

    /// Fetches or assembles `L_m^T` for one group (Figure 15 lines 5–9),
    /// without slice restrictions.
    pub fn ensure_index(
        &self,
        group_idx: usize,
        template: &PatternTemplate,
        meter: &mut ScanMeter,
        stats: &mut ExecStats,
    ) -> Result<Arc<InvertedIndex>> {
        self.ensure_index_sliced(group_idx, template, &[], meter, stats)
    }

    /// Fetches or assembles `L_m^T`, optionally restricted to a *position
    /// slice* (`pos_slice[p] = Some(v)` fixes the value at position `p`).
    ///
    /// Slice-restricted assembly is what makes iterative queries after a
    /// slice cheap (Table 1's Qc touches 842 sequences, not 50,524): the
    /// ladder starts from the largest cached prefix whose own slice the
    /// request refines, every rung prunes both join sides by the slice
    /// before a candidate is formed, and the verification scan only visits
    /// the survivors' members. Each rung is cached under the slice it was
    /// restricted by.
    pub fn ensure_index_sliced(
        &self,
        group_idx: usize,
        template: &PatternTemplate,
        pos_slice: &[Option<(usize, LevelValue)>],
        meter: &mut ScanMeter,
        stats: &mut ExecStats,
    ) -> Result<Arc<InvertedIndex>> {
        let sig = template.signature();
        let m = sig.m();
        // Start from the largest cached prefix (at length m: the index
        // itself); build L_2 of the first two positions if there is none.
        let (mut current, mut k) = match self.store.largest_prefix(
            self.groups_fp,
            self.db.version(),
            group_idx,
            &sig,
            pos_slice,
        ) {
            Some(found) => found,
            None => {
                let base = PatternTemplate::from_signature(&sig.prefix(m.min(2)));
                (self.build_base(group_idx, &base, meter, stats)?, base.m())
            }
        };
        let matches_slice =
            |pattern: Cell<'_>| self.positions_match_slice(template, pos_slice, pattern);
        while k < m {
            let target_sig = sig.prefix(k + 1);
            let target_template = PatternTemplate::from_signature(&target_sig);
            // The length-2 index over positions (k-1, k).
            let pair_sig = TemplateSignature {
                kind: sig.kind,
                per_position: vec![sig.per_position[k - 1], sig.per_position[k]],
                eq_classes: if sig.eq_classes[k - 1] == sig.eq_classes[k] {
                    vec![0, 0]
                } else {
                    vec![0, 1]
                },
            };
            // Two ways to climb one rung. With a cached pair index: the
            // Figure-15 join + verification scan. Without one: if the
            // slice-compatible part of the current index is selective, it
            // is cheaper to rescan just its member sequences and enumerate
            // their (k+1)-patterns directly than to build a full pair
            // index — this is why Table 1's Qc builds **no** new base
            // indices and touches only the sequences of the sliced lists.
            let members = if self
                .store
                .contains(&self.key(group_idx, pair_sig.clone(), &[]))
            {
                None
            } else {
                let mut seen = solap_index::Bitmap::new();
                for (pattern, set) in current.lists().iter() {
                    if !matches_slice(pattern) {
                        continue;
                    }
                    for sid in set.iter() {
                        self.gov.tick()?;
                        seen.insert(sid);
                    }
                }
                let group_size = self.groups.groups[group_idx].sequences.len();
                (seen.len() * 2 < group_size).then_some(seen)
            };
            let verified = if let Some(members) = members {
                let _span = metrics::span(self.gov.recorder(), Stage::IndexBuild);
                let mut sids: Vec<u32> = members.iter().collect();
                sids.sort_unstable();
                // solint: allow(governor-tick) O(1) meter touch per sid; the collection pass above ticked every posting
                for &sid in &sids {
                    meter.touch(sid);
                }
                let seqs = sids
                    .iter()
                    .map(|&s| self.groups.sequence(s))
                    .collect::<Result<Vec<_>>>()?;
                let (mut raw, _) = build_index_governed(self.db, seqs, &target_template, self.gov)?;
                raw.retain(matches_slice);
                raw
            } else {
                let pair_template = PatternTemplate::from_signature(&pair_sig);
                let pair_index = self.ensure_index(group_idx, &pair_template, meter, stats)?;
                let candidate = {
                    let _span = metrics::span(self.gov.recorder(), Stage::IndexJoin);
                    join(
                        &current,
                        &pair_index,
                        target_sig.clone(),
                        |p, v| self.slice_admits(template, pos_slice, p, v),
                        |c| target_template.is_instantiation(c),
                    )
                };
                stats.index_joins += 1;
                self.verify(candidate, &target_template, meter)?
            };
            let verified = Arc::new(verified);
            stats.indices_built += 1;
            stats.index_bytes_built += verified.heap_bytes();
            self.store.insert(
                self.key(group_idx, target_sig, pos_slice),
                Arc::clone(&verified),
            );
            current = verified;
            k += 1;
        }
        // What was found may be complete for a coarser slice than asked
        // (the unsliced index at worst): cut it down, don't rebuild it.
        let sliced = pos_slice.iter().any(Option::is_some);
        if !sliced
            || current
                .lists()
                .iter()
                .all(|(pattern, _)| matches_slice(pattern))
        {
            return Ok(current);
        }
        let cut = current
            .lists()
            .filtered(|pattern, _| matches_slice(pattern));
        Ok(Arc::new(InvertedIndex::from_lists(
            current.sig.clone(),
            cut,
        )))
    }

    /// Whether value `v` may stand at position `p` under the position
    /// slice: a fixed position's value, rolled up to the slice level, must
    /// equal the slice value. Free positions admit everything.
    fn slice_admits(
        &self,
        template: &PatternTemplate,
        pos_slice: &[Option<(usize, LevelValue)>],
        p: usize,
        v: LevelValue,
    ) -> bool {
        let Some(&Some((slice_level, want))) = pos_slice.get(p) else {
            return true;
        };
        let dim = template.dim_at(p);
        self.db
            .map_up(dim.attr, dim.level, v, slice_level)
            .is_ok_and(|at_level| at_level == want)
    }

    /// Whether a (possibly partial) pattern respects the position slice:
    /// only its fixed positions are read out of the pattern code.
    fn positions_match_slice(
        &self,
        template: &PatternTemplate,
        pos_slice: &[Option<(usize, LevelValue)>],
        pattern: Cell<'_>,
    ) -> bool {
        pos_slice
            .iter()
            .take(pattern.len())
            .enumerate()
            .all(|(p, fixed)| {
                fixed.is_none() || self.slice_admits(template, pos_slice, p, pattern.get(p))
            })
    }

    /// BUILDINDEX over the group's sequences (used for `m ≤ 2` bases).
    ///
    /// With `threads > 1` the group's (sid-sorted) sequence list is cut
    /// into contiguous sid-range shards, one BUILDINDEX per worker, and
    /// the per-shard posting lists are concatenated **in shard order** —
    /// which reproduces the sequential push order of every list exactly,
    /// so the parallel index is identical to the sequential one.
    fn build_base(
        &self,
        group_idx: usize,
        template: &PatternTemplate,
        meter: &mut ScanMeter,
        stats: &mut ExecStats,
    ) -> Result<Arc<InvertedIndex>> {
        fail_point!("ii.build_base");
        self.gov.check_now()?;
        let _span = metrics::span(self.gov.recorder(), Stage::IndexBuild);
        let group = &self.groups.groups[group_idx];
        let index = if self.threads > 1 && group.sequences.len() > 1 {
            self.build_base_parallel(group, template)?
        } else {
            build_index_governed(self.db, &group.sequences, template, self.gov)?.0
        };
        // solint: allow(governor-tick) O(1) meter touch per sequence; the build above ticked per event and check_now ran at entry
        for seq in &group.sequences {
            meter.touch(seq.sid);
        }
        let index = Arc::new(index);
        stats.indices_built += 1;
        stats.index_bytes_built += index.heap_bytes();
        self.store.insert(
            self.key(group_idx, template.signature(), &[]),
            Arc::clone(&index),
        );
        Ok(index)
    }

    /// The sharded BUILDINDEX described on [`IiExecutor::build_base`].
    fn build_base_parallel(
        &self,
        group: &solap_eventdb::SequenceGroup,
        template: &PatternTemplate,
    ) -> Result<InvertedIndex> {
        let chunk = group.sequences.len().div_ceil(self.threads).max(1);
        let gov = self.gov;
        let partials: Vec<Result<InvertedIndex>> = std::thread::scope(|scope| {
            let handles: Vec<_> = group
                .sequences
                .chunks(chunk)
                .map(|seqs| {
                    scope.spawn(move || {
                        fail_point!("ii.worker");
                        if let Some(rec) = gov.recorder() {
                            rec.add(Counter::WorkersSpawned, 1);
                        }
                        build_index_governed(self.db, seqs, template, gov).map(|(ix, _)| ix)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(p) => Err(Error::Internal(format!(
                        "II worker panicked: {}",
                        panic_message(p.as_ref())
                    ))),
                })
                .collect()
        });
        let codec = CellCodec::positions(self.db, template);
        let mut merged = InvertedIndex::new(template.signature(), codec);
        for partial in partials {
            // Shard order = ascending sid ranges, so per-pattern pushes
            // arrive in the same nondecreasing sid order as a full scan.
            merged.append(partial?);
        }
        // Canonicalize exactly like the sequential build does, so the
        // sharded merge is byte-identical (and heap accounting agrees).
        merged.seal();
        Ok(merged)
    }

    /// Expands a spec's per-dimension pattern slice into a per-position
    /// slice — `(slice level, value)` per fixed position.
    pub fn position_slice(spec: &SCuboidSpec) -> PosSlice {
        spec.template
            .symbols
            .iter()
            .map(|d| spec.pattern_slice.get(d).copied())
            .collect()
    }

    /// Eliminates false positives from a joined candidate index by scanning
    /// the member sequences (Figure 15 line 9).
    fn verify(
        &self,
        candidate: InvertedIndex,
        template: &PatternTemplate,
        meter: &mut ScanMeter,
    ) -> Result<InvertedIndex> {
        fail_point!("ii.verify");
        let rec = self.gov.recorder();
        let _span = metrics::span(rec, Stage::IndexVerify);
        let trivial = MatchPred::True;
        let matcher = Matcher::new(self.db, template, &trivial).with_governor(self.gov);
        // Candidates are in pattern order, so the survivors are too.
        let mut out = CellMapBuilder::new(candidate.codec().clone());
        let mut pattern = Vec::with_capacity(candidate.m());
        // solint: allow(governor-tick) contains_pattern below ticks per window/DFS node through the attached governor
        for (cell, sids) in candidate.lists().iter() {
            cell.write_into(&mut pattern);
            let mut kept = SidSet::empty_list();
            // solint: allow(governor-tick) governed inside contains_pattern (matcher carries the governor)
            for sid in sids.iter() {
                meter.touch(sid);
                if matcher.contains_pattern(self.groups.sequence(sid)?, &pattern)? {
                    kept.push(sid);
                }
            }
            if !kept.is_empty() {
                // Canonicalize before the caller caches it: each list
                // settles on its density encoding.
                out.push(&pattern, kept.sealed());
            }
        }
        if let Some(rec) = rec {
            rec.add(Counter::MatchWindows, matcher.take_windows());
        }
        Ok(InvertedIndex::from_lists(
            candidate.sig,
            out.build(|_, _| {}),
        ))
    }

    /// QUERYINDICES: computes the S-cuboid for `spec` (Figure 15).
    pub fn execute(
        &self,
        spec: &SCuboidSpec,
        meter: &mut ScanMeter,
        stats: &mut ExecStats,
    ) -> Result<SCuboid> {
        with_accumulator!(spec.agg, A => self.execute_as::<A>(spec, meter, stats))
    }

    fn execute_as<A: Accumulator>(
        &self,
        spec: &SCuboidSpec,
        meter: &mut ScanMeter,
        stats: &mut ExecStats,
    ) -> Result<SCuboid> {
        let mut cuboid = SCuboid::new(
            spec.seq.group_by.clone(),
            spec.template.dims.clone(),
            spec.agg,
        );
        let mut fold = CellFold::<A>::new(self.db, spec, self.gov, false);
        let pos_slice = Self::position_slice(spec);
        // Counting needs no sequence access at all when the predicate is
        // trivial, the restriction is left-maximality and we only COUNT:
        // every sid in a (verified) list contains the pattern, contributing
        // exactly 1. This is what lets P-ROLL-UP answer "just by merging the
        // inverted index without scanning the dataset" (§5.2 QuerySet B).
        let count_by_len = spec.mpred.is_true()
            && spec.restriction == CellRestriction::LeftMaximalityMatchedGo
            && matches!(spec.agg, AggFunc::Count);
        for (group_idx, group) in self.groups.groups.iter().enumerate() {
            if !group_selected(spec, &group.key) {
                continue;
            }
            self.gov.check_now()?;
            // Restricted to the pattern slice: every list is a cell asked for.
            let index =
                self.ensure_index_sliced(group_idx, &spec.template, &pos_slice, meter, stats)?;
            if count_by_len {
                for _ in index.lists().values() {
                    self.gov.charge_cells(1)?;
                }
                cuboid.insert_group(&group.key, count_lists(&index, &spec.template));
                continue;
            }
            // Restriction/predicate verification: scan each indexed
            // sequence ONCE (Figure 7's single pass, restricted to the
            // sequences the lists mention) and fold its assignments — far
            // cheaper than re-enumerating occurrences per (cell, sid).
            let mut indexed = solap_index::Bitmap::new();
            for sids in index.lists().values() {
                for sid in sids.iter() {
                    self.gov.tick()?;
                    indexed.insert(sid);
                }
            }
            let _fold_span = metrics::span(self.gov.recorder(), Stage::Aggregate);
            for sid in indexed.iter() {
                meter.touch(sid);
                fold.scan_governed(self.groups.sequence(sid)?)?;
            }
            insert_cells(&mut cuboid, &group.key, fold.take_cells());
        }
        fold.record();
        Ok(cuboid)
    }

    // ------------------------------------------------------------------
    // Operation fast paths: index preparation
    // ------------------------------------------------------------------

    /// Prepares the new query's index for a P-ROLL-UP by merging the
    /// previous query's index lists (§4.2.2 item 4). Returns `false` when
    /// the merge is illegal (repeated symbols) or the previous index is not
    /// cached — the caller then falls back to QUERYINDICES.
    pub fn prepare_p_roll_up(
        &self,
        prev: &PatternTemplate,
        new: &PatternTemplate,
        stats: &mut ExecStats,
    ) -> Result<bool> {
        if !new.all_symbols_distinct() || prev.symbols != new.symbols || prev.n() != new.n() {
            return Ok(false);
        }
        // Every dimension's level must be ≥ the previous (roll *up*).
        for (p, n) in prev.dims.iter().zip(&new.dims) {
            if n.attr != p.attr || n.level < p.level {
                return Ok(false);
            }
        }
        let prev_sig = prev.signature();
        let new_sig = new.signature();
        for group_idx in 0..self.groups.groups.len() {
            if self
                .store
                .contains(&self.key(group_idx, new_sig.clone(), &[]))
            {
                continue;
            }
            self.gov.check_now()?;
            let Some(ix) = self.store.get(&self.key(group_idx, prev_sig.clone(), &[])) else {
                return Ok(false);
            };
            let codec = CellCodec::positions(self.db, new);
            let mut merged = rollup_merge(&ix, new_sig.clone(), codec, |pos, v| {
                let d_prev = prev.dim_at(pos);
                let d_new = new.dim_at(pos);
                self.db.map_up(d_prev.attr, d_prev.level, v, d_new.level)
            })?;
            // List unions keep the first-seen encoding, which depends on
            // map iteration order; sealing restores the canonical
            // (deterministic) form before caching.
            merged.seal();
            let merged = Arc::new(merged);
            stats.indices_built += 1;
            stats.index_bytes_built += merged.heap_bytes();
            self.store
                .insert(self.key(group_idx, new_sig.clone(), &[]), merged);
        }
        Ok(true)
    }

    /// Prepares a P-DRILL-DOWN by refining the previous (coarser) index:
    /// only the sequences the coarse lists mention are rescanned (§4.2.2
    /// item 5). When the new spec carries a pattern slice (Qb of §5.1:
    /// slice (Assortment, Legwear), then drill Y down), only coarse lists
    /// compatible with the slice are refined — this is why Table 1's Qb
    /// touches 2,201 sequences rather than 50,524. Returns `false` if the
    /// coarse index is not cached.
    pub fn prepare_p_drill_down(
        &self,
        prev: &PatternTemplate,
        new_spec: &SCuboidSpec,
        meter: &mut ScanMeter,
        stats: &mut ExecStats,
    ) -> Result<bool> {
        let new = &new_spec.template;
        if prev.symbols != new.symbols || prev.n() != new.n() {
            return Ok(false);
        }
        for (p, n) in prev.dims.iter().zip(&new.dims) {
            if n.attr != p.attr || n.level > p.level {
                return Ok(false);
            }
        }
        let pos_slice = Self::position_slice(new_spec);
        let prev_sig = prev.signature();
        let new_sig = new.signature();
        for group_idx in 0..self.groups.groups.len() {
            if self
                .store
                .contains(&self.key(group_idx, new_sig.clone(), &pos_slice))
                || self
                    .store
                    .contains(&self.key(group_idx, new_sig.clone(), &[]))
            {
                continue;
            }
            let Some(coarse) = self.store.get(&self.key(group_idx, prev_sig.clone(), &[])) else {
                return Ok(false);
            };
            // A sequence containing a fine pattern necessarily contains its
            // coarse image, so the union of (slice-compatible) coarse lists
            // covers every fine pattern the query can report.
            let mut sids: Vec<u32> = Vec::new();
            let mut seen = solap_index::Bitmap::new();
            for (pattern, set) in coarse.lists().iter() {
                if !self.positions_match_slice(prev, &pos_slice, pattern) {
                    continue;
                }
                for sid in set.iter() {
                    self.gov.tick()?;
                    if !seen.contains(sid) {
                        seen.insert(sid);
                        sids.push(sid);
                    }
                }
            }
            sids.sort_unstable();
            let seqs = sids
                .iter()
                .map(|&s| self.groups.sequence(s))
                .collect::<Result<Vec<_>>>()?;
            // solint: allow(governor-tick) O(1) meter touch per sid; the coarse-list collection above ticked every posting
            for &sid in &sids {
                meter.touch(sid);
            }
            let _span = metrics::span(self.gov.recorder(), Stage::IndexBuild);
            let (mut fine, _) = build_index_governed(self.db, seqs, new, self.gov)?;
            // Keep only fine lists compatible with the slice (the scan
            // enumerated every pattern of the visited sequences).
            fine.retain(|pattern| self.positions_match_slice(new, &pos_slice, pattern));
            let fine = Arc::new(fine);
            stats.indices_built += 1;
            stats.index_bytes_built += fine.heap_bytes();
            self.store
                .insert(self.key(group_idx, new_sig.clone(), &pos_slice), fine);
        }
        Ok(true)
    }

    /// Prepares a PREPEND by joining a fresh length-2 index on the left of
    /// the previous index (`L_2^{(Z,X)} ⋈ L_m`, §4.2.2 item 2). Returns
    /// `false` if the previous index is not cached.
    pub fn prepare_prepend(
        &self,
        prev: &PatternTemplate,
        new: &PatternTemplate,
        meter: &mut ScanMeter,
        stats: &mut ExecStats,
    ) -> Result<bool> {
        // Structural requirement: new = [s0] ++ prev (dims may be shared).
        if new.m() != prev.m() + 1 {
            return Ok(false);
        }
        let new_sig = new.signature();
        let prev_sig = prev.signature();
        // The tail of the new template must be structurally the previous
        // template (attr/levels equal and eq-classes isomorphic).
        let tail: Vec<_> = new_sig.per_position[1..].to_vec();
        if tail != prev_sig.per_position {
            return Ok(false);
        }
        for group_idx in 0..self.groups.groups.len() {
            if self
                .store
                .contains(&self.key(group_idx, new_sig.clone(), &[]))
            {
                continue;
            }
            self.gov.check_now()?;
            let Some(prev_ix) = self.store.get(&self.key(group_idx, prev_sig.clone(), &[])) else {
                return Ok(false);
            };
            let pair_sig = TemplateSignature {
                kind: new_sig.kind,
                per_position: vec![new_sig.per_position[0], new_sig.per_position[1]],
                eq_classes: if new_sig.eq_classes[0] == new_sig.eq_classes[1] {
                    vec![0, 0]
                } else {
                    vec![0, 1]
                },
            };
            let pair_template = PatternTemplate::from_signature(&pair_sig);
            let pair_index = self.ensure_index(group_idx, &pair_template, meter, stats)?;
            let candidate = {
                let _span = metrics::span(self.gov.recorder(), Stage::IndexJoin);
                join(
                    &pair_index,
                    &prev_ix,
                    new_sig.clone(),
                    |_, _| true,
                    |c| new.is_instantiation(c),
                )
            };
            stats.index_joins += 1;
            let verified = Arc::new(self.verify(candidate, new, meter)?);
            stats.indices_built += 1;
            stats.index_bytes_built += verified.heap_bytes();
            self.store
                .insert(self.key(group_idx, new_sig.clone(), &[]), verified);
        }
        Ok(true)
    }

    /// Precomputes the generic size-`m` index (distinct unrestricted
    /// symbols over `(attr, level)`) for every group — the offline
    /// precomputation step of §5's experiments. Returns total bytes built.
    pub fn precompute_generic(
        &self,
        attr: solap_eventdb::AttrId,
        level: usize,
        m: usize,
        kind: solap_pattern::PatternKind,
    ) -> Result<usize> {
        let names: Vec<String> = (0..m).map(|i| format!("P{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let bindings: Vec<(&str, u32, usize)> =
            name_refs.iter().map(|&n| (n, attr, level)).collect();
        let template = PatternTemplate::new(kind, &name_refs, &bindings)?;
        let mut bytes = 0;
        let mut meter = ScanMeter::new();
        let mut stats = ExecStats::default();
        for group_idx in 0..self.groups.groups.len() {
            self.gov.check_now()?;
            let ix = self.ensure_index(group_idx, &template, &mut meter, &mut stats)?;
            bytes += ix.heap_bytes();
        }
        Ok(bytes)
    }
}

/// The COUNT cells of a verified index under the trivial predicate and
/// left-maximality: each list's length, keyed by the cell its pattern
/// instantiates. With the dimensions in position order the pattern code
/// is the cell code; otherwise each cell is read off its first positions.
fn count_lists(index: &InvertedIndex, template: &PatternTemplate) -> CellMap<AggValue> {
    let counts = index
        .lists()
        .map_ref(|sids| AggValue::Count(sids.len() as u64));
    if template.in_position_order() {
        return counts;
    }
    let first: Vec<usize> = (0..template.n())
        .map(|d| template.symbols.iter().position(|&s| s == d).unwrap_or(0))
        .collect();
    let codec = index.codec().select(&first);
    counts.map_cells(
        codec,
        |pattern, cell| {
            cell.clear();
            cell.extend(first.iter().map(|&p| pattern.get(p)));
        },
        |_, _| {},
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cb::{counter_based, CounterMode};
    use solap_eventdb::{
        build_sequence_groups, AttrLevel, CmpOp, ColumnType, EventDbBuilder, SortKey, Value,
    };
    use solap_pattern::PatternKind;

    fn fig8_db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("sid", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("location", ColumnType::Str)
            .dimension("action", ColumnType::Str)
            .build()
            .unwrap();
        let seqs: [&[&str]; 4] = [
            &[
                "Glenmont", "Pentagon", "Pentagon", "Wheaton", "Wheaton", "Pentagon",
            ],
            &["Pentagon", "Wheaton", "Wheaton", "Pentagon"],
            &["Clarendon", "Pentagon"],
            &["Wheaton", "Clarendon", "Deanwood", "Wheaton"],
        ];
        for (sid, stations) in seqs.iter().enumerate() {
            for (i, st) in stations.iter().enumerate() {
                let action = if i % 2 == 0 { "in" } else { "out" };
                db.push_row(&[
                    Value::Int(sid as i64),
                    Value::Int(i as i64),
                    Value::from(*st),
                    Value::from(action),
                ])
                .unwrap();
            }
        }
        // station → district: D10 = {Pentagon, Clarendon}, D20 = rest.
        db.set_base_level_name(2, "station");
        db.attach_str_level(2, "district", |s| {
            if s == "Pentagon" || s == "Clarendon" {
                "D10".into()
            } else {
                "D20".into()
            }
        })
        .unwrap();
        db
    }

    fn spec_with(db: &EventDb, syms: &[&str], level: usize, with_pred: bool) -> SCuboidSpec {
        let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
        for &s in syms {
            if !bindings.iter().any(|(n, _, _)| *n == s) {
                bindings.push((s, 2, level));
            }
        }
        let t = PatternTemplate::new(PatternKind::Substring, syms, &bindings).unwrap();
        let action = db.attr("action").unwrap();
        let mut spec = SCuboidSpec::new(
            t,
            vec![AttrLevel::new(0, 0)],
            vec![SortKey {
                attr: 1,
                ascending: true,
            }],
        );
        if with_pred {
            spec = spec.with_mpred(
                MatchPred::cmp(0, action, CmpOp::Eq, "in").and(MatchPred::cmp(
                    1,
                    action,
                    CmpOp::Eq,
                    "out",
                )),
            );
        }
        spec
    }

    fn run_both(db: &EventDb, spec: &SCuboidSpec) -> (SCuboid, SCuboid, ExecStats) {
        let groups = build_sequence_groups(db, &spec.seq).unwrap();
        let mut m1 = ScanMeter::new();
        let cb = counter_based(db, &groups, spec, CounterMode::Hash, &mut m1).unwrap();
        let store = IndexStore::default();
        let gov = QueryGovernor::unbounded();
        let ex = IiExecutor::new(db, &groups, 42, &store, &gov);
        let mut m2 = ScanMeter::new();
        let mut stats = ExecStats::default();
        let ii = ex.execute(spec, &mut m2, &mut stats).unwrap();
        (cb, ii, stats)
    }

    #[test]
    fn ii_equals_cb_on_q3() {
        let db = fig8_db();
        let spec = spec_with(&db, &["X", "Y"], 0, true);
        let (cb, ii, stats) = run_both(&db, &spec);
        assert_eq!(cb.cells(), ii.cells());
        assert!(stats.indices_built >= 1);
    }

    #[test]
    fn ii_equals_cb_on_xyyx() {
        let db = fig8_db();
        let mut spec = spec_with(&db, &["X", "Y", "Y", "X"], 0, false);
        let action = db.attr("action").unwrap();
        spec.mpred = MatchPred::all([
            MatchPred::cmp(0, action, CmpOp::Eq, "in"),
            MatchPred::cmp(1, action, CmpOp::Eq, "out"),
            MatchPred::cmp(2, action, CmpOp::Eq, "in"),
            MatchPred::cmp(3, action, CmpOp::Eq, "out"),
        ]);
        let (cb, ii, stats) = run_both(&db, &spec);
        assert_eq!(cb.cells(), ii.cells());
        assert!(stats.index_joins >= 2, "must join up from L2");
    }

    #[test]
    fn ii_equals_cb_at_district_level() {
        let db = fig8_db();
        let spec = spec_with(&db, &["X", "Y"], 1, true);
        let (cb, ii, _) = run_both(&db, &spec);
        assert_eq!(cb.cells(), ii.cells());
    }

    #[test]
    fn ii_equals_cb_subsequence() {
        let db = fig8_db();
        let mut spec = spec_with(&db, &["X", "Y"], 0, true);
        spec.template.kind = PatternKind::Subsequence;
        let (cb, ii, _) = run_both(&db, &spec);
        assert_eq!(cb.cells(), ii.cells());
    }

    #[test]
    fn ii_equals_cb_all_matched() {
        let db = fig8_db();
        let mut spec = spec_with(&db, &["X", "Y"], 0, false);
        spec.restriction = CellRestriction::AllMatchedGo;
        let (cb, ii, _) = run_both(&db, &spec);
        assert_eq!(cb.cells(), ii.cells());
    }

    #[test]
    fn iterative_append_reuses_indices() {
        let db = fig8_db();
        let groups = {
            let spec = spec_with(&db, &["X", "Y"], 0, true);
            build_sequence_groups(&db, &spec.seq).unwrap()
        };
        let store = IndexStore::default();
        let gov = QueryGovernor::unbounded();
        let ex = IiExecutor::new(&db, &groups, 42, &store, &gov);
        // Qa = (X, Y).
        let qa = spec_with(&db, &["X", "Y"], 0, true);
        let mut meter = ScanMeter::new();
        let mut stats = ExecStats::default();
        ex.execute(&qa, &mut meter, &mut stats).unwrap();
        let builds_after_qa = stats.indices_built;
        // Qb = (X, Y, Y): the (X,Y) index must be reused; only the pair
        // index (Y,Y)… wait, (Y,Y) IS served by a repeated-pair build; in
        // total we expect strictly fewer sequence scans than 2 full passes.
        let qb = spec_with(&db, &["X", "Y", "Y"], 0, true);
        let mut stats_b = ExecStats::default();
        let mut meter_b = ScanMeter::new();
        ex.execute(&qb, &mut meter_b, &mut stats_b).unwrap();
        assert!(stats_b.index_joins >= 1);
        assert!(stats_b.indices_built >= 1);
        assert!(builds_after_qa >= 1);
        // Re-running Qa is free: the exact index is cached, trivial counting
        // only reads list lengths… but the predicate is non-trivial here, so
        // sequences in lists are verified; the *index* is not rebuilt.
        let mut stats_c = ExecStats::default();
        let mut meter_c = ScanMeter::new();
        ex.execute(&qa, &mut meter_c, &mut stats_c).unwrap();
        assert_eq!(stats_c.indices_built, 0);
        assert_eq!(stats_c.index_joins, 0);
    }

    #[test]
    fn count_by_len_fast_path_scans_nothing() {
        let db = fig8_db();
        let spec = spec_with(&db, &["X", "Y"], 0, false); // trivial predicate
        let groups = build_sequence_groups(&db, &spec.seq).unwrap();
        let store = IndexStore::default();
        let gov = QueryGovernor::unbounded();
        let ex = IiExecutor::new(&db, &groups, 42, &store, &gov);
        // Precompute the index, then measure the query alone.
        let mut meter = ScanMeter::new();
        let mut stats = ExecStats::default();
        ex.ensure_index(0, &spec.template, &mut meter, &mut stats)
            .unwrap();
        let mut meter2 = ScanMeter::new();
        let mut stats2 = ExecStats::default();
        let ii = ex.execute(&spec, &mut meter2, &mut stats2).unwrap();
        assert_eq!(
            meter2.count(),
            0,
            "pure-count query reads only list lengths"
        );
        // And it still matches CB.
        let mut m3 = ScanMeter::new();
        let cb = counter_based(&db, &groups, &spec, CounterMode::Hash, &mut m3).unwrap();
        assert_eq!(cb.cells(), ii.cells());
    }

    #[test]
    fn p_roll_up_merge_matches_recompute() {
        let db = fig8_db();
        let fine = spec_with(&db, &["X", "Y"], 0, false);
        let coarse = spec_with(&db, &["X", "Y"], 1, false);
        let groups = build_sequence_groups(&db, &fine.seq).unwrap();
        let store = IndexStore::default();
        let gov = QueryGovernor::unbounded();
        let ex = IiExecutor::new(&db, &groups, 42, &store, &gov);
        // Run the fine query to populate its index.
        let mut meter = ScanMeter::new();
        let mut stats = ExecStats::default();
        ex.execute(&fine, &mut meter, &mut stats).unwrap();
        // Prepare the coarse index by merging.
        let ok = ex
            .prepare_p_roll_up(&fine.template, &coarse.template, &mut stats)
            .unwrap();
        assert!(ok);
        let mut meter2 = ScanMeter::new();
        let mut stats2 = ExecStats::default();
        let merged = ex.execute(&coarse, &mut meter2, &mut stats2).unwrap();
        assert_eq!(meter2.count(), 0, "P-ROLL-UP answers without scanning");
        // Equals CB at the coarse level.
        let mut m3 = ScanMeter::new();
        let cb = counter_based(&db, &groups, &coarse, CounterMode::Hash, &mut m3).unwrap();
        assert_eq!(cb.cells(), merged.cells());
    }

    #[test]
    fn p_roll_up_merge_refused_for_repeated_symbols() {
        let db = fig8_db();
        let fine = spec_with(&db, &["X", "Y", "Y", "X"], 0, false);
        let coarse = spec_with(&db, &["X", "Y", "Y", "X"], 1, false);
        let groups = build_sequence_groups(&db, &fine.seq).unwrap();
        let store = IndexStore::default();
        let gov = QueryGovernor::unbounded();
        let ex = IiExecutor::new(&db, &groups, 42, &store, &gov);
        let mut meter = ScanMeter::new();
        let mut stats = ExecStats::default();
        ex.execute(&fine, &mut meter, &mut stats).unwrap();
        let ok = ex
            .prepare_p_roll_up(&fine.template, &coarse.template, &mut stats)
            .unwrap();
        assert!(!ok, "s6 counter-example: merge must be refused");
        // The fallback (full QUERYINDICES) still gets the right answer —
        // the paper's s6 scenario: a sequence crossing stations within a
        // district must appear at the district level.
        let (cb, ii, _) = run_both(&db, &coarse);
        assert_eq!(cb.cells(), ii.cells());
    }

    #[test]
    fn p_drill_down_refines_from_coarse() {
        let db = fig8_db();
        let coarse = spec_with(&db, &["X", "Y"], 1, false);
        let fine = spec_with(&db, &["X", "Y"], 0, false);
        let groups = build_sequence_groups(&db, &coarse.seq).unwrap();
        let store = IndexStore::default();
        let gov = QueryGovernor::unbounded();
        let ex = IiExecutor::new(&db, &groups, 42, &store, &gov);
        let mut meter = ScanMeter::new();
        let mut stats = ExecStats::default();
        ex.execute(&coarse, &mut meter, &mut stats).unwrap();
        let ok = ex
            .prepare_p_drill_down(&coarse.template, &fine, &mut meter, &mut stats)
            .unwrap();
        assert!(ok);
        let mut meter2 = ScanMeter::new();
        let mut stats2 = ExecStats::default();
        let ii = ex.execute(&fine, &mut meter2, &mut stats2).unwrap();
        assert_eq!(stats2.indices_built, 0, "refined index must be reused");
        let mut m3 = ScanMeter::new();
        let cb = counter_based(&db, &groups, &fine, CounterMode::Hash, &mut m3).unwrap();
        assert_eq!(cb.cells(), ii.cells());
    }

    #[test]
    fn prepend_joins_left() {
        let db = fig8_db();
        let prev = spec_with(&db, &["X", "Y"], 0, false);
        let new = spec_with(&db, &["Z", "X", "Y"], 0, false);
        let groups = build_sequence_groups(&db, &prev.seq).unwrap();
        let store = IndexStore::default();
        let gov = QueryGovernor::unbounded();
        let ex = IiExecutor::new(&db, &groups, 42, &store, &gov);
        let mut meter = ScanMeter::new();
        let mut stats = ExecStats::default();
        ex.execute(&prev, &mut meter, &mut stats).unwrap();
        let ok = ex
            .prepare_prepend(&prev.template, &new.template, &mut meter, &mut stats)
            .unwrap();
        assert!(ok);
        let mut meter2 = ScanMeter::new();
        let mut stats2 = ExecStats::default();
        let ii = ex.execute(&new, &mut meter2, &mut stats2).unwrap();
        assert_eq!(stats2.indices_built, 0);
        let mut m3 = ScanMeter::new();
        let cb = counter_based(&db, &groups, &new, CounterMode::Hash, &mut m3).unwrap();
        assert_eq!(cb.cells(), ii.cells());
    }

    #[test]
    fn precompute_generic_builds_l2() {
        let db = fig8_db();
        let spec = spec_with(&db, &["X", "Y"], 0, true);
        let groups = build_sequence_groups(&db, &spec.seq).unwrap();
        let store = IndexStore::default();
        let gov = QueryGovernor::unbounded();
        let ex = IiExecutor::new(&db, &groups, 42, &store, &gov);
        let bytes = ex
            .precompute_generic(2, 0, 2, PatternKind::Substring)
            .unwrap();
        assert!(bytes > 0);
        // The following query builds nothing new.
        let mut meter = ScanMeter::new();
        let mut stats = ExecStats::default();
        ex.execute(&spec, &mut meter, &mut stats).unwrap();
        assert_eq!(stats.indices_built, 0);
    }
}
