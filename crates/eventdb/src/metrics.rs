//! Query-level observability: per-stage counters, span timers, per-query
//! profiles and process-wide cumulative engine metrics.
//!
//! The paper's evaluation (§5, Tables 1–4, Figure 16) reasons entirely in
//! per-stage costs — events scanned, sequences formed, cells materialised,
//! index-ladder work, cache hits. This module makes those quantities live
//! on every query instead of something the bench harness re-derives:
//!
//! * [`Counter`] / [`Stage`] — the catalog of observable quantities.
//! * [`QueryRecorder`] — lock-free atomic accumulators shared (via the
//!   [`crate::govern::QueryGovernor`]) by every hot loop and parallel
//!   worker of one query. Hot loops count into plain local integers and
//!   flush once per loop or worker, so the cost is a handful of
//!   relaxed atomic adds per query stage, not per event.
//! * [`QueryProfile`] — the immutable per-query snapshot returned with
//!   every engine execution, with text and JSON renderers.
//! * [`EngineMetrics`] — the process-wide cumulative totals ([`global`])
//!   with text/JSON exporters (the CLI `.metrics` command).
//!
//! Profiling is always on: every engine query carries a recorder, so the
//! profile and the cumulative totals are there for every statement. Code
//! run under a governor without one ([`crate::govern::QueryGovernor::unbounded`],
//! the store path, unit tests) sees `None` and skips every measurement,
//! including the clock reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Everything the observability layer counts, one variant per quantity.
///
/// The §5 cost-model mapping of each counter is documented in DESIGN.md §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Event rows visited by the step-1 selection scan (§3.2).
    EventsScanned,
    /// Event rows passing the `WHERE` predicate.
    EventsSelected,
    /// Data sequences formed (one per cluster, §3.2 steps 2–3).
    SequencesFormed,
    /// Sequence groups formed (§3.2 step 4).
    GroupsFormed,
    /// Distinct sequences fetched while answering the query (the paper's
    /// "number of sequences scanned", Table 1).
    SequencesScanned,
    /// Candidate match windows / DFS nodes attempted by pattern matching.
    MatchWindows,
    /// Cell assignments produced by the matcher (occurrences surviving the
    /// restriction and matching predicate).
    PatternAssignments,
    /// Cells in the finished S-cuboid (after iceberg filtering).
    CellsMaterialized,
    /// Inverted indices built during the query.
    IndicesBuilt,
    /// Bytes of inverted indices built during the query.
    IndexBytesBuilt,
    /// Inverted-index joins performed (Figure 15 line 8).
    IndexJoins,
    /// Sequence-cache hits.
    SeqCacheHits,
    /// Sequence-cache misses (steps 1–4 had to run).
    SeqCacheMisses,
    /// Sequence-cache entries evicted while inserting this query's groups.
    SeqCacheEvictions,
    /// Whether the cuboid repository answered the query outright (0/1).
    CuboidCacheHits,
    /// Governor work units ticked (scan events + match windows + index
    /// build/verify steps; see [`crate::govern::QueryGovernor::tick`]).
    GovernorTicks,
    /// Cells charged against the governor budget (thread-local duplicates
    /// of a logical cell may be charged more than once).
    CellsCharged,
    /// Parallel construction workers spawned (CB scans + II base builds).
    WorkersSpawned,
    /// Event rows appended through the engine's `STORE` path.
    StoreEvents,
    /// WAL fsync (or fdatasync-equivalent) calls issued by the event log.
    WalFsyncs,
    /// WAL segment rotations (active segment sealed and replaced).
    WalRotations,
    /// Cached sequence-group sets carried forward incrementally by a store.
    IngestGroupsExtended,
    /// Stored inverted indices carried forward incrementally by a store.
    IngestIndexesExtended,
    /// Cached sequence-group sets a store had to abandon (the batch
    /// touched an existing cluster — [`crate::Error::ClusterInvalidated`]
    /// — or the extension failed); the next query rebuilds from scratch.
    IngestRebuildFallbacks,
    /// Superseded-version entries a store retired from the sequence cache,
    /// the index store and the cuboid repository (keys at an older
    /// database version can never be hit again).
    IngestEntriesRetired,
    /// Execution alternatives the cost-based planner enumerated and costed
    /// for this query (0 under a fixed strategy).
    PlanAlternativesConsidered,
    /// Whether the planner answered by rolling up a materialized finer
    /// ancestor cuboid instead of scanning or joining (0/1).
    PlanAncestorReuses,
    /// Source-cuboid cells merged during an ancestor roll-up.
    PlanCellsMerged,
}

impl Counter {
    /// Number of counters (array sizing).
    pub const COUNT: usize = 28;

    /// Every counter, in render order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::EventsScanned,
        Counter::EventsSelected,
        Counter::SequencesFormed,
        Counter::GroupsFormed,
        Counter::SequencesScanned,
        Counter::MatchWindows,
        Counter::PatternAssignments,
        Counter::CellsMaterialized,
        Counter::IndicesBuilt,
        Counter::IndexBytesBuilt,
        Counter::IndexJoins,
        Counter::SeqCacheHits,
        Counter::SeqCacheMisses,
        Counter::SeqCacheEvictions,
        Counter::CuboidCacheHits,
        Counter::GovernorTicks,
        Counter::CellsCharged,
        Counter::WorkersSpawned,
        Counter::StoreEvents,
        Counter::WalFsyncs,
        Counter::WalRotations,
        Counter::IngestGroupsExtended,
        Counter::IngestIndexesExtended,
        Counter::IngestRebuildFallbacks,
        Counter::IngestEntriesRetired,
        Counter::PlanAlternativesConsidered,
        Counter::PlanAncestorReuses,
        Counter::PlanCellsMerged,
    ];

    /// The stable snake_case name used by the text and JSON renderers.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsScanned => "events_scanned",
            Counter::EventsSelected => "events_selected",
            Counter::SequencesFormed => "sequences_formed",
            Counter::GroupsFormed => "groups_formed",
            Counter::SequencesScanned => "sequences_scanned",
            Counter::MatchWindows => "match_windows",
            Counter::PatternAssignments => "pattern_assignments",
            Counter::CellsMaterialized => "cells_materialized",
            Counter::IndicesBuilt => "indices_built",
            Counter::IndexBytesBuilt => "index_bytes_built",
            Counter::IndexJoins => "index_joins",
            Counter::SeqCacheHits => "seq_cache_hits",
            Counter::SeqCacheMisses => "seq_cache_misses",
            Counter::SeqCacheEvictions => "seq_cache_evictions",
            Counter::CuboidCacheHits => "cuboid_cache_hits",
            Counter::GovernorTicks => "governor_ticks",
            Counter::CellsCharged => "cells_charged",
            Counter::WorkersSpawned => "workers_spawned",
            Counter::StoreEvents => "store_events",
            Counter::WalFsyncs => "wal_fsyncs",
            Counter::WalRotations => "wal_rotations",
            Counter::IngestGroupsExtended => "ingest_groups_extended",
            Counter::IngestIndexesExtended => "ingest_indexes_extended",
            Counter::IngestRebuildFallbacks => "ingest_rebuild_fallbacks",
            Counter::IngestEntriesRetired => "ingest_entries_retired",
            Counter::PlanAlternativesConsidered => "plan_alternatives_considered",
            Counter::PlanAncestorReuses => "plan_ancestor_reuses",
            Counter::PlanCellsMerged => "plan_cells_merged",
        }
    }
}

/// Timed execution stages. The four seqquery steps of §3.2 execute as two
/// fused passes (selection+clustering in one scan, sorting+grouping in
/// one), so they are covered by two spans; every step additionally has an
/// exact [`Counter`].
///
/// Stage times are summed across parallel workers, so a stage's total may
/// exceed the query's wall-clock time (it approximates CPU time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// §3.2 steps 1–2: the fused selection + clustering scan.
    SelectCluster,
    /// §3.2 steps 3–4: per-cluster sorting and sequence grouping.
    FormGroup,
    /// Inverted-index construction (base builds and drill-down rescans).
    IndexBuild,
    /// Inverted-index joins (Figure 15 line 8).
    IndexJoin,
    /// Join-candidate verification scans (Figure 15 line 9).
    IndexVerify,
    /// Counter scans (CB) or indexed folding (II) into cuboid cells,
    /// including pattern matching.
    Aggregate,
}

impl Stage {
    /// Number of stages (array sizing).
    pub const COUNT: usize = 6;

    /// Every stage, in render order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::SelectCluster,
        Stage::FormGroup,
        Stage::IndexBuild,
        Stage::IndexJoin,
        Stage::IndexVerify,
        Stage::Aggregate,
    ];

    /// The stable snake_case name used by the text and JSON renderers.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SelectCluster => "select_cluster",
            Stage::FormGroup => "form_group",
            Stage::IndexBuild => "index_build",
            Stage::IndexJoin => "index_join",
            Stage::IndexVerify => "index_verify",
            Stage::Aggregate => "aggregate",
        }
    }
}

/// Lock-free per-query accumulators, shared across the query's parallel
/// workers through the governor. All operations are relaxed atomics.
#[derive(Debug)]
pub struct QueryRecorder {
    counters: [AtomicU64; Counter::COUNT],
    stage_nanos: [AtomicU64; Stage::COUNT],
}

impl Default for QueryRecorder {
    fn default() -> Self {
        QueryRecorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl QueryRecorder {
    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        // ord: independent monotonic accumulators; exact totals are read only after the query joins its workers (join synchronizes)
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        // ord: read post-join for exactness, mid-flight only for diagnostics
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Adds elapsed nanoseconds to a stage timer.
    #[inline]
    pub fn add_stage_nanos(&self, stage: Stage, nanos: u64) {
        // ord: see add()
        self.stage_nanos[stage as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Accumulated nanoseconds of a stage.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        // ord: see counter()
        self.stage_nanos[stage as usize].load(Ordering::Relaxed)
    }
}

/// An RAII span timer: adds the elapsed time to `stage` when dropped.
pub struct Span<'a> {
    rec: &'a QueryRecorder,
    stage: Stage,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.rec
            .add_stage_nanos(self.stage, self.start.elapsed().as_nanos() as u64);
    }
}

/// Starts a span timer against an optional recorder. With `None` (no
/// recorder attached) nothing is measured — not even the clock read.
pub fn span(rec: Option<&QueryRecorder>, stage: Stage) -> Option<Span<'_>> {
    rec.map(|rec| Span {
        rec,
        stage,
        start: Instant::now(),
    })
}

/// The per-query profile: an immutable snapshot of one execution's counters
/// and stage timings, returned alongside every engine result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// Which strategy produced the result (`"CB"`, `"II"`, `"cache"`).
    pub strategy: &'static str,
    /// Wall-clock nanoseconds.
    pub elapsed_nanos: u64,
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Stage nanoseconds, indexed by `Stage as usize`.
    pub stage_nanos: [u64; Stage::COUNT],
}

impl QueryProfile {
    /// Snapshots a recorder (engine-level fields left default).
    pub fn from_recorder(rec: &QueryRecorder) -> Self {
        QueryProfile {
            strategy: "",
            elapsed_nanos: 0,
            // ord: snapshot taken after worker join — the join synchronizes every prior relaxed write
            counters: std::array::from_fn(|i| rec.counters[i].load(Ordering::Relaxed)),
            stage_nanos: std::array::from_fn(|i| rec.stage_nanos[i].load(Ordering::Relaxed)),
        }
    }

    /// A counter's value.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// A stage's accumulated nanoseconds.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage as usize]
    }

    /// Renders the profile as aligned text (the CLI/PROFILE output). With
    /// `redact_timings` every duration prints as `-`, making the output
    /// deterministic (golden tests).
    pub fn render_text(&self, redact_timings: bool) -> String {
        let dur = |nanos: u64| {
            if redact_timings {
                "-".to_string()
            } else {
                format_nanos(nanos)
            }
        };
        let mut out = format!(
            "profile: strategy={} elapsed={}\n",
            self.strategy,
            dur(self.elapsed_nanos)
        );
        out.push_str("  counters:\n");
        for c in Counter::ALL {
            out.push_str(&format!("    {:<24} {}\n", c.name(), self.counter(c)));
        }
        out.push_str("  stages:\n");
        for s in Stage::ALL {
            out.push_str(&format!(
                "    {:<24} {}\n",
                s.name(),
                dur(self.stage_nanos(s))
            ));
        }
        out
    }

    /// Renders the profile as one JSON object (bench reports, the wire).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"strategy\":\"{}\",\"elapsed_ns\":{},\"counters\":{{",
            self.strategy, self.elapsed_nanos
        );
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), self.counter(*c)));
        }
        out.push_str("},\"stages_ns\":{");
        for (i, s) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", s.name(), self.stage_nanos(*s)));
        }
        out.push_str("}}");
        out
    }
}

/// Formats nanoseconds human-readably (`412ns`, `3.21µs`, `4.56ms`, `1.23s`).
pub fn format_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.2}µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Process-wide cumulative metrics: every executed query folds its profile
/// in. All counters are relaxed atomics; see [`global`].
#[derive(Debug)]
pub struct EngineMetrics {
    queries: AtomicU64,
    failures: AtomicU64,
    elapsed_nanos: AtomicU64,
    counters: [AtomicU64; Counter::COUNT],
    stage_nanos: [AtomicU64; Stage::COUNT],
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics {
            queries: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            elapsed_nanos: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            stage_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The process-wide [`EngineMetrics`] instance.
pub fn global() -> &'static EngineMetrics {
    static GLOBAL: OnceLock<EngineMetrics> = OnceLock::new();
    GLOBAL.get_or_init(EngineMetrics::default)
}

impl EngineMetrics {
    /// Folds one successful query's profile into the totals.
    pub fn record(&self, profile: &QueryProfile) {
        // ord: process-cumulative statistics — each cell is an independent monotonic sum and readers never require a consistent cross-counter cut
        self.queries.fetch_add(1, Ordering::Relaxed);
        // ord: see above
        self.elapsed_nanos
            .fetch_add(profile.elapsed_nanos, Ordering::Relaxed);
        for c in Counter::ALL {
            // ord: see above — independent statistical accumulators
            self.counters[c as usize].fetch_add(profile.counter(c), Ordering::Relaxed);
        }
        for s in Stage::ALL {
            // ord: see above — independent statistical accumulators
            self.stage_nanos[s as usize].fetch_add(profile.stage_nanos(s), Ordering::Relaxed);
        }
    }

    /// Counts one failed query.
    pub fn record_failure(&self) {
        // ord: independent monotonic statistic, same contract as record()
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Successful queries recorded so far.
    pub fn queries(&self) -> u64 {
        // ord: statistical read; no cross-counter consistency promised
        self.queries.load(Ordering::Relaxed)
    }

    /// Failed queries recorded so far.
    pub fn failures(&self) -> u64 {
        // ord: see queries()
        self.failures.load(Ordering::Relaxed)
    }

    /// A counter's cumulative total.
    pub fn counter(&self, counter: Counter) -> u64 {
        // ord: see queries()
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// A stage's cumulative nanoseconds.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        // ord: see queries()
        self.stage_nanos[stage as usize].load(Ordering::Relaxed)
    }

    /// Zeroes every total (tests and the CLI after `.metrics reset`).
    pub fn reset(&self) {
        // ord: reset is only meaningful between queries; concurrent folds may interleave and the totals stay statistical either way
        self.queries.store(0, Ordering::Relaxed);
        self.failures.store(0, Ordering::Relaxed);
        // ord: see above
        self.elapsed_nanos.store(0, Ordering::Relaxed);
        for c in &self.counters {
            // ord: see above
            c.store(0, Ordering::Relaxed);
        }
        for s in &self.stage_nanos {
            // ord: see above
            s.store(0, Ordering::Relaxed);
        }
    }

    /// Renders the cumulative totals as aligned text (`.metrics`).
    pub fn export_text(&self) -> String {
        let mut out = format!(
            "engine metrics: queries={} failures={} elapsed_total={}\n",
            self.queries(),
            self.failures(),
            // ord: statistical export read, see queries()
            format_nanos(self.elapsed_nanos.load(Ordering::Relaxed))
        );
        out.push_str("  counters:\n");
        for c in Counter::ALL {
            out.push_str(&format!("    {:<24} {}\n", c.name(), self.counter(c)));
        }
        out.push_str("  stages:\n");
        for s in Stage::ALL {
            out.push_str(&format!(
                "    {:<24} {}\n",
                s.name(),
                format_nanos(self.stage_nanos(s))
            ));
        }
        out
    }

    /// Renders the cumulative totals as one JSON object.
    pub fn export_json(&self) -> String {
        let mut out = format!(
            "{{\"queries\":{},\"failures\":{},\"elapsed_ns\":{},\"counters\":{{",
            self.queries(),
            self.failures(),
            // ord: statistical export read, see queries()
            self.elapsed_nanos.load(Ordering::Relaxed)
        );
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), self.counter(*c)));
        }
        out.push_str("},\"stages_ns\":{");
        for (i, s) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", s.name(), self.stage_nanos(*s)));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_stage_catalogs_are_consistent() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{}", c.name());
        }
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "{}", s.name());
        }
    }

    #[test]
    fn recorder_accumulates_and_snapshots() {
        let rec = QueryRecorder::default();
        rec.add(Counter::EventsScanned, 10);
        rec.add(Counter::EventsScanned, 5);
        rec.add_stage_nanos(Stage::Aggregate, 1_000);
        assert_eq!(rec.counter(Counter::EventsScanned), 15);
        let p = QueryProfile::from_recorder(&rec);
        assert_eq!(p.counter(Counter::EventsScanned), 15);
        assert_eq!(p.stage_nanos(Stage::Aggregate), 1_000);
        assert_eq!(p.counter(Counter::IndexJoins), 0);
    }

    #[test]
    fn recorder_is_shared_across_threads() {
        let rec = QueryRecorder::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        rec.add(Counter::MatchWindows, 1);
                    }
                });
            }
        });
        assert_eq!(rec.counter(Counter::MatchWindows), 4000);
    }

    #[test]
    fn span_records_on_drop_and_none_is_free() {
        let rec = QueryRecorder::default();
        {
            let _s = span(Some(&rec), Stage::IndexBuild);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(rec.stage_nanos(Stage::IndexBuild) > 0);
        assert!(span(None, Stage::IndexBuild).is_none());
    }

    #[test]
    fn text_render_lists_every_counter_and_redacts() {
        let rec = QueryRecorder::default();
        rec.add(Counter::SequencesScanned, 7);
        rec.add_stage_nanos(Stage::FormGroup, 123_456);
        let mut p = QueryProfile::from_recorder(&rec);
        p.strategy = "II";
        p.elapsed_nanos = 42;
        let t = p.render_text(true);
        for c in Counter::ALL {
            assert!(t.contains(c.name()), "missing {}", c.name());
        }
        for s in Stage::ALL {
            assert!(t.contains(s.name()), "missing {}", s.name());
        }
        assert!(t.contains("elapsed=-"), "timings must be redacted: {t}");
        assert!(!t.contains("123"), "redacted render leaks nanos: {t}");
        let unredacted = p.render_text(false);
        assert!(unredacted.contains("µs") || unredacted.contains("ns"));
    }

    #[test]
    fn json_render_is_well_formed() {
        let rec = QueryRecorder::default();
        rec.add(Counter::IndexJoins, 3);
        let mut p = QueryProfile::from_recorder(&rec);
        p.strategy = "CB";
        let j = p.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"index_joins\":3"));
        assert!(j.contains("\"strategy\":\"CB\""));
        // Balanced braces with no trailing commas.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains(",}"));
    }

    #[test]
    fn engine_metrics_fold_and_reset() {
        let m = EngineMetrics::default();
        let rec = QueryRecorder::default();
        rec.add(Counter::EventsScanned, 9);
        let mut p = QueryProfile::from_recorder(&rec);
        p.elapsed_nanos = 100;
        m.record(&p);
        m.record(&p);
        m.record_failure();
        assert_eq!(m.queries(), 2);
        assert_eq!(m.failures(), 1);
        assert_eq!(m.counter(Counter::EventsScanned), 18);
        assert!(m.export_text().contains("queries=2 failures=1"));
        assert!(m.export_json().contains("\"events_scanned\":18"));
        m.reset();
        assert_eq!(m.queries(), 0);
        assert_eq!(m.counter(Counter::EventsScanned), 0);
    }

    #[test]
    fn format_nanos_units() {
        assert_eq!(format_nanos(412), "412ns");
        assert_eq!(format_nanos(3_210), "3.21µs");
        assert_eq!(format_nanos(4_560_000), "4.56ms");
        assert_eq!(format_nanos(1_230_000_000), "1.23s");
    }
}
