//! The catalogue of metric names, units and directions: everything a run
//! can measure, and prints in its context line. `BENCHMARK.json` decides
//! which [`WIRE`] metrics are gated (`end_to_end`, the result line of
//! `--trace 0`) and which are listed unbounded beside the layers
//! (`per_layer`, the result line of `--trace 1`); `calibrate` writes that
//! split from measured spreads. The names are checked against
//! this file when `BENCHMARK.json` is loaded.

/// `(name, unit, better)`.
pub type Def = (&'static str, &'static str, &'static str);

/// What a client of the server sees — every one measured over the wire,
/// in both passes. `store_*`, `events_per_s` and `wal_bytes_per_event`
/// exist on `ingest_mixed` only, and a gated metric has to exist (and be
/// non-zero) on every workload, so those can only be listed unbounded.
pub const WIRE: [Def; 11] = [
    ("setup_s", "s", "lower"),
    ("stmt_per_s", "1/s", "higher"),
    ("stmt_p50_ms", "ms", "lower"),
    ("stmt_p95_ms", "ms", "lower"),
    ("stmt_p99_ms", "ms", "lower"),
    ("nav_p50_ms", "ms", "lower"),
    ("store_p50_ms", "ms", "lower"),
    ("store_p95_ms", "ms", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("wal_bytes_per_event", "B", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// What the layers did: measured by `--trace 1` only, never bounded.
pub const LAYER: [Def; 45] = [
    // Wire window of the traced run: counts over it, by public getters.
    ("wire.stmts", "count", "higher"),
    ("server.served_err", "count", "lower"),
    ("server.rejected_queue", "count", "lower"),
    ("core.via_cb", "count", "lower"),
    ("core.via_ii", "count", "lower"),
    ("core.via_reuse", "count", "higher"),
    ("core.via_cache", "count", "higher"),
    ("core.repo_hit_ratio", "ratio", "higher"),
    ("core.repo_evictions", "count", "lower"),
    ("index.store_hit_ratio", "ratio", "higher"),
    ("index.joins", "count", "lower"),
    ("index.bytes_built", "B", "lower"),
    ("index.store_bytes", "B", "lower"),
    ("eventdb.wal_fsyncs", "count", "lower"),
    ("eventdb.wal_rotations", "count", "lower"),
    ("core.ingest_groups_extended", "count", "higher"),
    ("core.ingest_indexes_extended", "count", "higher"),
    ("core.ingest_rebuild_fallbacks", "count", "lower"),
    // Traced replay: mean ms per traced statement, so that the spans
    // and `trace.unattributed` add up to `trace.stmt_ms`.
    ("trace.stmts", "count", "higher"),
    ("trace.stmt_ms", "ms", "lower"),
    ("server.frame_ms", "ms", "lower"),
    ("query.parse_ms", "ms", "lower"),
    ("core.plan_ms", "ms", "lower"),
    ("core.execute_self_ms", "ms", "lower"),
    ("eventdb.select_cluster_ms", "ms", "lower"),
    ("eventdb.form_group_ms", "ms", "lower"),
    ("index.build_ms", "ms", "lower"),
    ("index.join_ms", "ms", "lower"),
    ("index.verify_ms", "ms", "lower"),
    ("core.aggregate_ms", "ms", "lower"),
    ("core.store_ms", "ms", "lower"),
    ("core.tabulate_ms", "ms", "lower"),
    ("server.serialize_ms", "ms", "lower"),
    ("eventdb.wal_append_ms", "ms", "lower"),
    ("core.incremental_ms", "ms", "lower"),
    ("server.overhead_ms", "ms", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.engine_share_pct", "%", "lower"),
    // Traced replay: exact counts from the returned profiles.
    ("eventdb.seqcache_hit_ratio", "ratio", "higher"),
    ("eventdb.events_scanned", "count", "lower"),
    ("eventdb.sequences_scanned", "count", "lower"),
    ("pattern.match_windows", "count", "lower"),
    ("pattern.assignments", "count", "lower"),
    ("core.cells_materialized", "count", "lower"),
];

/// Times that are structurally zero on some workload: there is no store
/// on three of the four, no engine stage behind a repository hit. A run
/// measures and reports them (context line, `run`), but `BENCHMARK.json`
/// lists only metrics that every workload produces — the driver rejects a
/// time that reads exactly the same on every run, and "0 ms, always" does.
/// `trace.engine_share_pct` carries the engine stages into that list.
pub const NOT_ON_EVERY_WORKLOAD: [&str; 11] = [
    "store_p50_ms",
    "store_p95_ms",
    "eventdb.select_cluster_ms",
    "eventdb.form_group_ms",
    "index.build_ms",
    "index.join_ms",
    "index.verify_ms",
    "core.aggregate_ms",
    "core.store_ms",
    "eventdb.wal_append_ms",
    "core.incremental_ms",
];

pub fn lookup(name: &str) -> Option<Def> {
    WIRE.iter().chain(&LAYER).copied().find(|d| d.0 == name)
}

/// Span name → the metric its self time feeds. Only `core.execute` has
/// children: the engine's stages, laid out from the returned profile.
pub const SPAN_METRICS: [(&str, &str); 14] = [
    ("server.frame", "server.frame_ms"),
    ("query.parse", "query.parse_ms"),
    ("core.plan", "core.plan_ms"),
    ("core.execute", "core.execute_self_ms"),
    ("eventdb.select_cluster", "eventdb.select_cluster_ms"),
    ("eventdb.form_group", "eventdb.form_group_ms"),
    ("index.build", "index.build_ms"),
    ("index.join", "index.join_ms"),
    ("index.verify", "index.verify_ms"),
    ("core.aggregate", "core.aggregate_ms"),
    ("core.store", "core.store_ms"),
    ("core.tabulate", "core.tabulate_ms"),
    ("server.serialize", "server.serialize_ms"),
    ("eventdb.wal_append", "eventdb.wal_append_ms"),
];

/// The stages whose share of `trace.stmt_ms` says "the engine did the
/// work" (≥ 70 % on explore_cold, ≤ 10 % on dashboard_hot).
pub const ENGINE_STAGES: [&str; 6] = [
    "eventdb.select_cluster_ms",
    "eventdb.form_group_ms",
    "index.build_ms",
    "index.join_ms",
    "index.verify_ms",
    "core.aggregate_ms",
];
