//! One workload, one pass, in this process: set up, measure, check.
//!
//! `--trace 0` — the **timed** pass: the real server on a loopback port,
//! two closed-loop client connections (one thread each, one statement in
//! flight per connection), a fixed window, no spans. Reports the
//! end-to-end metrics.
//!
//! `--trace 1` — the **traced** pass: a wire window half as long (its
//! counter deltas, strategy counts and the one-workload-only wire
//! metrics), then a fixed amount of work replayed single-threaded through
//! the in-process [`Replica`] twice over — spans on and spans off, on two
//! engines, interleaved navigation by navigation so that drift hits both
//! alike. Reports the per-layer metrics.
//!
//! Either way every answer of the wire window is checked (see `verify`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::client::{run_nav, Done, Exec, Wire};
use crate::json::Json;
use crate::metrics::{Def, ENGINE_STAGES, SPAN_METRICS};
use crate::sut::{Dataset, Reference, Replica, Sut, COUNTERS, REPLICA_COUNTS};
use crate::trace::{summarize, Tracer};
use crate::util::{fnv1a, median, percentile};
use crate::workload::{stream, warm_up, Item, Workload, BATCH_EVENTS};

/// Client connections = client threads = the `nproc` the benchmark is
/// specified for.
pub const CLIENTS: u64 = 2;
/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Where a run may write: traces, results, WAL directories.
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// D = 2,000 and a small replay: for tests/smoke.rs.
    pub smoke: bool,
}

#[derive(Debug)]
pub struct Outcome {
    /// Wrong answers and failed statements, in words; empty = correct.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from the catalogue.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and what was checked — context, not metrics.
    pub info: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The contract's result line over the metrics `listed` (those
    /// `BENCHMARK.json` gives for this pass). A per-layer metric that
    /// does not exist on this workload reads 0; a gated one must exist.
    pub fn result_line(&self, listed: &[Def], trace: bool) -> Result<Json, String> {
        let mut metrics = Vec::new();
        for (name, unit, _) in listed {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some((_, value)) => *value,
                None if trace => 0.0,
                None => return Err(format!("{name} does not exist on this workload")),
            };
            let entry = vec![
                ("value".to_owned(), Json::Num(value)),
                ("unit".to_owned(), Json::Str((*unit).to_owned())),
            ];
            metrics.push(((*name).to_owned(), Json::Obj(entry)));
        }
        Ok(Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct())),
            ("attempted".to_owned(), Json::Num(self.attempted as f64)),
            ("failed".to_owned(), Json::Num(self.failed as f64)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ]))
    }
}

/// A `SELECT` and the operations applied to its result: the unit whose
/// answers are a function of its statements alone (on unchanging data).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Segment {
    stmts: Vec<String>,
    digests: Vec<u64>,
}

/// The distinct segments of a pass, by the hash of their statements.
#[derive(Debug, Default)]
struct Segments {
    seen: HashMap<u64, Segment>,
    open: Segment,
    /// Segments that answered differently from an earlier occurrence of
    /// the same statements.
    inconsistent: u64,
}

impl Segments {
    fn push(&mut self, stmt: &str, digest: u64) {
        if stmt.starts_with("SELECT") {
            self.close();
        }
        self.open.stmts.push(stmt.to_owned());
        self.open.digests.push(digest);
    }

    /// Ends the open segment (a navigation ended, or a `SELECT` came).
    fn close(&mut self) {
        if !self.open.stmts.is_empty() {
            let segment = std::mem::take(&mut self.open);
            self.record(segment);
        }
    }

    /// Files a finished segment; a repeat must have answered like the
    /// first occurrence.
    fn record(&mut self, segment: Segment) {
        let parts: Vec<&[u8]> = segment.stmts.iter().map(String::as_bytes).collect();
        match self.seen.entry(fnv1a(&parts)) {
            std::collections::hash_map::Entry::Occupied(seen) => {
                self.inconsistent += u64::from(!agree(&segment, seen.get()));
                if segment.digests.len() > seen.get().digests.len() {
                    *seen.into_mut() = segment;
                }
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(segment);
            }
        }
    }
}

/// Whether two runs of the same statements answered alike, as far as
/// both got (a navigation cut short by a failure is a prefix).
fn agree(a: &Segment, b: &Segment) -> bool {
    let n = a.digests.len().min(b.digests.len());
    a.digests[..n] == b.digests[..n]
}

/// What one client connection saw.
#[derive(Debug, Default)]
struct ClientLog {
    stmt_ms: Vec<f64>,
    nav_ms: Vec<f64>,
    store_ms: Vec<f64>,
    /// Cuboid statements / acknowledged events that completed inside the
    /// window (a navigation in flight at the deadline is finished, but
    /// what completes late does not count towards throughput).
    stmts_in_window: u64,
    events_in_window: u64,
    attempted: u64,
    failed: u64,
    first_errors: Vec<String>,
    /// Answers by `via` strategy: CB, II, reuse, cache.
    via: [u64; 4],
    segments: Segments,
    /// Acknowledged `STORE` batches.
    batches: u64,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_errors.len() < 3 {
            self.first_errors.push(what);
        }
    }

    fn on_stmt(&mut self, done: Done<'_>, deadline: Instant, keep_segments: bool) {
        self.attempted += 1;
        let reply = match done.reply {
            Ok(reply) => reply,
            Err(e) => return self.fail(format!("{e} ← {:.100}", done.stmt)),
        };
        self.stmt_ms.push(done.latency.as_secs_f64() * 1e3);
        self.stmts_in_window += u64::from(Instant::now() <= deadline);
        if let Some(slot) = ["CB", "II", "reuse", "cache"]
            .iter()
            .position(|v| *v == reply.via)
        {
            self.via[slot] += 1;
        }
        if keep_segments {
            self.segments.push(done.stmt, reply.digest);
        }
    }
}

/// One closed-loop client: the next statement goes out when the previous
/// answer is in.
fn drive(
    addr: std::net::SocketAddr,
    client: u64,
    cfg: &Config,
    d: usize,
    deadline: Instant,
) -> Result<ClientLog, String> {
    let mut wire = Wire::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut items = stream(cfg.workload, client, cfg.seed, d);
    let mut log = ClientLog::default();
    // While the data changes under the reader, equal statements have
    // different answers; `ingest_mixed` is checked at its end instead.
    let keep_segments = cfg.workload != Workload::IngestMixed;
    while Instant::now() < deadline {
        match items.next_item() {
            Item::Nav(nav) => {
                let start = Instant::now();
                let complete = run_nav(&nav, &mut wire, &mut |done| {
                    log.on_stmt(done, deadline, keep_segments)
                });
                if complete {
                    log.nav_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
                log.segments.close();
            }
            Item::Store(batch) => {
                log.attempted += 1;
                let start = Instant::now();
                let answer = wire.exec(&batch);
                let latency = start.elapsed();
                match answer {
                    Ok(body) if body.starts_with(&format!("stored {BATCH_EVENTS} events")) => {
                        log.store_ms.push(latency.as_secs_f64() * 1e3);
                        log.batches += 1;
                        if Instant::now() <= deadline {
                            log.events_in_window += BATCH_EVENTS as u64;
                        }
                    }
                    Ok(body) => log.fail(format!("unexpected STORE answer: {body:.100}")),
                    Err(e) => log.fail(format!("{e} ← STORE")),
                }
            }
        }
    }
    Ok(log)
}

/// Everything the two clients saw in one wire window, merged.
struct Window {
    seconds: f64,
    log: ClientLog,
    /// Deltas of [`COUNTERS`] over the window (gauges: value at its end).
    counters: [u64; COUNTERS.len()],
}

fn wire_window(sut: &Sut, cfg: &Config, d: usize, seconds: f64) -> Result<Window, String> {
    let before = sut.counters();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || drive(sut.addr(), c, cfg, d, deadline)))
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let after = sut.counters();
    let mut counters = [0; COUNTERS.len()];
    for (i, name) in COUNTERS.iter().enumerate() {
        counters[i] = if *name == "index.store_bytes" {
            after[i]
        } else {
            after[i] - before[i]
        };
    }
    let mut log = ClientLog::default();
    for client in logs {
        let mut client = client?;
        log.stmt_ms.append(&mut client.stmt_ms);
        log.nav_ms.append(&mut client.nav_ms);
        log.store_ms.append(&mut client.store_ms);
        log.stmts_in_window += client.stmts_in_window;
        log.events_in_window += client.events_in_window;
        log.attempted += client.attempted;
        log.failed += client.failed;
        log.first_errors.append(&mut client.first_errors);
        log.segments.inconsistent += client.segments.inconsistent;
        log.batches += client.batches;
        for (sum, n) in log.via.iter_mut().zip(client.via) {
            *sum += n;
        }
        for segment in client.segments.seen.into_values() {
            log.segments.record(segment);
        }
    }
    Ok(Window {
        seconds,
        log,
        counters,
    })
}

/// Runs the warm-up navigations over a fresh connection; any failure is
/// an error (the workloads are chosen so that no statement fails).
fn warm(exec: &mut dyn Exec, cfg: &Config, d: usize) -> Result<(), String> {
    for nav in warm_up(cfg.workload, d) {
        let mut error = None;
        run_nav(&nav, exec, &mut |done| {
            if let Err(e) = done.reply {
                error = Some(format!("warm-up: {e} ← {:.100}", done.stmt));
            }
        });
        if let Some(e) = error {
            return Err(e);
        }
    }
    Ok(())
}

/// Dataset generation + engine build + server spawn + warm-up: what a
/// user waits for before the first answer. Returns the seconds it took.
fn set_up(cfg: &Config, d: usize, wal: Option<&Path>) -> Result<(Sut, f64), String> {
    let start = Instant::now();
    let data = Dataset::generate(d);
    let sut = Sut::boot(&data, wal)?;
    drop(data); // the engine has its copy; keep the peak honest
    warm(
        &mut Wire::connect(sut.addr()).map_err(|e| e.to_string())?,
        cfg,
        d,
    )?;
    Ok((sut, start.elapsed().as_secs_f64()))
}

/// A scratch directory under [`OUT_DIR`], emptied; the caller removes it.
fn scratch_dir(cfg: &Config, what: &str) -> Result<PathBuf, String> {
    let dir = Path::new(OUT_DIR).join(format!(
        "{what}-{}-{}",
        cfg.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// How many distinct segments a run checks against the reference, by
/// workload: sized to a few seconds of counter-based scans. Every answer
/// is checked for being an answer, and every repeat of a segment for
/// answering as the first time; the reference check on top is a sample
/// because scanning for every cold answer again, single-threaded and
/// without indices, would cost more than the window that produced them.
fn reference_sample(workload: Workload) -> usize {
    match workload {
        Workload::ExploreCold => 6,
        Workload::DashboardHot => 32,
        Workload::DrillChurn => 64,
        Workload::IngestMixed => 0, // checked by `recovery_check`
    }
}

/// Checks `sample` distinct segments (lowest keys first: a seeded, fixed
/// choice) against the reference engine. Returns (checked, mismatches).
fn verify(data: &Dataset, segments: &HashMap<u64, Segment>, sample: usize) -> (u64, Vec<String>) {
    let mut keys: Vec<&u64> = segments.keys().collect();
    keys.sort();
    keys.truncate(sample);
    let halves: Vec<Vec<&Segment>> = (0..2)
        .map(|half| {
            keys.iter()
                .skip(half)
                .step_by(2)
                .map(|k| &segments[*k])
                .collect()
        })
        .collect();
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = halves
            .iter()
            .map(|half| {
                scope.spawn(move || {
                    let mut reference = Reference::new(data);
                    let mut bad = Vec::new();
                    for segment in half {
                        for (stmt, digest) in segment.stmts.iter().zip(&segment.digests) {
                            let got = reference
                                .exec(stmt)
                                .ok()
                                .and_then(|b| crate::client::Reply::parse(&b))
                                .map(|r| r.digest);
                            if got != Some(*digest) {
                                bad.push(format!("answer differs from the reference: {stmt:.160}"));
                                break;
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker"))
            .collect()
    });
    (keys.len() as u64, mismatches)
}

/// `ingest_mixed`'s end: with the writer stopped, the reader's navigation
/// once more over the wire; then the engine is dropped, the WAL directory
/// reopened over a regenerated base dataset, and the recovered engine —
/// counter-based, from scratch — must hold base + acknowledged events
/// and give the same answers.
fn recovery_check(
    sut: Sut,
    data: &Dataset,
    wal: &Path,
    acknowledged_events: u64,
) -> Result<Vec<String>, String> {
    let nav = crate::workload::ingest_reader_nav();
    let mut finals = Vec::new();
    let mut wire = Wire::connect(sut.addr()).map_err(|e| e.to_string())?;
    let mut problems = Vec::new();
    run_nav(&nav, &mut wire, &mut |done| match done.reply {
        Ok(reply) => finals.push((done.stmt.to_owned(), reply.digest)),
        Err(e) => problems.push(format!("final navigation: {e}")),
    });
    drop(wire);
    let live_events = sut.events();
    sut.shutdown()?;
    let (mut recovered, events) = Reference::recover(data, wal)?;
    let expected = data.events() as u64 + acknowledged_events;
    if events as u64 != expected || live_events as u64 != expected {
        problems.push(format!(
            "events: recovered {events}, live {live_events}, base + acknowledged {expected}"
        ));
    }
    for (stmt, digest) in finals {
        let got = recovered
            .exec(&stmt)
            .ok()
            .and_then(|b| crate::client::Reply::parse(&b))
            .map(|r| r.digest);
        if got != Some(digest) {
            problems.push(format!("after recovery the answer differs: {stmt:.160}"));
        }
    }
    Ok(problems)
}

/// Runs the pass `cfg` describes.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let d = cfg.workload.sequences(cfg.smoke);
    let durable = cfg.workload == Workload::IngestMixed;
    let wal = if durable {
        Some(scratch_dir(cfg, "wal")?)
    } else {
        None
    };
    let result = run_in(cfg, d, wal.as_deref());
    if let Some(dir) = &wal {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

fn run_in(cfg: &Config, d: usize, wal: Option<&Path>) -> Result<Outcome, String> {
    // Set up SETUPS times when setup_s is reported, tearing down all but
    // the last, which serves the window.
    let mut setup_s = Vec::new();
    let mut sut = None;
    for _ in 0..if cfg.trace { 1 } else { SETUPS } {
        if let Some(previous) = sut.take() {
            Sut::shutdown(previous)?;
            if let Some(dir) = wal {
                std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
            }
        }
        let (fresh, seconds) = set_up(cfg, d, wal)?;
        setup_s.push(seconds);
        sut = Some(fresh);
    }
    let sut = sut.expect("at least one set-up");

    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let window = wire_window(&sut, cfg, d, seconds)?;
    let rss = peak_rss_mb()?;
    let wal_bytes = wal.map_or(0, dir_bytes);

    // Check before reporting: a wrong answer voids the numbers.
    let data = Dataset::generate(d);
    let mut problems = window.log.first_errors.clone();
    if window.log.segments.inconsistent > 0 {
        problems.push(format!(
            "{} segments answered differently on a repeat",
            window.log.segments.inconsistent
        ));
    }
    let checked = if let Some(dir) = wal {
        let acknowledged = window.log.batches * BATCH_EVENTS as u64;
        problems.extend(recovery_check(sut, &data, dir, acknowledged)?);
        0
    } else {
        sut.shutdown()?;
        let (checked, bad) = verify(
            &data,
            &window.log.segments.seen,
            reference_sample(cfg.workload),
        );
        problems.extend(bad);
        checked
    };

    let log = &window.log;
    let mut out = Outcome {
        problems,
        attempted: log.attempted,
        failed: log.failed,
        metrics: Vec::new(),
        info: vec![
            ("dataset", Json::Str(data.name.clone())),
            ("events", Json::Num(data.events() as f64)),
            ("samples_stmt", Json::Num(log.stmt_ms.len() as f64)),
            ("samples_nav", Json::Num(log.nav_ms.len() as f64)),
            ("samples_store", Json::Num(log.store_ms.len() as f64)),
            ("segments_seen", Json::Num(log.segments.seen.len() as f64)),
            (
                "segments_checked_against_reference",
                Json::Num(checked as f64),
            ),
            // `ingest_mixed` only: the final navigation and the reopened
            // WAL were compared (any difference is among the problems).
            ("recovery_checked", Json::Bool(wal.is_some())),
        ],
    };
    if log.stmt_ms.is_empty() || log.nav_ms.is_empty() {
        return Err(format!(
            "no complete navigation inside the window: {:?}",
            out.problems
        ));
    }
    // Over the wire, so measured in both passes.
    let mut stmt_ms = log.stmt_ms.clone();
    out.metrics = vec![
        ("setup_s", median(&mut setup_s)),
        ("stmt_per_s", log.stmts_in_window as f64 / window.seconds),
        ("stmt_p50_ms", percentile(&mut stmt_ms, 0.50)),
        ("stmt_p95_ms", percentile(&mut stmt_ms, 0.95)),
        ("stmt_p99_ms", percentile(&mut stmt_ms, 0.99)),
        ("nav_p50_ms", median(&mut log.nav_ms.clone())),
        ("peak_rss_mb", rss),
    ];
    if !log.store_ms.is_empty() {
        let mut store_ms = log.store_ms.clone();
        let acknowledged = (log.batches * BATCH_EVENTS as u64) as f64;
        out.metrics.extend([
            ("store_p50_ms", percentile(&mut store_ms, 0.50)),
            ("store_p95_ms", percentile(&mut store_ms, 0.95)),
            ("events_per_s", log.events_in_window as f64 / window.seconds),
            ("wal_bytes_per_event", wal_bytes as f64 / acknowledged),
        ]);
    }
    if !cfg.trace {
        return Ok(out);
    }

    // The wire window's share of the layer metrics.
    let counter = |name: &str| named(&COUNTERS, &window.counters, name);
    let wire_p50 = percentile(&mut stmt_ms, 0.50);
    out.metrics.extend([
        ("wire.stmts", log.stmt_ms.len() as f64),
        ("server.served_err", counter("server.served_err")),
        ("server.rejected_queue", counter("server.rejected_queue")),
        ("core.via_cb", log.via[0] as f64),
        ("core.via_ii", log.via[1] as f64),
        ("core.via_reuse", log.via[2] as f64),
        ("core.via_cache", log.via[3] as f64),
        (
            "core.repo_hit_ratio",
            ratio(counter("core.repo_hits"), counter("core.repo_misses")),
        ),
        ("core.repo_evictions", counter("core.repo_evictions")),
        (
            "index.store_hit_ratio",
            ratio(counter("index.store_hits"), counter("index.store_misses")),
        ),
    ]);
    for name in [
        "index.joins",
        "index.bytes_built",
        "index.store_bytes",
        "eventdb.wal_fsyncs",
        "eventdb.wal_rotations",
        "core.ingest_groups_extended",
        "core.ingest_indexes_extended",
        "core.ingest_rebuild_fallbacks",
    ] {
        out.metrics.push((name, counter(name)));
    }
    let replayed = replay(cfg, &data, d, wire_p50, &window.log.segments.seen)?;
    out.metrics.extend(replayed.metrics);
    out.info.extend(replayed.info);
    out.problems.extend(replayed.problems);
    Ok(out)
}

struct Replayed {
    metrics: Vec<(&'static str, f64)>,
    info: Vec<(&'static str, Json)>,
    problems: Vec<String>,
}

/// The value called `name` among `values`, which `names` labels in order.
fn named(names: &[&str], values: &[u64], name: &str) -> f64 {
    let at = names.iter().position(|n| *n == name).expect("a known name");
    values[at] as f64
}

/// `hits / (hits + misses)`; 0 before any lookup.
fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// (navigations, `STORE` batches after each) of client 0's stream the
/// traced pass replays: fixed work, so its counts repeat exactly. Sized
/// to a few seconds; shrink this, never the timed window.
fn replay_plan(cfg: &Config) -> (usize, usize) {
    let (navs, stores): (usize, usize) = match cfg.workload {
        Workload::ExploreCold => (8, 0),
        Workload::DashboardHot => (300, 0),
        Workload::DrillChurn => (120, 0),
        Workload::IngestMixed => (12, 4),
    };
    if cfg.smoke {
        (navs.div_ceil(4), stores)
    } else {
        (navs, stores)
    }
}

/// A fresh engine behind the replica's statement path, warmed up like
/// the server was (untraced, uncounted). `ingest_mixed` gets a WAL and a
/// scratch log of its own under `dirs`, which the caller removes.
fn replica(
    cfg: &Config,
    data: &Dataset,
    d: usize,
    traced: bool,
    dirs: &mut Vec<PathBuf>,
) -> Result<Replica, String> {
    let wal = if cfg.workload == Workload::IngestMixed {
        let tag = if traced { "on" } else { "off" };
        let pair = (
            scratch_dir(cfg, &format!("replay-{tag}-wal"))?,
            scratch_dir(cfg, &format!("replay-{tag}-scratch"))?,
        );
        dirs.extend([pair.0.clone(), pair.1.clone()]);
        Some(pair)
    } else {
        None
    };
    let mut r = Replica::new(
        data,
        wal.as_ref().map(|(a, b)| (a.as_path(), b.as_path())),
        false,
    )?;
    warm(&mut r, cfg, d)?;
    r.tracer = Tracer::new(traced);
    r.counts = [0; REPLICA_COUNTS.len()];
    Ok(r)
}

/// The traced and the traced-off replay, and what their spans add up to.
fn replay(
    cfg: &Config,
    data: &Dataset,
    d: usize,
    wire_p50_ms: f64,
    wire_segments: &HashMap<u64, Segment>,
) -> Result<Replayed, String> {
    let mut dirs = Vec::new();
    let result = replay_in(cfg, data, d, wire_p50_ms, wire_segments, &mut dirs);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    result
}

fn replay_in(
    cfg: &Config,
    data: &Dataset,
    d: usize,
    wire_p50_ms: f64,
    wire_segments: &HashMap<u64, Segment>,
    dirs: &mut Vec<PathBuf>,
) -> Result<Replayed, String> {
    let mut on = replica(cfg, data, d, true, dirs)?;
    let mut off = replica(cfg, data, d, false, dirs)?;
    let (navs, stores) = replay_plan(cfg);
    let mut reader = stream(cfg.workload, 0, cfg.seed, d);
    let mut writer = stream(cfg.workload, 1, cfg.seed, d);
    // Per item: seconds on the untraced and on the traced replica.
    let mut pairs: Vec<[f64; 2]> = Vec::new();
    let mut problems = Vec::new();
    let mut statements = 0u64;
    let mut segments = Segments::default();
    for round in 0..navs {
        let mut items = vec![reader.next_item()];
        items.extend((0..stores).map(|_| writer.next_item()));
        for item in &items {
            let mut digests: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
            let mut seconds = [0.0; 2];
            // Alternate which replica goes first.
            for turn in 0..2 {
                let traced = (round + turn) % 2 == 0;
                let r = if traced { &mut on } else { &mut off };
                let start = Instant::now();
                match item {
                    Item::Nav(nav) => {
                        let mut error = None;
                        run_nav(nav, r, &mut |done| match done.reply {
                            Ok(reply) => {
                                digests[usize::from(traced)].push(reply.digest);
                                if traced {
                                    segments.push(done.stmt, reply.digest);
                                }
                            }
                            Err(e) => error = Some(format!("replay: {e} ← {:.100}", done.stmt)),
                        });
                        if let Some(e) = error {
                            return Err(e);
                        }
                    }
                    Item::Store(batch) => {
                        r.exec(batch).map_err(|e| format!("replay: {e} ← STORE"))?;
                    }
                }
                seconds[usize::from(traced)] = start.elapsed().as_secs_f64();
            }
            segments.close();
            pairs.push(seconds);
            if digests[0] != digests[1] {
                problems.push("the two replicas answered differently".to_owned());
            }
            statements += match item {
                Item::Nav(_) => digests[1].len() as u64,
                Item::Store(_) => 1,
            };
        }
    }
    // Where the replica ran what the wire ran, the answers agree.
    for (key, segment) in &segments.seen {
        if wire_segments
            .get(key)
            .is_some_and(|wire| !agree(segment, wire))
        {
            problems.push(format!(
                "replica and server differ: {:.160}",
                segment.stmts[0]
            ));
        }
    }

    on.tracer
        .write_jsonl(&Path::new(OUT_DIR).join(format!("trace-{}.jsonl", cfg.workload.name())))
        .map_err(|e| format!("writing the trace: {e}"))?;
    let sum = summarize(on.tracer.spans());
    if sum.statements != statements {
        return Err(format!(
            "{} root spans for {statements} statements",
            sum.statements
        ));
    }

    let per_stmt = |ns: u64| ns as f64 / 1e6 / statements as f64;
    let share = |ns: u64| 100.0 * ns as f64 / sum.root_ns as f64;
    // Self time; only `core.execute` has children (its stages).
    let self_ns = |span: &str| sum.self_ns.get(span).copied().unwrap_or(0);
    let mut metrics: Vec<(&'static str, f64)> = vec![
        ("trace.stmts", statements as f64),
        ("trace.stmt_ms", per_stmt(sum.root_ns)),
    ];
    metrics.extend(SPAN_METRICS.map(|(span, metric)| (metric, per_stmt(self_ns(span)))));
    let engine_ns = SPAN_METRICS
        .iter()
        .filter(|(_, metric)| ENGINE_STAGES.contains(metric))
        .map(|(span, _)| self_ns(span))
        .sum();
    let mut roots_ms: Vec<f64> = sum.root_each_ns.iter().map(|ns| *ns as f64 / 1e6).collect();
    // The median of the paired differences: a hiccup of the machine
    // lands on one item of one replica, and the planner may build one
    // answer differently on the two engines; neither is the tracing.
    let mut slowdowns: Vec<f64> = pairs.iter().map(|[off, on]| on / off - 1.0).collect();
    let count = |name: &str| named(&REPLICA_COUNTS, &on.counts, name);
    metrics.extend([
        (
            "core.incremental_ms",
            per_stmt(self_ns("core.store")) - per_stmt(self_ns("eventdb.wal_append")),
        ),
        ("server.overhead_ms", wire_p50_ms - median(&mut roots_ms)),
        ("trace.unattributed_pct", share(sum.unattributed_ns)),
        ("trace.overhead_pct", 100.0 * median(&mut slowdowns)),
        ("trace.engine_share_pct", share(engine_ns)),
        (
            "eventdb.seqcache_hit_ratio",
            ratio(
                count("eventdb.seqcache_hits"),
                count("eventdb.seqcache_misses"),
            ),
        ),
    ]);
    for name in [
        "eventdb.events_scanned",
        "eventdb.sequences_scanned",
        "pattern.match_windows",
        "pattern.assignments",
        "core.cells_materialized",
    ] {
        metrics.push((name, count(name)));
    }
    Ok(Replayed {
        metrics,
        info: vec![
            (
                "replay_traced_s",
                Json::Num(pairs.iter().map(|p| p[1]).sum()),
            ),
            (
                "replay_untraced_s",
                Json::Num(pairs.iter().map(|p| p[0]).sum()),
            ),
            // False when the planner, which picks by measured cost,
            // built the same answers differently on the two engines.
            (
                "replicas_counted_alike",
                Json::Bool(on.counts == off.counts),
            ),
        ],
        problems,
    })
}
