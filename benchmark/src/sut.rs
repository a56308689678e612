//! The adapter to the system under test — the only file that imports the
//! program (`solap_*`). Everything else in the benchmark sees statement
//! strings, response bodies, counter names and span names.
//!
//! Three things live here:
//!
//! * [`Sut`] — the real thing the timed pass measures: a generated
//!   dataset in an [`Engine`], behind a real [`Server`] on a loopback
//!   port. Uses nothing but `generate_synthetic`, `Engine::builder`,
//!   `Server::spawn` and `ServerHandle::{local_addr, stats, shutdown}`,
//!   plus read-only getters for the counter deltas.
//! * [`Replica`] — the statement path rebuilt from the layers' public
//!   functions, one span per call, for the traced pass. It must produce
//!   byte-identical bodies to the server's; the benchmark checks that.
//! * [`Reference`] — a second engine forced to counter-based scans with
//!   the cuboid repository off, which answers define "correct".
//!
//! README.md lists every public item this file depends on: those are the
//! signatures the benchmark freezes.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use solap_core::{Engine, Session, Strategy};
use solap_datagen::{generate_synthetic, SyntheticConfig};
use solap_eventdb::metrics::{self, Counter, Stage};
use solap_eventdb::{EventDb, EventLog, FsyncPolicy, QueryProfile, Value};
use solap_server::conn::{Frame, FrameBuf};
use solap_server::{command, dispatch, Response, Server, ServerConfig, ServerHandle, SessionCtx};

use crate::client::Exec;
use crate::trace::Tracer;

/// Server worker threads; with the two client threads this fills the
/// two cores the benchmark is specified for.
pub const WORKERS: usize = 2;
/// Engine construction threads per query.
pub const ENGINE_THREADS: usize = 1;
/// WAL fsync policy of `ingest_mixed`.
const FSYNC: FsyncPolicy = FsyncPolicy::Batch;
/// The generator's own seed. The dataset is the paper's, the same for
/// every `--seed`; the seed varies the questions asked of it.
const DATASET_SEED: u64 = 2008;

/// Every setting the benchmark pins, for the run's header.
pub fn pinned() -> Vec<(&'static str, String)> {
    let server = server_config();
    vec![
        ("server.workers", WORKERS.to_string()),
        ("server.max_inflight", server.max_inflight.to_string()),
        ("server.pipeline_depth", server.pipeline_depth.to_string()),
        ("server.max_conn", server.max_conn.to_string()),
        ("engine.threads", ENGINE_THREADS.to_string()),
        ("engine.strategy", "auto (shipped default)".to_owned()),
        (
            "engine.caches",
            "shipped defaults: seq 64, index 256, repo 128 entries".to_owned(),
        ),
        (
            "wal.fsync",
            "batch (ingest_mixed only; other workloads in-memory)".to_owned(),
        ),
        ("dataset.seed", DATASET_SEED.to_string()),
    ]
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

/// The paper's §5.2 synthetic dataset `I100.L20.θ0.9.D<d>` with the
/// 3-level symbol hierarchy.
pub struct Dataset {
    db: EventDb,
    pub name: String,
}

impl Dataset {
    pub fn generate(d: usize) -> Dataset {
        let cfg = SyntheticConfig {
            i: 100,
            l: 20.0,
            theta: 0.9,
            d,
            seed: DATASET_SEED,
            hierarchy: true,
        };
        Dataset {
            db: generate_synthetic(&cfg).expect("the synthetic schema is valid"),
            name: cfg.name(),
        }
    }

    pub fn events(&self) -> usize {
        self.db.len()
    }
}

fn builder(
    data: &Dataset,
    wal: Option<&Path>,
) -> Result<solap_core::engine::EngineBuilder, String> {
    let b = Engine::builder(data.db.clone()).threads(ENGINE_THREADS);
    match wal {
        Some(dir) => b.durable_with_policy(dir, FSYNC).map_err(|e| e.to_string()),
        None => Ok(b),
    }
}

/// The system the timed pass drives: engine + server, in this process.
pub struct Sut {
    engine: Arc<Engine>,
    handle: ServerHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Names of [`Sut::counters`], in its order. `index.store_bytes` is a
/// gauge; the rest only grow.
pub const COUNTERS: [&str; 16] = [
    "server.served_ok",
    "server.served_err",
    "server.rejected_queue",
    "core.repo_hits",
    "core.repo_misses",
    "core.repo_evictions",
    "index.store_hits",
    "index.store_misses",
    "index.store_bytes",
    "index.joins",
    "index.bytes_built",
    "eventdb.wal_fsyncs",
    "eventdb.wal_rotations",
    "core.ingest_groups_extended",
    "core.ingest_indexes_extended",
    "core.ingest_rebuild_fallbacks",
];

impl Sut {
    /// Builds the engine over a copy of `data` (durable in `wal` if
    /// given) and starts the server on a free loopback port.
    pub fn boot(data: &Dataset, wal: Option<&Path>) -> Result<Sut, String> {
        let engine = Arc::new(builder(data, wal)?.build());
        let (handle, join) =
            Server::spawn(Arc::clone(&engine), server_config()).map_err(|e| e.to_string())?;
        Ok(Sut {
            engine,
            handle,
            join,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Events in the engine's database right now.
    pub fn events(&self) -> usize {
        self.engine.db().len()
    }

    /// Public getters of the layers, read from outside. The process-wide
    /// metrics are this engine's alone as long as no other engine runs
    /// at the same time, which the passes make sure of.
    pub fn counters(&self) -> [u64; COUNTERS.len()] {
        let server = self.handle.stats();
        let repo = self.engine.cuboid_repo().stats();
        let (store_hits, store_misses) = self.engine.index_store().stats();
        let global = |c| metrics::global().counter(c);
        [
            server.served_ok,
            server.served_err,
            server.rejected_queue,
            repo.hits,
            repo.misses,
            repo.evictions,
            store_hits,
            store_misses,
            self.engine.index_store().total_bytes() as u64,
            global(Counter::IndexJoins),
            global(Counter::IndexBytesBuilt),
            global(Counter::WalFsyncs),
            global(Counter::WalRotations),
            global(Counter::IngestGroupsExtended),
            global(Counter::IngestIndexesExtended),
            global(Counter::IngestRebuildFallbacks),
        ]
    }

    /// Graceful drain, then joins the event loop (which joins its
    /// workers) and drops the engine, closing its WAL.
    pub fn shutdown(self) -> Result<(), String> {
        self.handle.shutdown();
        self.join
            .join()
            .map_err(|_| "the server's event loop panicked".to_owned())?
            .map_err(|e| e.to_string())?;
        self.engine.sync().map_err(|e| e.to_string())
    }
}

/// The engine whose answers define "correct": counter-based scans only,
/// cuboid repository off, through the program's own `dispatch`.
pub struct Reference {
    ctx: SessionCtx,
}

impl Reference {
    pub fn new(data: &Dataset) -> Reference {
        Reference::over(builder(data, None).expect("no WAL to open"))
    }

    /// Reopens `wal` over a regenerated base dataset — what a restart
    /// does — and returns the reference with the recovered event count.
    pub fn recover(data: &Dataset, wal: &Path) -> Result<(Reference, usize), String> {
        let reference = Reference::over(builder(data, Some(wal))?);
        let events = reference.ctx.session().engine().db().len();
        Ok((reference, events))
    }

    fn over(builder: solap_core::engine::EngineBuilder) -> Reference {
        let engine = builder
            .strategy(Strategy::CounterBased)
            .use_cuboid_repo(false)
            .build();
        Reference {
            ctx: SessionCtx::new(Arc::new(engine)),
        }
    }
}

impl Exec for Reference {
    fn exec(&mut self, stmt: &str) -> Result<String, String> {
        let r = dispatch(&mut self.ctx, stmt);
        if r.ok {
            Ok(r.body)
        } else {
            Err(format!("{}: {}", r.code.unwrap_or_default(), r.body))
        }
    }
}

/// Stage times the engine reports per query, as span names.
const STAGES: [(Stage, &str); 6] = [
    (Stage::SelectCluster, "eventdb.select_cluster"),
    (Stage::FormGroup, "eventdb.form_group"),
    (Stage::IndexBuild, "index.build"),
    (Stage::IndexJoin, "index.join"),
    (Stage::IndexVerify, "index.verify"),
    (Stage::Aggregate, "core.aggregate"),
];

/// Names of [`Replica::counts`], in its order: exact per-statement counts
/// from the returned `QueryProfile`s.
pub const REPLICA_COUNTS: [&str; 7] = [
    "eventdb.seqcache_hits",
    "eventdb.seqcache_misses",
    "eventdb.events_scanned",
    "eventdb.sequences_scanned",
    "pattern.match_windows",
    "pattern.assignments",
    "core.cells_materialized",
];

/// The server's statement path, rebuilt out of public calls with a span
/// around each: `server.frame` → `query.parse` → `core.plan` (SELECT
/// only) → `core.execute` (its stages laid out from the returned
/// profile) or `core.store` → `core.tabulate` → `server.serialize`.
///
/// Differences from the real path, all deliberate: there is no socket,
/// event loop, admission queue or worker hand-off (their cost is what
/// `server.overhead_ms` reports), and `core.plan` is an extra
/// `Session::explain` — the engine plans again inside `execute`, where
/// it cannot be timed from outside.
pub struct Replica {
    engine: Arc<Engine>,
    session: Session,
    frames: FrameBuf,
    /// A second log fed the same batches, to time the WAL alone.
    scratch_log: Option<EventLog>,
    /// The batch the last `STORE` applied, not yet fed to `scratch_log`.
    unlogged: Option<Vec<Vec<Value>>>,
    pub tracer: Tracer,
    pub counts: [u64; REPLICA_COUNTS.len()],
}

impl Replica {
    /// `wal` = (the engine's WAL directory, the scratch log's directory).
    pub fn new(
        data: &Dataset,
        wal: Option<(&Path, &Path)>,
        traced: bool,
    ) -> Result<Replica, String> {
        let engine = Arc::new(builder(data, wal.map(|w| w.0))?.build());
        let scratch_log = match wal {
            Some((_, scratch)) => {
                Some(EventLog::open(scratch, FSYNC).map_err(|e| e.to_string())?.0)
            }
            None => None,
        };
        Ok(Replica {
            session: Session::new(Arc::clone(&engine)),
            engine,
            frames: FrameBuf::new(server_config().max_line_bytes),
            scratch_log,
            unlogged: None,
            tracer: Tracer::new(traced),
            counts: [0; REPLICA_COUNTS.len()],
        })
    }

    fn count_profile(&mut self, p: &QueryProfile) {
        for (slot, counter) in [
            Counter::SeqCacheHits,
            Counter::SeqCacheMisses,
            Counter::EventsScanned,
            Counter::SequencesScanned,
            Counter::MatchWindows,
            Counter::PatternAssignments,
            Counter::CellsMaterialized,
        ]
        .into_iter()
        .enumerate()
        {
            self.counts[slot] += p.counter(counter);
        }
        let stages = STAGES.map(|(stage, name)| (name, p.stage_nanos(stage)));
        self.tracer.lay_out(&stages);
    }

    fn statement(&mut self, stmt: &str) -> Result<String, solap_eventdb::Error> {
        let t = self.tracer.enter("server.frame");
        self.frames.push(stmt.as_bytes());
        self.frames.push(b"\n");
        let line = match self.frames.next_frame() {
            Some(Frame::Line(line)) => line,
            other => panic!("one pushed line frames as one line, got {other:?}"),
        };
        self.tracer.exit(t);
        let line = line.trim().trim_end_matches(';');

        let body = if let Some(rest) = line.strip_prefix(".op ") {
            let args: Vec<&str> = rest.split_whitespace().collect();
            let t = self.tracer.enter("query.parse");
            let op = command::parse_op(&self.engine.db(), &args, self.session.spec())
                .map_err(|e| solap_eventdb::Error::InvalidOperation(e.message()))?;
            self.tracer.exit(t);
            let t = self.tracer.enter("core.execute");
            let out = self.session.apply(op.clone())?;
            self.count_profile(&out.profile);
            self.tracer.exit(t);
            let t = self.tracer.enter("core.tabulate");
            let table = out.cuboid.tabulate(&self.engine.db(), 10, true);
            self.tracer.exit(t);
            format!(
                "{}: {} cells via {} in {:?} ({} sequences scanned)\n{table}",
                op.name(),
                out.cuboid.len(),
                out.stats.strategy,
                out.stats.elapsed,
                out.stats.sequences_scanned
            )
        } else if line.starts_with("STORE") {
            let t = self.tracer.enter("query.parse");
            let parsed = solap_query::parse_store(&self.engine.db(), line)?;
            self.tracer.exit(t);
            let start = std::time::Instant::now();
            let t = self.tracer.enter("core.store");
            let report = self
                .engine
                .append_events_configured(&parsed.rows, self.session.config())?;
            self.tracer.exit(t);
            self.unlogged = Some(parsed.rows);
            format!(
                "stored {} events in {:?} ({}, version {}) — {} group sets extended, \
                 {} indices extended, {} rebuild fallbacks\n",
                report.appended,
                start.elapsed(),
                if report.durable {
                    "durable"
                } else {
                    "in-memory"
                },
                report.version,
                report.groups_extended,
                report.indexes_extended,
                report.rebuild_fallbacks,
            )
        } else {
            let t = self.tracer.enter("query.parse");
            let parsed = solap_query::parse_statement(&self.engine.db(), line)?;
            self.tracer.exit(t);
            let t = self.tracer.enter("core.plan");
            let plan = self.session.explain(&parsed.spec)?;
            self.tracer.exit(t);
            std::hint::black_box(plan);
            let t = self.tracer.enter("core.execute");
            let out = self.session.query(parsed.spec)?;
            self.count_profile(&out.profile);
            self.tracer.exit(t);
            let t = self.tracer.enter("core.tabulate");
            let table = out.cuboid.tabulate(&self.engine.db(), 15, true);
            self.tracer.exit(t);
            format!(
                "{} cells via {} in {:?} ({} sequences scanned, {} KiB of indices built)\n{table}",
                out.cuboid.len(),
                out.stats.strategy,
                out.stats.elapsed,
                out.stats.sequences_scanned,
                out.stats.index_bytes_built / 1024
            )
        };

        let t = self.tracer.enter("server.serialize");
        let wire = Response::ok(body.as_str()).wire_line();
        self.tracer.exit(t);
        std::hint::black_box(wire);
        Ok(body)
    }
}

impl Exec for Replica {
    fn exec(&mut self, stmt: &str) -> Result<String, String> {
        // A session setting, not a statement of the traced path.
        if let Some(strategy) = stmt.strip_prefix(".strategy ") {
            self.session.config_mut().strategy = match strategy {
                "cb" => Strategy::CounterBased,
                "ii" => Strategy::InvertedIndex,
                other => return Err(format!("usage: .strategy cb|ii (got {other})")),
            };
            return Ok(String::new());
        }
        let root = self.tracer.begin_stmt();
        let result = self
            .statement(stmt)
            .map_err(|e| format!("{}: {e}", e.code()));
        // A failed statement leaves inner spans open; a failure ends the
        // pass, so the trace is not used then.
        if result.is_ok() {
            self.tracer.exit(root);
        }
        // After the statement, as a span of its own with no parent: the
        // same batch into the scratch log, so `core.store` minus this is
        // what applying the batch and carrying caches forward cost.
        if let (Some(rows), Some(log)) = (self.unlogged.take(), self.scratch_log.as_mut()) {
            let t = self.tracer.enter("eventdb.wal_append");
            log.append_batch(&rows).map_err(|e| e.to_string())?;
            self.tracer.exit(t);
        }
        result
    }
}
