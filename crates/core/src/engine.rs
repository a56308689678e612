//! The S-OLAP Engine (Figure 6): wires together the sequence cache, the
//! index store, the cuboid repository and the two construction strategies.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use solap_eventdb::metrics::{self, Counter, QueryProfile, QueryRecorder};
use solap_eventdb::seqcache::SequenceCache;
use solap_eventdb::{
    fail_point, panic_message, CancelToken, Error, EventDb, EventLog, FsyncPolicy, Pred,
    QueryGovernor, RecoveryReport, Result, SequenceGroups, Value,
};
use solap_index::{IndexKey, IndexStore};

use crate::cb::{counter_based_governed, counter_based_parallel_governed, CounterMode};
use crate::cuboid::SCuboid;
use crate::iceberg::apply_min_support;
use crate::ii::IiExecutor;
use crate::ops::{self, Op};
use crate::plan::{
    self, CostModel, PlanAlternative, PlanChoice, PlanInputs, PlanReport, Planner, QueryPlan,
};
use crate::repo::CuboidRepo;
use crate::spec::SCuboidSpec;
use crate::stats::{ExecStats, ScanMeter};

/// Which S-cuboid construction approach to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The counter-based approach of §4.2.1 (always rescans).
    CounterBased,
    /// The inverted-index approach of §4.2.2.
    InvertedIndex,
    /// The cost-based planner: CB, II or ancestor reuse, whichever the
    /// engine's calibrated [`CostModel`] predicts cheapest.
    #[default]
    Auto,
}

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Construction strategy.
    pub strategy: Strategy,
    /// Whether the cuboid repository answers repeated queries.
    pub use_cuboid_repo: bool,
    /// Worker threads for parallel construction — both counter scans and
    /// inverted-index base builds (1 = sequential).
    pub threads: usize,
    /// Per-query deadline; a query past it aborts with
    /// [`Error::ResourceExhausted`] within one governor check interval.
    pub timeout: Option<Duration>,
    /// Per-query cuboid-cell budget (a proxy for result memory); the first
    /// cell past the budget aborts the query.
    pub budget_cells: Option<u64>,
    /// Cooperative cancellation: call [`CancelToken::cancel`] from any
    /// thread to abort in-flight and future queries until
    /// [`CancelToken::reset`].
    pub cancel: CancelToken,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            strategy: Strategy::Auto,
            use_cuboid_repo: true,
            threads: threads_from_env(),
            timeout: timeout_from_env(),
            budget_cells: budget_from_env(),
            cancel: CancelToken::new(),
        }
    }
}

/// Default worker count: the `SOLAP_THREADS` environment variable when set
/// (CI runs the whole suite at 1 and 8), otherwise 1.
fn threads_from_env() -> usize {
    std::env::var("SOLAP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |n| n.max(1))
}

/// Default deadline: the `SOLAP_TIMEOUT_MS` environment variable when set
/// to a positive integer, otherwise no deadline.
fn timeout_from_env() -> Option<Duration> {
    std::env::var("SOLAP_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}

/// Default cell budget: the `SOLAP_BUDGET_CELLS` environment variable when
/// set to a positive integer, otherwise no budget.
fn budget_from_env() -> Option<u64> {
    std::env::var("SOLAP_BUDGET_CELLS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&c| c > 0)
}

/// The result of one query: the cuboid plus execution statistics and the
/// per-query observability profile.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The computed (possibly cached) S-cuboid.
    pub cuboid: Arc<SCuboid>,
    /// What it cost.
    pub stats: ExecStats,
    /// Per-stage counters and timings.
    pub profile: QueryProfile,
}

/// Configures and constructs an [`Engine`] — the one supported way to
/// build an engine with non-default settings.
///
/// ```ignore
/// let engine = Engine::builder(db)
///     .strategy(Strategy::InvertedIndex)
///     .threads(8)
///     .timeout(Duration::from_secs(5))
///     .budget_cells(1_000_000)
///     .cuboid_repo_capacity(128, 256 << 20)
///     .build();
/// ```
///
/// # Mutating a built engine
///
/// Two escape hatches remain on [`Engine`], and both interact with the
/// engine's caches through the **database version**:
///
/// * [`Engine::config_mut`] adjusts per-query execution knobs (strategy,
///   threads, limits) between queries. It never touches cached data:
///   sequence groups, stored indices and repository cuboids are keyed by
///   `(fingerprint, db.version())`, not by configuration, so entries
///   built under one strategy are still correct — and still served —
///   under another. Concurrent shared use should prefer per-session
///   overrides ([`Engine::execute_configured`]) over mutating the
///   engine-wide defaults.
/// * [`Engine::db_mut`] mutates the event database. Every mutation bumps
///   [`EventDb::version`], which transparently invalidates all three
///   caches at their next lookup (stale entries age out of the LRUs);
///   no explicit cache flush exists or is needed.
///
/// Cache capacities, by contrast, are fixed at construction time — they
/// size shared structures, so they are builder-only and have no
/// `config_mut` equivalent.
#[derive(Debug)]
pub struct EngineBuilder {
    db: EventDb,
    config: EngineConfig,
    cuboid_repo: (usize, usize),
    model_path: Option<PathBuf>,
    log: Option<EventLog>,
    recovery: Option<RecoveryReport>,
}

impl EngineBuilder {
    fn new(db: EventDb) -> Self {
        EngineBuilder {
            db,
            config: EngineConfig::default(),
            cuboid_repo: (128, 256 << 20),
            model_path: None,
            log: None,
            recovery: None,
        }
    }

    /// Durable ingestion: opens (or creates) the segmented event log in
    /// `dir`, replays every durable event into the database, and arms the
    /// engine's store path ([`Engine::append_events`]) to write-ahead-log
    /// each batch before acknowledging it, fsyncing per `policy`
    /// ([`FsyncPolicy::Batch`] is the default).
    ///
    /// What recovery did (replayed events, adopted segments, truncated
    /// torn tail) is reported by [`Engine::recovery_report`].
    pub fn durable_with_policy(
        mut self,
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<Self> {
        self.model_path = Some(dir.as_ref().join("cost_model.tsv"));
        let (log, rows, report) = EventLog::open(dir.as_ref(), policy)?;
        self.adopt_log(log, rows, report)
    }

    /// [`EngineBuilder::durable_with_policy`] with an explicit WAL rotation
    /// threshold (tests and benches use small segments to exercise
    /// rotation through the engine path).
    pub fn durable_with_options(
        mut self,
        dir: impl AsRef<Path>,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<Self> {
        self.model_path = Some(dir.as_ref().join("cost_model.tsv"));
        let (log, rows, report) =
            EventLog::open_with_segment_bytes(dir.as_ref(), policy, segment_bytes)?;
        self.adopt_log(log, rows, report)
    }

    fn adopt_log(
        mut self,
        log: EventLog,
        rows: Vec<Vec<Value>>,
        report: RecoveryReport,
    ) -> Result<Self> {
        for row in &rows {
            self.db.push_row(row)?;
        }
        self.log = Some(log);
        self.recovery = Some(report);
        Ok(self)
    }

    /// Construction strategy (CB, II or auto).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Worker threads for parallel construction (values below 1 clamp
    /// to 1 = sequential).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Per-query deadline (`None` = no deadline).
    pub fn timeout(mut self, timeout: impl Into<Option<Duration>>) -> Self {
        self.config.timeout = timeout.into();
        self
    }

    /// Per-query cuboid-cell budget (`None` = unbounded).
    pub fn budget_cells(mut self, cells: impl Into<Option<u64>>) -> Self {
        self.config.budget_cells = cells.into();
        self
    }

    /// The engine-wide cooperative cancellation token.
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.config.cancel = cancel;
        self
    }

    /// Whether the cuboid repository answers repeated queries.
    pub fn use_cuboid_repo(mut self, on: bool) -> Self {
        self.config.use_cuboid_repo = on;
        self
    }

    /// Sizes the cuboid repository (`entries` entries / `max_bytes`
    /// payload bytes).
    pub fn cuboid_repo_capacity(mut self, entries: usize, max_bytes: usize) -> Self {
        self.cuboid_repo = (entries, max_bytes);
        self
    }

    /// Replaces the whole configuration at once (the builder's setters
    /// then refine it). Bench matrices that already hold an
    /// [`EngineConfig`] use this instead of poking fields.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Constructs the engine.
    pub fn build(self) -> Engine {
        // Arm any SOLAP_FAILPOINTS-configured sites: the fail_point!
        // fast path never touches the registry, so the env seeding must
        // be forced by a process entry point — engine construction is
        // the one every surface goes through.
        solap_eventdb::failpoint::init();
        parking_lot::witness_init();
        // Durable engines resume their calibrated unit costs; everything
        // else starts at the seeds.
        let cost_model = self
            .model_path
            .as_deref()
            .map(CostModel::load_from)
            .unwrap_or_default();
        Engine {
            db: RwLock::ranked(parking_lot::rank::ENGINE_DB, "engine.db", self.db),
            log: Mutex::ranked(parking_lot::rank::ENGINE_LOG, "engine.log", self.log),
            recovery: self.recovery,
            config: self.config,
            seq_cache: SequenceCache::new(64, 256 << 20),
            index_store: IndexStore::new(256, 512 << 20),
            cuboid_repo: CuboidRepo::new(self.cuboid_repo.0, self.cuboid_repo.1),
            live: Mutex::ranked(parking_lot::rank::ENGINE_LIVE, "engine.live", Vec::new()),
            cost_model,
            model_path: self.model_path,
        }
    }
}

/// A shared read guard over the engine's event database. Derefs to
/// [`EventDb`]; queries hold one for their whole execution, appends take
/// the write side briefly.
pub type DbGuard<'a> = RwLockReadGuard<'a, EventDb>;

/// The S-OLAP engine.
pub struct Engine {
    pub(crate) db: RwLock<EventDb>,
    /// The durable event log, when built with [`EngineBuilder::durable_with_policy`].
    /// Doubles as the ingest lock: appends hold it end to end, so WAL
    /// order always equals database order.
    pub(crate) log: Mutex<Option<EventLog>>,
    recovery: Option<RecoveryReport>,
    pub(crate) config: EngineConfig,
    pub(crate) seq_cache: SequenceCache,
    pub(crate) index_store: IndexStore,
    pub(crate) cuboid_repo: CuboidRepo,
    /// Recently executed specs (MRU last), the candidates for incremental
    /// cache maintenance when events are appended (`core::ingest`).
    pub(crate) live: Mutex<Vec<SCuboidSpec>>,
    /// Calibrated unit costs driving [`Strategy::Auto`] planning.
    cost_model: CostModel,
    /// Where [`Engine::sync`] persists the cost model (durable engines).
    model_path: Option<PathBuf>,
}

impl Engine {
    /// Creates an engine with default configuration.
    pub fn new(db: EventDb) -> Self {
        Engine::builder(db).build()
    }

    /// Starts configuring an engine — see [`EngineBuilder`].
    pub fn builder(db: EventDb) -> EngineBuilder {
        EngineBuilder::new(db)
    }

    /// Creates an engine with explicit configuration and default cache
    /// capacities (equivalent to `Engine::builder(db).config(config).build()`).
    pub fn with_config(db: EventDb, config: EngineConfig) -> Self {
        Engine::builder(db).config(config).build()
    }

    /// The event database (shared read guard; appends wait until every
    /// outstanding guard drops).
    pub fn db(&self) -> DbGuard<'_> {
        self.db.read()
    }

    /// Mutable access for loading and schema/hierarchy work. Mutations
    /// bump the database version, which transparently invalidates the
    /// sequence cache, index store keys and cuboid repository entries.
    ///
    /// Requires exclusive engine access and bypasses the write-ahead log —
    /// shared serving uses [`Engine::append_events`] instead, which works
    /// through `&self` and (on durable engines) commits to the WAL first.
    pub fn db_mut(&mut self) -> &mut EventDb {
        self.db.get_mut()
    }

    /// What recovery did when the engine was built with
    /// [`EngineBuilder::durable_with_policy`] (`None` on non-durable engines).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Whether appends are write-ahead logged before acknowledgement.
    pub fn is_durable(&self) -> bool {
        self.log.lock().is_some()
    }

    /// Forces an fsync of the active WAL regardless of policy (no-op on
    /// non-durable engines). Orderly-shutdown hook for [`FsyncPolicy::Off`].
    /// Also persists the calibrated cost model (best-effort — planning
    /// falls back to the seed constants on the next open if it is lost).
    pub fn sync(&self) -> Result<()> {
        if let Some(path) = &self.model_path {
            let _ = self.cost_model.save_to(path);
        }
        match self.log.lock().as_mut() {
            Some(log) => log.sync(),
            None => Ok(()),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable configuration (e.g. switching strategy between queries).
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// The index store (exposed for inspection and experiments).
    pub fn index_store(&self) -> &IndexStore {
        &self.index_store
    }

    /// The cuboid repository (exposed for inspection).
    pub fn cuboid_repo(&self) -> &CuboidRepo {
        &self.cuboid_repo
    }

    /// The sequence cache (exposed for inspection).
    pub fn sequence_cache(&self) -> &SequenceCache {
        &self.seq_cache
    }

    /// The calibrated cost model driving [`Strategy::Auto`] planning.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// The sequence groups for a spec (cached).
    pub fn sequence_groups(&self, spec: &SCuboidSpec) -> Result<Arc<SequenceGroups>> {
        let db = self.db.read();
        self.seq_cache.get_or_build(&db, &spec.seq)
    }

    /// Whether the cost-based planner decides this configuration's
    /// queries (it does unless a strategy is fixed).
    fn planner_active(config: &EngineConfig) -> bool {
        config.strategy == Strategy::Auto
    }

    /// Whether a base inverted index usable for `spec` is already stored —
    /// the full template signature or any cached prefix of length ≥ 2, at
    /// `slice 0` of the first sequence group. Non-touching probes only.
    fn base_index_cached(&self, db: &EventDb, spec: &SCuboidSpec) -> bool {
        let (gfp, version) = (spec.seq.fingerprint(), db.version());
        let sig = spec.template.signature();
        (2..=spec.template.m()).rev().any(|k| {
            self.index_store
                .contains(&IndexKey::unsliced(gfp, version, 0, sig.prefix(k)))
        })
    }

    /// Assembles [`PlanInputs`] from the engine's caches and runs the
    /// planner. Every cache probe is non-touching (`peek`/`contains`), so
    /// EXPLAIN shares this path without perturbing recency or hit rates;
    /// `execute` re-fetches the chosen ancestor through [`CuboidRepo::get`]
    /// so actual reuse does count as repository demand.
    ///
    /// Reuse candidates come from the recently-executed spec list (MRU
    /// first) plus, for lattice-coarsening operations, the pre-operation
    /// spec — the ideal one-step-finer roll-up source.
    fn plan_query(
        &self,
        db: &EventDb,
        spec: &SCuboidSpec,
        sequences: Option<u64>,
        hint: Option<(&SCuboidSpec, &Op)>,
        config: &EngineConfig,
    ) -> (usize, Vec<QueryPlan>) {
        let mut candidates: Vec<SCuboidSpec> = Vec::new();
        if let Some((prev, op)) = hint {
            if op.coarsens() {
                candidates.push((*prev).clone());
            }
        }
        {
            let live = self.live.lock();
            candidates.extend(live.iter().rev().cloned());
        }
        let version = db.version();
        let ancestors = if Engine::planner_active(config) && config.use_cuboid_repo {
            Planner::reuse_candidates(spec, candidates.into_iter(), |c| {
                self.cuboid_repo
                    .peek(c.fingerprint(), version)
                    .map(|cuboid| cuboid.len())
            })
        } else {
            Vec::new()
        };
        let inputs = PlanInputs {
            spec,
            events: db.len() as u64,
            sequences,
            base_index_cached: self.base_index_cached(db, spec),
            ancestors,
        };
        Planner::new(&self.cost_model).plan(&inputs)
    }

    /// Feeds one executed query's actuals back into the cost model —
    /// the EWMA calibration loop. Only planner-decided executions
    /// calibrate: fixed-strategy runs measure a strategy the model was
    /// not allowed to avoid, which would skew it.
    fn observe_execution(
        &self,
        spec: &SCuboidSpec,
        stats: &ExecStats,
        events: u64,
        sequences: u64,
    ) {
        let elapsed_ns = stats.elapsed.as_nanos() as u64;
        match stats.strategy {
            "CB" => self.cost_model.observe_cb(elapsed_ns, events),
            "II" => {
                // Attribute the elapsed time to whichever phase dominated.
                // `indices_built` alone cannot discriminate: the ladder
                // builds (and caches) a derived index per rung, so it is
                // non-zero for join-dominated queries too. A *base* build
                // is the one that scans (nearly) every sequence.
                let base_build_dominated = stats.indices_built > 0
                    && stats.sequences_scanned.saturating_mul(2) >= sequences;
                if base_build_dominated {
                    self.cost_model.observe_ii_build(elapsed_ns, events);
                } else {
                    self.cost_model
                        .observe_ii_join(elapsed_ns, CostModel::predicted_joins(spec, sequences));
                }
            }
            _ => {}
        }
    }

    /// Executes an S-cuboid query.
    ///
    /// The query runs under the configured [`QueryGovernor`] limits and
    /// inside a panic-isolation boundary: a panic anywhere in the query
    /// path becomes [`Error::Internal`] and the engine stays usable (the
    /// shared caches only ever insert fully-built entries).
    pub fn execute(&self, spec: &SCuboidSpec) -> Result<QueryOutput> {
        self.isolated(|| self.execute_with(spec, None, &self.config))
    }

    /// [`Engine::execute`] under a caller-supplied configuration instead
    /// of the engine-wide defaults.
    ///
    /// This is the embedding API for concurrent serving: the engine and
    /// its caches are shared (`&self`), while strategy, worker count,
    /// limits and — crucially — the [`CancelToken`] are per caller, so a
    /// session can cancel its own in-flight query (e.g. on client
    /// disconnect) without disturbing anyone else's. Cache capacities are
    /// engine-wide and unaffected; cached entries are configuration-
    /// independent (see [`EngineBuilder`] docs).
    pub fn execute_configured(
        &self,
        spec: &SCuboidSpec,
        config: &EngineConfig,
    ) -> Result<QueryOutput> {
        self.isolated(|| self.execute_with(spec, None, config))
    }

    /// [`Engine::execute_op`] under a caller-supplied configuration — see
    /// [`Engine::execute_configured`].
    pub fn execute_op_configured(
        &self,
        prev: &SCuboidSpec,
        op: &Op,
        config: &EngineConfig,
    ) -> Result<(SCuboidSpec, QueryOutput)> {
        self.isolated(|| {
            let new_spec = ops::apply(&self.db.read(), prev, op)?;
            let out = self.execute_with(&new_spec, Some((prev, op)), config)?;
            Ok((new_spec, out))
        })
    }

    /// Applies an operation to `prev` and executes the transformed query,
    /// exploiting the operation-specific inverted-index fast paths
    /// (§4.2.2): P-ROLL-UP merges lists, P-DRILL-DOWN refines them, and
    /// PREPEND joins on the left. Returns the new spec and its result.
    ///
    /// Runs under the same governance and panic isolation as
    /// [`Engine::execute`].
    pub fn execute_op(&self, prev: &SCuboidSpec, op: &Op) -> Result<(SCuboidSpec, QueryOutput)> {
        self.isolated(|| {
            let new_spec = ops::apply(&self.db.read(), prev, op)?;
            let out = self.execute_with(&new_spec, Some((prev, op)), &self.config)?;
            Ok((new_spec, out))
        })
    }

    /// Converts a panic escaping `f` into [`Error::Internal`]. The caches
    /// the closure touches insert on success only and their locks recover
    /// from poisoning, so unwinding cannot leave partial state behind.
    pub(crate) fn isolated<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(p) => Err(Error::Internal(format!(
                "query panicked: {}",
                panic_message(p.as_ref())
            ))),
        }
    }

    /// A fresh governor for one query, from the given configuration.
    pub(crate) fn governor(config: &EngineConfig) -> QueryGovernor {
        QueryGovernor::new(
            config.timeout,
            config.budget_cells,
            Some(config.cancel.clone()),
        )
    }

    /// Builds the execution plan for `spec` without running it — the
    /// query-language `EXPLAIN` surface. Returns a structured
    /// [`PlanReport`] (the dispatch layer owns text/JSON rendering). The
    /// report is deterministic for a given engine state, which the golden
    /// tests pin, and building it never executes, populates caches or
    /// touches recency — only non-touching probes.
    pub fn explain(&self, spec: &SCuboidSpec) -> Result<PlanReport> {
        self.explain_configured(spec, &self.config)
    }

    /// [`Engine::explain`] under a caller-supplied configuration — see
    /// [`Engine::execute_configured`].
    pub fn explain_configured(
        &self,
        spec: &SCuboidSpec,
        config: &EngineConfig,
    ) -> Result<PlanReport> {
        let db = self.db.read();
        spec.validate(&db)?;
        let planner_on = Engine::planner_active(config);
        // Never build sequence groups for EXPLAIN — use them only if a
        // prior execution already cached them.
        let sequences = self
            .seq_cache
            .cached(&spec.seq, db.version())
            .map(|g| g.total_sequences as u64);
        let (cost_idx, plans) = self.plan_query(&db, spec, sequences, None, config);
        // A fixed strategy still has every alternative enumerated and
        // costed for visibility, but the choice is forced: CB is plan 0,
        // II plan 1.
        let chosen_idx = match config.strategy {
            Strategy::Auto => cost_idx,
            Strategy::CounterBased => 0,
            Strategy::InvertedIndex => 1,
        };
        let strategy = plans
            .get(chosen_idx)
            .map(|p| p.label().to_string())
            .unwrap_or_else(|| "II".to_string());
        let (mode, why) = if planner_on {
            (
                "cost",
                format!(
                    "cost model: {strategy} predicted cheapest of {} alternatives",
                    plans.len()
                ),
            )
        } else {
            ("configured", "configured".to_string())
        };
        let alternatives = plans
            .iter()
            .enumerate()
            .map(|(i, p)| PlanAlternative {
                label: p.label().to_string(),
                detail: p.why.clone(),
                cost: p.cost,
                chosen: i == chosen_idx,
            })
            .collect();
        Ok(PlanReport {
            query: spec.render(&db),
            mode,
            strategy,
            why,
            threads: config.threads,
            events: db.len() as u64,
            filter: if spec.seq.filter == Pred::True {
                "TRUE".to_string()
            } else {
                spec.seq.filter.render(&db)
            },
            sort_keys: spec.seq.sequence_by.len(),
            group_attrs: spec.seq.group_by.len(),
            template_kind: format!("{:?}", spec.template.kind),
            m: spec.template.m(),
            min_support: spec.min_support,
            use_cuboid_repo: config.use_cuboid_repo,
            alternatives,
        })
    }

    /// Governed + instrumented query execution: wraps [`Engine::execute_inner`]
    /// with process-wide metrics accounting.
    fn execute_with(
        &self,
        spec: &SCuboidSpec,
        hint: Option<(&SCuboidSpec, &Op)>,
        config: &EngineConfig,
    ) -> Result<QueryOutput> {
        let result = self.execute_inner(spec, hint, config);
        match &result {
            Ok(out) => metrics::global().record(&out.profile),
            Err(_) => metrics::global().record_failure(),
        }
        result
    }

    fn execute_inner(
        &self,
        spec: &SCuboidSpec,
        hint: Option<(&SCuboidSpec, &Op)>,
        config: &EngineConfig,
    ) -> Result<QueryOutput> {
        // One read guard for the whole query: the snapshot it sees is the
        // database as of query start; appends wait in the brief write-lock
        // window until the guard drops.
        let db = self.db.read();
        spec.validate(&db)?;
        self.remember_live_spec(spec);
        let start = Instant::now();
        let fp = spec.fingerprint();
        if config.use_cuboid_repo {
            if let Some(cached) = self.cuboid_repo.get(fp, db.version()) {
                let rec = QueryRecorder::default();
                rec.add(Counter::CuboidCacheHits, 1);
                rec.add(Counter::CellsMaterialized, cached.len() as u64);
                let mut profile = QueryProfile::from_recorder(&rec);
                profile.strategy = "cache";
                profile.elapsed_nanos = start.elapsed().as_nanos() as u64;
                return Ok(QueryOutput {
                    cuboid: cached,
                    stats: ExecStats {
                        strategy: "cache",
                        cuboid_cache_hit: true,
                        elapsed: start.elapsed(),
                        ..Default::default()
                    },
                    profile,
                });
            }
        }
        let rec = Arc::new(QueryRecorder::default());
        let gov = Engine::governor(config).with_recorder(Arc::clone(&rec));
        let groups = self.seq_cache.get_or_build_governed(&db, &spec.seq, &gov)?;
        let mut meter = ScanMeter::new();
        let mut stats = ExecStats::default();
        // Cost-based planning: enumerate and cost the alternatives, then
        // execute the predicted-cheapest one. A fixed strategy runs as
        // configured and nothing is costed.
        let planner_on = Engine::planner_active(config);
        let planned = planner_on
            .then(|| self.plan_query(&db, spec, Some(groups.total_sequences as u64), hint, config));
        if let Some((_, plans)) = &planned {
            rec.add(Counter::PlanAlternativesConsidered, plans.len() as u64);
        }
        let choice = planned
            .as_ref()
            .and_then(|(idx, plans)| plans.get(*idx))
            .map(|p| p.choice.clone())
            .unwrap_or(match config.strategy {
                Strategy::CounterBased => PlanChoice::CounterBased,
                _ => PlanChoice::InvertedIndex,
            });
        // Ancestor reuse executes first: on any soundness refusal (source
        // evicted between costing and now, mapping failure) fall back to the
        // cheaper of the two always-available scan strategies. Governor
        // exhaustion and cancellation propagate — they are not refusals.
        let mut reuse_cells = 0u64;
        let mut rolled: Option<SCuboid> = None;
        if let PlanChoice::AncestorRollUp { source } = &choice {
            if let Some(src) = self.cuboid_repo.get(source.fingerprint(), db.version()) {
                match plan::roll_up_cuboid(&db, source, &src, spec, &gov) {
                    Ok((cuboid, merged)) => {
                        stats.strategy = "reuse";
                        reuse_cells = merged;
                        rec.add(Counter::PlanAncestorReuses, 1);
                        rec.add(Counter::PlanCellsMerged, merged);
                        rolled = Some(cuboid);
                    }
                    Err(e) if matches!(e.code(), "resource_exhausted" | "cancelled") => {
                        return Err(e);
                    }
                    Err(_) => {}
                }
            }
        }
        let use_cb = match (&rolled, &choice) {
            (Some(_), _) => false,
            (None, PlanChoice::CounterBased) => true,
            (None, PlanChoice::InvertedIndex) => false,
            (None, PlanChoice::AncestorRollUp { .. }) => {
                // Fallback after a reuse refusal: cheaper of CB (plan 0)
                // and II (plan 1) under the same cost model.
                planned
                    .as_ref()
                    .map(|(_, plans)| match (plans.first(), plans.get(1)) {
                        (Some(cb), Some(ii)) => cb.cost.total_nanos <= ii.cost.total_nanos,
                        _ => false,
                    })
                    .unwrap_or(false)
            }
        };
        let mut cuboid = if let Some(cuboid) = rolled {
            cuboid
        } else if use_cb {
            stats.strategy = "CB";
            if config.threads > 1 {
                counter_based_parallel_governed(
                    &db,
                    &groups,
                    spec,
                    config.threads,
                    &mut meter,
                    &gov,
                )?
            } else {
                counter_based_governed(&db, &groups, spec, CounterMode::Auto, &mut meter, &gov)?
            }
        } else {
            stats.strategy = "II";
            let ex = IiExecutor::new(&db, &groups, spec.seq.fingerprint(), &self.index_store)
                .with_threads(config.threads)
                .with_governor(&gov);
            if let Some((prev, op)) = hint {
                // Preparation only touches the index store; on any
                // refusal the generic QUERYINDICES path takes over.
                match op {
                    Op::PRollUp { .. } => {
                        ex.prepare_p_roll_up(&prev.template, &spec.template, &mut stats)?;
                    }
                    Op::PDrillDown { .. } => {
                        ex.prepare_p_drill_down(&prev.template, spec, &mut meter, &mut stats)?;
                    }
                    Op::Prepend { .. } => {
                        ex.prepare_prepend(&prev.template, &spec.template, &mut meter, &mut stats)?;
                    }
                    _ => {}
                }
            }
            ex.execute(spec, &mut meter, &mut stats)?
        };
        if let Some(ms) = spec.min_support {
            apply_min_support(&mut cuboid, ms);
        }
        stats.sequences_scanned = meter.count();
        stats.elapsed = start.elapsed();
        if planner_on {
            // Calibrate the cost model from what actually ran — only for
            // planner-decided executions, so fixed-strategy runs don't teach
            // the model about a strategy it was not allowed to avoid.
            if stats.strategy == "reuse" {
                self.cost_model
                    .observe_reuse(stats.elapsed.as_nanos() as u64, reuse_cells);
            } else {
                self.observe_execution(
                    spec,
                    &stats,
                    db.len() as u64,
                    groups.total_sequences as u64,
                );
            }
        }
        rec.add(Counter::SequencesScanned, meter.count());
        rec.add(Counter::CellsMaterialized, cuboid.len() as u64);
        rec.add(Counter::IndicesBuilt, stats.indices_built);
        rec.add(Counter::IndexBytesBuilt, stats.index_bytes_built as u64);
        rec.add(Counter::IndexJoins, stats.index_joins);
        rec.add(Counter::GovernorTicks, gov.events_ticked());
        rec.add(Counter::CellsCharged, gov.cells_consumed());
        let mut profile = QueryProfile::from_recorder(&rec);
        profile.strategy = stats.strategy;
        profile.elapsed_nanos = stats.elapsed.as_nanos() as u64;
        let cuboid = Arc::new(cuboid);
        if config.use_cuboid_repo {
            fail_point!("engine.insert");
            self.cuboid_repo.insert(
                fp,
                db.version(),
                Arc::clone(&cuboid),
                stats.elapsed.as_nanos() as u64,
            );
        }
        Ok(QueryOutput {
            cuboid,
            stats,
            profile,
        })
    }

    /// Precomputes the generic size-`m` inverted index at `(attr, level)`
    /// for every sequence group of `spec` — the offline precomputation the
    /// experiments of §5.2 perform before timing queries. Returns the bytes
    /// built.
    pub fn precompute_index(
        &self,
        spec: &SCuboidSpec,
        attr: solap_eventdb::AttrId,
        level: usize,
        m: usize,
    ) -> Result<usize> {
        let db = self.db.read();
        let groups = self.seq_cache.get_or_build(&db, &spec.seq)?;
        let ex = IiExecutor::new(&db, &groups, spec.seq.fingerprint(), &self.index_store)
            .with_threads(self.config.threads);
        ex.precompute_generic(attr, level, m, spec.template.kind)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use solap_eventdb::{AttrLevel, CmpOp, ColumnType, EventDbBuilder, SortKey, Value};
    use solap_pattern::{CellRestriction, MatchPred, PatternKind, PatternTemplate};

    pub(crate) fn fig8_engine(config: EngineConfig) -> Engine {
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
        db.set_base_level_name(2, "station");
        db.attach_str_level(2, "district", |s| {
            if s == "Pentagon" || s == "Clarendon" {
                "D10".into()
            } else {
                "D20".into()
            }
        })
        .unwrap();
        Engine::with_config(db, config)
    }

    pub(crate) fn q3(db: &EventDb) -> SCuboidSpec {
        let t = PatternTemplate::new(
            PatternKind::Substring,
            &["X", "Y"],
            &[("X", 2, 0), ("Y", 2, 0)],
        )
        .unwrap();
        let action = db.attr("action").unwrap();
        SCuboidSpec::new(
            t,
            vec![AttrLevel::new(0, 0)],
            vec![SortKey {
                attr: 1,
                ascending: true,
            }],
        )
        .with_mpred(
            MatchPred::cmp(0, action, CmpOp::Eq, "in").and(MatchPred::cmp(
                1,
                action,
                CmpOp::Eq,
                "out",
            )),
        )
    }

    #[test]
    fn strategies_agree() {
        let cb = fig8_engine(EngineConfig {
            strategy: Strategy::CounterBased,
            ..Default::default()
        });
        let ii = fig8_engine(EngineConfig {
            strategy: Strategy::InvertedIndex,
            ..Default::default()
        });
        // Bind the specs first: the `db()` guard must drop before
        // `execute` takes its own read of the same lock.
        let qa = q3(&cb.db());
        let qb = q3(&ii.db());
        let a = cb.execute(&qa).unwrap();
        let b = ii.execute(&qb).unwrap();
        assert_eq!(a.cuboid.cells(), b.cuboid.cells());
        assert_eq!(a.stats.strategy, "CB");
        assert_eq!(b.stats.strategy, "II");
        assert_eq!(a.stats.sequences_scanned, 4);
    }

    #[test]
    fn cuboid_repo_answers_repeats() {
        let e = fig8_engine(EngineConfig::default());
        let spec = q3(&e.db());
        let first = e.execute(&spec).unwrap();
        assert!(!first.stats.cuboid_cache_hit);
        let second = e.execute(&spec).unwrap();
        assert!(second.stats.cuboid_cache_hit);
        assert_eq!(second.stats.sequences_scanned, 0);
        assert!(Arc::ptr_eq(&first.cuboid, &second.cuboid));
    }

    #[test]
    fn append_then_de_tail_hits_cache() {
        let e = fig8_engine(EngineConfig::default());
        let qa = q3(&e.db());
        e.execute(&qa).unwrap();
        let (qb, _) = e
            .execute_op(
                &qa,
                &Op::Append {
                    symbol: "Y".into(),
                    attr: 2,
                    level: 0,
                },
            )
            .unwrap();
        let (qc, out) = e.execute_op(&qb, &Op::DeTail).unwrap();
        assert_eq!(qc.fingerprint(), qa.fingerprint());
        assert!(
            out.stats.cuboid_cache_hit,
            "DE-TAIL restores Qa from the repository"
        );
    }

    #[test]
    fn execute_op_p_roll_up_uses_merge() {
        let e = fig8_engine(EngineConfig::default());
        let mut qa = q3(&e.db());
        qa.mpred = MatchPred::True; // merge + pure count ⇒ zero scans
        e.execute(&qa).unwrap();
        let (_, out) = e.execute_op(&qa, &Op::PRollUp { dim: "Y".into() }).unwrap();
        assert_eq!(out.stats.sequences_scanned, 0);
        // Cross-check against a CB engine at the coarse level.
        let cb = fig8_engine(EngineConfig {
            strategy: Strategy::CounterBased,
            ..Default::default()
        });
        let coarse = ops::apply(&cb.db(), &qa, &Op::PRollUp { dim: "Y".into() }).unwrap();
        let expect = cb.execute(&coarse).unwrap();
        assert_eq!(out.cuboid.cells(), expect.cuboid.cells());
    }

    #[test]
    fn auto_uses_cb_for_long_subsequences() {
        let e = fig8_engine(EngineConfig::default());
        let mut spec = q3(&e.db());
        spec.template = PatternTemplate::new(
            PatternKind::Subsequence,
            &["A", "B", "C", "D"],
            &[("A", 2, 0), ("B", 2, 0), ("C", 2, 0), ("D", 2, 0)],
        )
        .unwrap();
        spec.mpred = MatchPred::True;
        let out = e.execute(&spec).unwrap();
        assert_eq!(out.stats.strategy, "CB");
    }

    #[test]
    fn min_support_filters_cells() {
        let e = fig8_engine(EngineConfig::default());
        let spec = q3(&e.db()).with_min_support(2);
        let out = e.execute(&spec).unwrap();
        // Figure 12: only (Pentagon,Wheaton) and (Wheaton,Pentagon) have 2.
        assert_eq!(out.cuboid.len(), 2);
    }

    #[test]
    fn mutation_invalidates_repo() {
        let mut e = fig8_engine(EngineConfig::default());
        let spec = q3(&e.db());
        e.execute(&spec).unwrap();
        e.db_mut()
            .push_row(&[
                Value::Int(9),
                Value::Int(0),
                Value::from("Wheaton"),
                Value::from("in"),
            ])
            .unwrap();
        let out = e.execute(&spec).unwrap();
        assert!(!out.stats.cuboid_cache_hit);
    }

    #[test]
    fn precompute_reduces_first_query_builds() {
        let e = fig8_engine(EngineConfig::default());
        let spec = q3(&e.db());
        let bytes = e.precompute_index(&spec, 2, 0, 2).unwrap();
        assert!(bytes > 0);
        let out = e.execute(&spec).unwrap();
        assert_eq!(out.stats.indices_built, 0);
    }

    #[test]
    fn profile_accompanies_every_execute() {
        let e = fig8_engine(EngineConfig::default());
        let spec = q3(&e.db());
        let first = e.execute(&spec).unwrap();
        assert_eq!(first.profile.strategy, "II");
        assert!(first.profile.elapsed_nanos > 0);
        assert_eq!(
            first
                .profile
                .counter(solap_eventdb::Counter::CellsMaterialized),
            first.cuboid.len() as u64
        );
        assert_eq!(
            first
                .profile
                .counter(solap_eventdb::Counter::SequencesScanned),
            first.stats.sequences_scanned
        );
        assert_eq!(
            first.profile.counter(solap_eventdb::Counter::EventsScanned),
            e.db().len() as u64
        );
        let second = e.execute(&spec).unwrap();
        assert_eq!(second.profile.strategy, "cache");
        assert_eq!(
            second
                .profile
                .counter(solap_eventdb::Counter::CuboidCacheHits),
            1
        );
        assert_eq!(
            second
                .profile
                .counter(solap_eventdb::Counter::EventsScanned),
            0,
            "cache hits scan nothing"
        );
    }

    #[test]
    fn explain_is_deterministic_and_does_not_execute() {
        let e = fig8_engine(EngineConfig::default());
        let spec = q3(&e.db());
        let a = e.explain(&spec).unwrap();
        let b = e.explain(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.strategy, "II");
        assert_eq!(a.mode, "cost");
        assert!(a.query.contains("SELECT"));
        assert!(a.alternatives.len() >= 2, "{:?}", a.alternatives);
        assert_eq!(a.chosen().unwrap().label, "II");
        // The chosen alternative is the predicted-cheapest one.
        let min = a
            .alternatives
            .iter()
            .map(|alt| alt.cost.total_nanos)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(a.chosen().unwrap().cost.total_nanos, min);
        // EXPLAIN must not populate the cuboid repository.
        let out = e.execute(&spec).unwrap();
        assert!(!out.stats.cuboid_cache_hit);
    }

    #[test]
    fn explain_reports_cb_fallback_for_long_subsequences() {
        let e = fig8_engine(EngineConfig::default());
        let mut spec = q3(&e.db());
        spec.template = PatternTemplate::new(
            PatternKind::Subsequence,
            &["A", "B", "C", "D"],
            &[("A", 2, 0), ("B", 2, 0), ("C", 2, 0), ("D", 2, 0)],
        )
        .unwrap();
        spec.mpred = MatchPred::True;
        let plan = e.explain(&spec).unwrap();
        assert_eq!(plan.strategy, "CB");
        assert_eq!(plan.mode, "cost");
        assert!(plan.alternatives.len() >= 2);
    }

    /// The Figure-8 sequences replicated `reps` times under fresh sids:
    /// big enough that per-unit work dominates the cost estimates, small
    /// enough to stay fast. Distinct attribute values don't grow, so
    /// cuboids stay tiny and ancestor reuse is the predicted-cheapest plan.
    fn big_engine(reps: i64, config: EngineConfig) -> Engine {
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
        for rep in 0..reps {
            for (sid, stations) in seqs.iter().enumerate() {
                for (i, st) in stations.iter().enumerate() {
                    let action = if i % 2 == 0 { "in" } else { "out" };
                    db.push_row(&[
                        Value::Int(rep * 4 + sid as i64),
                        Value::Int(i as i64),
                        Value::from(*st),
                        Value::from(action),
                    ])
                    .unwrap();
                }
            }
        }
        db.set_base_level_name(2, "station");
        db.attach_str_level(2, "district", |s| {
            if s == "Pentagon" || s == "Clarendon" {
                "D10".into()
            } else {
                "D20".into()
            }
        })
        .unwrap();
        Engine::with_config(db, config)
    }

    #[test]
    fn planner_rolls_up_materialized_ancestor() {
        let e = big_engine(50, EngineConfig::default());
        let mut qa = q3(&e.db());
        qa.mpred = MatchPred::True;
        qa.seq.group_by = vec![AttrLevel::new(2, 0)];
        e.execute(&qa).unwrap();
        // Global ROLL-UP (station → district): the materialized Qa cuboid
        // is a finer ancestor the planner can merge instead of re-scanning
        // 800 events or re-building indices.
        let (coarse, out) = e.execute_op(&qa, &Op::RollUp { attr: 2 }).unwrap();
        assert_eq!(out.stats.strategy, "reuse", "{:?}", out.stats);
        assert_eq!(out.stats.sequences_scanned, 0);
        assert_eq!(
            out.profile
                .counter(solap_eventdb::Counter::PlanAncestorReuses),
            1
        );
        assert!(out.profile.counter(solap_eventdb::Counter::PlanCellsMerged) > 0);
        // Bit-identical to computing the coarse cuboid from scratch.
        let cb = big_engine(
            50,
            EngineConfig {
                strategy: Strategy::CounterBased,
                ..Default::default()
            },
        );
        let expect = cb.execute(&coarse).unwrap();
        assert_eq!(out.cuboid.cells(), expect.cuboid.cells());
    }

    #[test]
    fn explain_lists_ancestor_reuse_for_p_roll_up() {
        let e = big_engine(50, EngineConfig::default());
        let mut qa = q3(&e.db());
        qa.mpred = MatchPred::True;
        qa = qa.with_restriction(CellRestriction::AllMatchedGo);
        e.execute(&qa).unwrap();
        let coarse = {
            let db = e.db();
            ops::apply(&db, &qa, &Op::PRollUp { dim: "Y".into() }).unwrap()
        };
        let report = e.explain(&coarse).unwrap();
        assert_eq!(report.mode, "cost");
        assert!(
            report.alternatives.len() >= 3,
            "CB, II and ancestor reuse must all be costed: {:?}",
            report.alternatives
        );
        assert_eq!(report.chosen().unwrap().label, "reuse");
        // EXPLAIN costed a repository candidate but must not have touched
        // its recency or produced a cuboid.
        let out = e.execute(&coarse).unwrap();
        assert!(!out.stats.cuboid_cache_hit);
        assert_eq!(out.stats.strategy, "reuse");
    }

    #[test]
    fn cost_model_survives_restart() {
        let dir = std::env::temp_dir().join(format!("solap-engine-model-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = || {
            EventDbBuilder::new()
                .dimension("sid", ColumnType::Int)
                .dimension("pos", ColumnType::Int)
                .dimension("location", ColumnType::Str)
                .dimension("action", ColumnType::Str)
                .build()
                .unwrap()
        };
        {
            let e = Engine::builder(schema())
                .durable_with_policy(&dir, solap_eventdb::FsyncPolicy::Always)
                .unwrap()
                .build();
            // A 1µs-per-event CB sample: seed 120 blends to 296.
            e.cost_model().observe_cb(10_000_000, 10_000);
            e.sync().unwrap();
        }
        let e = Engine::builder(schema())
            .durable_with_policy(&dir, solap_eventdb::FsyncPolicy::Always)
            .unwrap()
            .build();
        let (name, unit) = e.cost_model().units()[0];
        assert_eq!(name, "cb_scan_ns");
        assert!((unit - 296.0).abs() < 1e-9, "{unit}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_cb_config() {
        let e = fig8_engine(EngineConfig {
            strategy: Strategy::CounterBased,
            threads: 3,
            ..Default::default()
        });
        let ii = fig8_engine(EngineConfig::default());
        let qa = q3(&e.db());
        let qb = q3(&ii.db());
        let a = e.execute(&qa).unwrap();
        let b = ii.execute(&qb).unwrap();
        assert_eq!(a.cuboid.cells(), b.cuboid.cells());
    }
}
