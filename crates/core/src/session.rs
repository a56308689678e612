//! Interactive navigation sessions.
//!
//! OLAP's power is iterative exploration: a user poses a query, studies the
//! cuboid, applies an operation, and repeats. A [`Session`] holds the
//! current specification, executes operations through the engine (so every
//! fast path and cache is exploited), and keeps the history so `back()`
//! can retrace steps — the Qa → Qb → Qc explorations of §5 are sessions.
//!
//! Sessions are the unit of **concurrent serving**: they share one
//! [`Engine`] through an [`Arc`] while carrying their own
//! [`EngineConfig`] override (strategy, worker count, limits and — most
//! importantly — the [`CancelToken`](solap_eventdb::CancelToken) that lets
//! a server abort this session's in-flight query when its client
//! disconnects, without disturbing other sessions). The REPL, the `--eval`
//! script mode and every server connection each own exactly one session.

use std::collections::VecDeque;
use std::sync::Arc;

use solap_eventdb::{Error, Result};

use crate::cuboid::SCuboid;
use crate::engine::{Engine, EngineConfig, QueryOutput};
use crate::ops::Op;
use crate::spec::SCuboidSpec;
use crate::stats::ExecStats;

/// How many steps of history a session keeps. A connection may live for
/// millions of statements; `back()` and `.history` work within the most
/// recent `HISTORY_CAP` of them.
pub const HISTORY_CAP: usize = 1024;

/// One step of a session's history.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// The operation that produced this step (`None` for a fresh query).
    pub op: Option<String>,
    /// The specification at this step.
    pub spec: SCuboidSpec,
    /// The statistics of its execution.
    pub stats: ExecStats,
}

/// An interactive S-OLAP exploration session over a shared engine.
pub struct Session {
    engine: Arc<Engine>,
    /// Per-session execution configuration, seeded from the engine's
    /// defaults at session creation. Queries and operations issued through
    /// this session run under it via [`Engine::execute_configured`].
    config: EngineConfig,
    current: Option<SCuboidSpec>,
    cuboid: Option<Arc<SCuboid>>,
    /// The last [`HISTORY_CAP`] steps, oldest first.
    history: VecDeque<HistoryEntry>,
    /// Steps that aged out of `history`.
    forgotten: u64,
}

impl Session {
    /// Opens a session on a shared engine with no current query yet. The
    /// session's configuration starts as a copy of the engine's, with a
    /// fresh per-session [`CancelToken`](solap_eventdb::CancelToken) so
    /// cancelling this session never aborts another's queries.
    pub fn new(engine: Arc<Engine>) -> Self {
        let mut config = engine.config().clone();
        config.cancel = solap_eventdb::CancelToken::new();
        Session {
            engine,
            config,
            current: None,
            cuboid: None,
            history: VecDeque::new(),
            forgotten: 0,
        }
    }

    /// Opens a session and executes an initial query.
    pub fn start(engine: Arc<Engine>, spec: SCuboidSpec) -> Result<Self> {
        let mut s = Session::new(engine);
        s.query(spec)?;
        Ok(s)
    }

    /// The current specification, if a query has run.
    pub fn spec(&self) -> Option<&SCuboidSpec> {
        self.current.as_ref()
    }

    /// The current cuboid, if a query has run.
    pub fn cuboid(&self) -> Option<&Arc<SCuboid>> {
        self.cuboid.as_ref()
    }

    /// The engine backing this session.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A clone of the shared engine handle.
    pub fn engine_arc(&self) -> Arc<Engine> {
        Arc::clone(&self.engine)
    }

    /// The session's execution configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable access to the session's execution configuration — the
    /// session-scoped replacement for `Engine::config_mut` pokes: strategy,
    /// threads, timeout and budget changed here affect this session only.
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// The remembered history — the last [`HISTORY_CAP`] steps — oldest
    /// first.
    pub fn history(&self) -> &VecDeque<HistoryEntry> {
        &self.history
    }

    /// How many older steps have aged out of [`Session::history`]; when
    /// non-zero, `back()` stops at the oldest remembered step, not at the
    /// session's first query.
    pub fn history_forgotten(&self) -> u64 {
        self.forgotten
    }

    fn remember(&mut self, entry: HistoryEntry) {
        if self.history.len() == HISTORY_CAP {
            self.history.pop_front();
            self.forgotten += 1;
        }
        self.history.push_back(entry);
    }

    /// The current spec, or a typed error for surfaces that need one.
    fn require_current(&self) -> Result<&SCuboidSpec> {
        self.current
            .as_ref()
            .ok_or_else(|| Error::InvalidOperation("no current query — run one first".into()))
    }

    /// Applies an operation, navigating to a new S-cuboid.
    pub fn apply(&mut self, op: Op) -> Result<QueryOutput> {
        let prev = self.require_current()?.clone();
        let (spec, out) = self
            .engine
            .execute_op_configured(&prev, &op, &self.config)?;
        self.remember(HistoryEntry {
            op: Some(op.name().to_owned()),
            spec: spec.clone(),
            stats: out.stats.clone(),
        });
        self.current = Some(spec);
        self.cuboid = Some(Arc::clone(&out.cuboid));
        Ok(out)
    }

    /// Executes a fresh query within the session (replacing the current
    /// specification).
    pub fn query(&mut self, spec: SCuboidSpec) -> Result<QueryOutput> {
        let out = self.engine.execute_configured(&spec, &self.config)?;
        self.remember(HistoryEntry {
            op: if self.history.is_empty() {
                None
            } else {
                Some("QUERY".to_owned())
            },
            spec: spec.clone(),
            stats: out.stats.clone(),
        });
        self.current = Some(spec);
        self.cuboid = Some(Arc::clone(&out.cuboid));
        Ok(out)
    }

    /// Re-executes the current specification (usually a cuboid-repository
    /// hit) — the `.show` surface.
    pub fn reexecute(&mut self) -> Result<QueryOutput> {
        let spec = self.require_current()?.clone();
        let out = self.engine.execute_configured(&spec, &self.config)?;
        self.cuboid = Some(Arc::clone(&out.cuboid));
        Ok(out)
    }

    /// Builds the structured execution plan for `spec` under this
    /// session's configuration, without executing it. Rendering (text or
    /// JSON) is the dispatch layer's job.
    pub fn explain(&self, spec: &SCuboidSpec) -> Result<crate::plan::PlanReport> {
        self.engine.explain_configured(spec, &self.config)
    }

    /// Steps back to the previous specification (re-executing it — usually
    /// a cuboid-repository hit). Returns `false` at the start of the
    /// remembered history (see [`Session::history_forgotten`]). If the
    /// re-execution fails, the session is left as it was.
    pub fn back(&mut self) -> Result<bool> {
        let Some(prev) = self
            .history
            .len()
            .checked_sub(2)
            .and_then(|i| self.history.get(i))
        else {
            return Ok(false);
        };
        let spec = prev.spec.clone();
        let out = self.engine.execute_configured(&spec, &self.config)?;
        self.history.pop_back();
        self.current = Some(spec);
        self.cuboid = Some(Arc::clone(&out.cuboid));
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{AttrLevel, CmpOp, ColumnType, EventDbBuilder, SortKey, Value};
    use solap_pattern::{MatchPred, PatternKind, PatternTemplate};

    fn engine() -> Arc<Engine> {
        let mut db = EventDbBuilder::new()
            .dimension("sid", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("location", ColumnType::Str)
            .dimension("action", ColumnType::Str)
            .build()
            .unwrap();
        let seqs: [&[&str]; 2] = [
            &["Pentagon", "Wheaton", "Wheaton", "Pentagon"],
            &["Glenmont", "Pentagon"],
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
        Arc::new(Engine::builder(db).build())
    }

    fn initial(db: &solap_eventdb::EventDb) -> SCuboidSpec {
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
    fn navigate_append_and_back() {
        let e = engine();
        let spec = initial(&e.db());
        let mut s = Session::start(e, spec).unwrap();
        assert_eq!(s.history().len(), 1);
        let before = s.spec().unwrap().fingerprint();
        s.apply(Op::Append {
            symbol: "Y".into(),
            attr: 2,
            level: 0,
        })
        .unwrap();
        assert_eq!(s.spec().unwrap().template.m(), 3);
        assert_eq!(s.history().len(), 2);
        assert_eq!(s.history()[1].op.as_deref(), Some("APPEND"));
        assert!(s.back().unwrap());
        assert_eq!(s.spec().unwrap().fingerprint(), before);
        assert!(!s.back().unwrap(), "cannot step before the initial query");
    }

    #[test]
    fn history_keeps_the_last_steps_of_a_long_session() {
        let e = engine();
        let spec = initial(&e.db());
        let mut s = Session::start(e, spec).unwrap();
        let extra = 7;
        for i in 0..(HISTORY_CAP + extra - 1) {
            s.apply(Op::SetMinSupport(Some(1 + (i % 2) as u64)))
                .unwrap();
        }
        assert_eq!(s.history().len(), HISTORY_CAP);
        assert_eq!(s.history_forgotten(), extra as u64);
        assert_eq!(s.history()[0].op.as_deref(), Some("MIN-SUPPORT"));
        // Stepping back works within the window and stops at its edge.
        let mut steps = 0;
        while s.back().unwrap() {
            steps += 1;
        }
        assert_eq!(steps, HISTORY_CAP - 1);
        assert_eq!(s.history().len(), 1);
        assert!(
            s.spec().unwrap().min_support.is_some(),
            "not the first query"
        );
    }

    #[test]
    fn failed_back_keeps_the_step() {
        let e = engine();
        let spec = initial(&e.db());
        let mut s = Session::new(e);
        // Without the repository, stepping back rebuilds the first cuboid.
        s.config_mut().use_cuboid_repo = false;
        s.query(spec).unwrap();
        let cells = s.cuboid().unwrap().len() as u64;
        assert!(cells > 0);
        s.apply(Op::SetMinSupport(Some(1_000_000))).unwrap();
        let here = s.spec().unwrap().fingerprint();
        s.config_mut().budget_cells = Some(cells - 1);
        assert_eq!(s.back().unwrap_err().code(), "resource_exhausted");
        assert_eq!(s.history().len(), 2);
        assert_eq!(s.spec().unwrap().fingerprint(), here);
        assert_eq!(s.cuboid().unwrap().len(), 0);
        s.config_mut().budget_cells = None;
        assert!(s.back().unwrap());
        assert_eq!(s.history().len(), 1);
        assert_eq!(s.cuboid().unwrap().len() as u64, cells);
    }

    #[test]
    fn fresh_query_resets_spec() {
        let e = engine();
        let spec = initial(&e.db());
        let mut s = Session::start(e, spec).unwrap();
        let mut other = initial(&s.engine().db());
        other.mpred = MatchPred::True;
        let out = s.query(other.clone()).unwrap();
        assert_eq!(s.spec().unwrap().fingerprint(), other.fingerprint());
        assert!(out.cuboid.len() >= s.history()[0].spec.template.n());
        assert_eq!(s.history()[1].op.as_deref(), Some("QUERY"));
    }

    #[test]
    fn cuboid_follows_operations() {
        let e = engine();
        let spec = initial(&e.db());
        let mut s = Session::start(e, spec).unwrap();
        let n_before = s.cuboid().unwrap().len();
        s.apply(Op::SetMinSupport(Some(1_000_000))).unwrap();
        assert_eq!(s.cuboid().unwrap().len(), 0);
        s.back().unwrap();
        assert_eq!(s.cuboid().unwrap().len(), n_before);
    }

    #[test]
    fn empty_session_reports_typed_errors() {
        let e = engine();
        let mut s = Session::new(e);
        assert!(s.spec().is_none() && s.cuboid().is_none());
        let err = s.apply(Op::DeTail).unwrap_err();
        assert_eq!(err.code(), "invalid_operation");
        assert_eq!(s.reexecute().unwrap_err().code(), "invalid_operation");
        assert!(!s.back().unwrap());
    }

    #[test]
    fn sessions_share_an_engine_but_not_config() {
        let e = engine();
        let spec = initial(&e.db());
        let mut a = Session::new(Arc::clone(&e));
        let mut b = Session::new(Arc::clone(&e));
        a.config_mut().strategy = crate::engine::Strategy::CounterBased;
        // The shared cuboid repository would otherwise answer A's repeat
        // of B's query outright; bypass it so the strategy override shows.
        a.config_mut().use_cuboid_repo = false;
        b.config_mut().strategy = crate::engine::Strategy::InvertedIndex;
        // Per-session cancel tokens are independent: cancelling A's leaves
        // B runnable.
        a.config().cancel.cancel();
        let err = a.query(spec.clone()).unwrap_err();
        assert_eq!(err.code(), "cancelled");
        let out_b = b.query(spec.clone()).unwrap();
        assert_eq!(out_b.stats.strategy, "II");
        a.config().cancel.reset();
        let out_a = a.query(spec).unwrap();
        assert_eq!(out_a.stats.strategy, "CB");
        assert_eq!(out_a.cuboid.cells(), out_b.cuboid.cells());
    }
}
