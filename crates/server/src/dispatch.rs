//! The shared statement-dispatch layer.
//!
//! Every statement surface — the interactive REPL, `solap --eval`
//! scripts, and server connections — funnels through [`dispatch`]: one
//! statement string in, one structured [`Response`] out. The REPL prints
//! `Response::body`, the server serializes the whole response as a JSON
//! line; neither has execution logic of its own, so the three surfaces
//! cannot drift apart.
//!
//! A statement is either a dot-command (`.op append Z location station`,
//! `.strategy ii`, …) or a Figure-3 query (optionally prefixed with
//! `EXPLAIN` / `PROFILE`). Engine-lifecycle commands (`.gen`, `.save`,
//! `.load`) are *not* handled here: they replace or persist the engine
//! itself, which only the process that owns it may do, so the local CLI
//! intercepts them before dispatch and every other surface receives a
//! typed `unsupported` error.

use std::collections::VecDeque;
use std::sync::Arc;

use solap_core::{Engine, PlanReport, Session, HISTORY_CAP};
use solap_eventdb::CancelToken;

use crate::command::{self, ArgError};
use crate::json::escape;

/// The statement surfaces' shared per-connection state: a [`Session`]
/// (current spec, cuboid, history, per-session config) plus display
/// state that belongs to the surface rather than the engine.
pub struct SessionCtx {
    session: Session,
    /// Whether every executed query also renders its profile
    /// (`.profile on|off`).
    pub show_profile: bool,
    /// Display labels for `.history`, one per navigation step (regex
    /// queries run outside [`Session`] history, so the surface keeps its
    /// own parallel list), bounded like the session's history.
    labels: VecDeque<String>,
    /// Labels that aged out; `.history` numbers steps from here.
    labels_forgotten: u64,
}

impl SessionCtx {
    /// Opens a fresh context on a shared engine.
    pub fn new(engine: Arc<Engine>) -> Self {
        SessionCtx {
            session: Session::new(engine),
            show_profile: false,
            labels: VecDeque::new(),
            labels_forgotten: 0,
        }
    }

    fn label(&mut self, label: String) {
        if self.labels.len() == HISTORY_CAP {
            self.labels.pop_front();
            self.labels_forgotten += 1;
        }
        self.labels.push_back(label);
    }

    /// The underlying navigation session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable access to the underlying session (tests, config pokes).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// The session's cancel token — what a server trips when this
    /// context's client disconnects mid-query.
    pub fn cancel_token(&self) -> CancelToken {
        self.session.config().cancel.clone()
    }
}

/// The outcome of dispatching one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Whether the statement succeeded.
    pub ok: bool,
    /// The stable machine-readable error code when `!ok` (see
    /// [`solap_eventdb::Error::code`] plus the surface codes `usage`,
    /// `unsupported`, `over_capacity`, `too_large`, `bad_request`,
    /// `shutting_down`).
    pub code: Option<String>,
    /// Rendered output (success) or the error message (failure).
    pub body: String,
    /// The query's profile as a JSON object, when profiling was on.
    pub profile_json: Option<String>,
    /// The structured plan as a JSON object (`EXPLAIN` statements).
    pub plan_json: Option<String>,
    /// Whether the surface should close (`.quit` / `.exit`).
    pub quit: bool,
}

impl Response {
    /// A successful response carrying `body`.
    pub fn ok(body: impl Into<String>) -> Self {
        Response {
            ok: true,
            code: None,
            body: body.into(),
            profile_json: None,
            plan_json: None,
            quit: false,
        }
    }

    /// A failed response with a stable `code` and a message.
    pub fn err(code: impl Into<String>, message: impl Into<String>) -> Self {
        Response {
            ok: false,
            code: Some(code.into()),
            body: message.into(),
            profile_json: None,
            plan_json: None,
            quit: false,
        }
    }

    /// Serializes the response as a newline-terminated wire line, ready
    /// to append to a connection's write buffer.
    pub fn wire_line(&self) -> String {
        let mut line = self.to_wire();
        line.push('\n');
        line
    }

    /// Serializes the response as one JSON line (without the newline).
    pub fn to_wire(&self) -> String {
        let mut out = String::with_capacity(self.body.len() + 64);
        out.push_str("{\"ok\":");
        out.push_str(if self.ok { "true" } else { "false" });
        if let Some(code) = &self.code {
            out.push_str(",\"code\":\"");
            out.push_str(&escape(code));
            out.push('"');
        }
        if self.ok {
            out.push_str(",\"body\":\"");
            out.push_str(&escape(&self.body));
            out.push('"');
        } else {
            out.push_str(",\"error\":\"");
            out.push_str(&escape(&self.body));
            out.push('"');
        }
        if let Some(p) = &self.profile_json {
            out.push_str(",\"profile\":");
            out.push_str(p);
        }
        if let Some(p) = &self.plan_json {
            out.push_str(",\"plan\":");
            out.push_str(p);
        }
        if self.quit {
            out.push_str(",\"quit\":true");
        }
        out.push('}');
        out
    }
}

/// Renders a structured [`PlanReport`] as the human EXPLAIN text. The
/// engine builds reports; the statement surfaces own presentation — this
/// renderer is the text one, [`plan_to_json`] the wire one.
pub fn render_plan_text(report: &PlanReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("query:\n");
    for line in report.query.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("plan:\n");
    let _ = writeln!(out, "  strategy: {} ({})", report.strategy, report.why);
    let _ = writeln!(out, "  threads: {}", report.threads);
    let _ = writeln!(
        out,
        "  step 1-2 (select + cluster): scan {} events, filter {}",
        report.events, report.filter
    );
    let _ = writeln!(
        out,
        "  step 3-4 (order + form groups): {} sort key(s), {} group attr(s)",
        report.sort_keys, report.group_attrs
    );
    let _ = writeln!(
        out,
        "  pattern: {} template, m = {}",
        report.template_kind, report.m
    );
    if let Some(ms) = report.min_support {
        let _ = writeln!(out, "  iceberg: drop cells with COUNT < {ms}");
    }
    let _ = writeln!(
        out,
        "  caches: cuboid repo {}, sequence cache shared per (filter, cluster, order, group)",
        if report.use_cuboid_repo { "on" } else { "off" }
    );
    let _ = writeln!(out, "  alternatives ({}):", report.mode);
    for alt in &report.alternatives {
        let _ = writeln!(
            out,
            "    {} {:<5} ~{:<10} {}",
            if alt.chosen { "->" } else { "  " },
            alt.label,
            solap_eventdb::metrics::format_nanos(alt.cost.total_nanos as u64),
            alt.detail
        );
    }
    out
}

/// Serializes a [`PlanReport`] as one JSON object — the wire protocol's
/// `"plan"` field on EXPLAIN responses.
pub fn plan_to_json(report: &PlanReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"mode\":\"{}\",\"strategy\":\"{}\",\"why\":\"{}\",\
         \"threads\":{},\"events\":{},\"template\":\"{}\",\"m\":{},\"alternatives\":[",
        escape(report.mode),
        escape(&report.strategy),
        escape(&report.why),
        report.threads,
        report.events,
        escape(&report.template_kind),
        report.m
    );
    for (i, alt) in report.alternatives.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"detail\":\"{}\",\"cost_ns\":{},\"chosen\":{}}}",
            escape(&alt.label),
            escape(&alt.detail),
            alt.cost.total_nanos as u64,
            alt.chosen
        );
    }
    out.push_str("]}");
    out
}

/// An in-flight dispatch failure, before it is rendered as a [`Response`].
struct Fail {
    code: String,
    msg: String,
}

impl From<solap_eventdb::Error> for Fail {
    fn from(e: solap_eventdb::Error) -> Self {
        Fail {
            code: e.code().to_owned(),
            msg: e.to_string(),
        }
    }
}

impl From<ArgError> for Fail {
    fn from(e: ArgError) -> Self {
        Fail {
            code: e.code().to_owned(),
            msg: e.message(),
        }
    }
}

fn usage(msg: impl Into<String>) -> Fail {
    Fail {
        code: "usage".into(),
        msg: msg.into(),
    }
}

/// Renders a cache's `(oldest, newest)` database versions for `.stats`.
fn versions_held(span: Option<(u64, u64)>) -> String {
    match span {
        None => "no version".to_string(),
        Some((lo, hi)) if lo == hi => format!("version {lo}"),
        Some((lo, hi)) => format!("versions {lo}–{hi}"),
    }
}

/// Executes one statement against the session context.
///
/// Never panics on bad input and never returns transport-level errors:
/// everything the statement can do wrong is reported as a `!ok`
/// [`Response`] with a stable code.
pub fn dispatch(ctx: &mut SessionCtx, line: &str) -> Response {
    let line = line.trim();
    if line.is_empty() {
        return Response::ok("");
    }
    let result = if let Some(rest) = line.strip_prefix('.') {
        dispatch_command(ctx, rest)
    } else {
        dispatch_query(ctx, line)
    };
    result.unwrap_or_else(|f| Response::err(f.code, f.msg))
}

fn dispatch_command(ctx: &mut SessionCtx, rest: &str) -> Result<Response, Fail> {
    use std::fmt::Write as _;
    let mut parts = rest.split_whitespace();
    let cmd = parts.next().unwrap_or("");
    let args: Vec<&str> = parts.collect();
    match cmd {
        "help" => Ok(Response::ok(command::help_text())),
        "quit" | "exit" => {
            let mut r = Response::ok("");
            r.quit = true;
            Ok(r)
        }
        "gen" | "save" | "load" => Err(Fail {
            code: "unsupported".into(),
            msg: format!(
                "`.{cmd}` manages the engine's dataset and is only available \
                 in the local CLI, not through a session surface"
            ),
        }),
        "schema" => {
            let db = ctx.session.engine().db();
            let mut out = String::new();
            for (i, col) in db.schema().columns().iter().enumerate() {
                let levels: Vec<String> = (0..db.level_count(i as u32))
                    .map(|l| db.level_name(i as u32, l))
                    .collect();
                // Writing to a String is infallible.
                let _ = writeln!(
                    out,
                    "  {:<14} {:<6} {:?}  levels: {}",
                    col.name,
                    col.ctype.name(),
                    col.role,
                    levels.join(" → ")
                );
            }
            Ok(Response::ok(out))
        }
        "strategy" => {
            use solap_core::Strategy;
            let s = match args.first().copied() {
                Some("cb") => Strategy::CounterBased,
                Some("ii") => Strategy::InvertedIndex,
                Some("auto") => Strategy::Auto,
                other => {
                    return Err(usage(format!(
                        "usage: .strategy cb|ii|auto (got {other:?})"
                    )))
                }
            };
            ctx.session.config_mut().strategy = s;
            Ok(Response::ok(""))
        }
        "threads" => {
            let n: usize = args
                .first()
                .ok_or_else(|| usage("usage: .threads N"))?
                .parse()
                .map_err(|_| usage("usage: .threads N (N ≥ 1)"))?;
            ctx.session.config_mut().threads = n.max(1);
            Ok(Response::ok(format!(
                "worker threads: {}\n",
                ctx.session.config().threads
            )))
        }
        "timeout" => {
            let ms: u64 = args
                .first()
                .ok_or_else(|| usage("usage: .timeout MS (0 = off)"))?
                .parse()
                .map_err(|_| usage("usage: .timeout MS (0 = off)"))?;
            ctx.session.config_mut().timeout =
                (ms > 0).then(|| std::time::Duration::from_millis(ms));
            Ok(Response::ok(match ms {
                0 => "query timeout: off\n".to_owned(),
                _ => format!("query timeout: {ms} ms\n"),
            }))
        }
        "budget" => {
            let cells: u64 = args
                .first()
                .ok_or_else(|| usage("usage: .budget CELLS (0 = off)"))?
                .parse()
                .map_err(|_| usage("usage: .budget CELLS (0 = off)"))?;
            ctx.session.config_mut().budget_cells = (cells > 0).then_some(cells);
            Ok(Response::ok(match cells {
                0 => "cell budget: off\n".to_owned(),
                _ => format!("cell budget: {cells} cells\n"),
            }))
        }
        "op" => {
            let db = ctx.session.engine_arc();
            let op = command::parse_op(&db.db(), &args, ctx.session.spec())?;
            let result = ctx.session.apply(op.clone())?;
            let spec = ctx.session.spec().ok_or_else(|| Fail {
                code: "internal".into(),
                msg: "apply left no current spec".into(),
            })?;
            let table = result.cuboid.tabulate(&db.db(), 10, true);
            let label = format!("{} → {}", op.name(), spec.template.render_head());
            ctx.label(label);
            Ok(Response::ok(format!(
                "{}: {} cells via {} in {:?} ({} sequences scanned)\n{table}",
                op.name(),
                result.cuboid.len(),
                result.stats.strategy,
                result.stats.elapsed,
                result.stats.sequences_scanned
            )))
        }
        "back" => {
            if ctx.session.back()? {
                ctx.labels.pop_back();
                let head = ctx
                    .session
                    .spec()
                    .map(|s| s.template.render_head())
                    .unwrap_or_default();
                Ok(Response::ok(format!("back to: {head}\n")))
            } else if ctx.session.history_forgotten() > 0 {
                Ok(Response::ok(format!(
                    "at the oldest remembered step (history keeps the last {HISTORY_CAP})\n"
                )))
            } else {
                Ok(Response::ok("at the start of history\n"))
            }
        }
        "show" => {
            let n: usize = args
                .first()
                .map(|s| s.parse().map_err(|_| usage("bad row count")))
                .transpose()?
                .unwrap_or(20);
            let result = ctx.session.reexecute()?;
            let db = ctx.session.engine().db();
            Ok(Response::ok(result.cuboid.tabulate(&db, n, true)))
        }
        "spec" => {
            let spec = ctx
                .session
                .spec()
                .ok_or_else(|| usage("no current query"))?;
            Ok(Response::ok(spec.render(&ctx.session.engine().db())))
        }
        "stats" => {
            let engine = ctx.session.engine();
            let (seqs, store) = (engine.sequence_cache(), engine.index_store());
            let (sh, sm) = seqs.stats();
            let (ih, im) = store.stats();
            let cr = engine.cuboid_repo().stats();
            Ok(Response::ok(format!(
                "sequence cache: {} entries, {:.1} KiB, {}, {sh} hits / {sm} misses\n\
                 index store:    {} indices, {:.1} KiB, {}, {ih} hits / {im} misses\n\
                 cuboid repo:    {} cuboids, {:.1} KiB, {}, {} hits / {} misses, {} evictions\n",
                seqs.len(),
                seqs.total_bytes() as f64 / 1024.0,
                versions_held(seqs.versions()),
                store.len(),
                store.total_bytes() as f64 / 1024.0,
                versions_held(store.versions()),
                cr.entries,
                cr.bytes as f64 / 1024.0,
                versions_held(engine.cuboid_repo().versions()),
                cr.hits,
                cr.misses,
                cr.evictions,
            )))
        }
        "history" => {
            let mut out = String::new();
            if ctx.labels_forgotten > 0 {
                let _ = writeln!(
                    out,
                    "  … {} earlier steps forgotten (the last {HISTORY_CAP} are kept)",
                    ctx.labels_forgotten
                );
            }
            for (i, h) in ctx.labels.iter().enumerate() {
                let _ = writeln!(out, "  {:>3}. {h}", ctx.labels_forgotten + i as u64);
            }
            Ok(Response::ok(out))
        }
        "profile" => match args.first().copied() {
            Some("on") => {
                ctx.show_profile = true;
                Ok(Response::ok("per-query profile: on\n"))
            }
            Some("off") => {
                ctx.show_profile = false;
                Ok(Response::ok("per-query profile: off\n"))
            }
            other => Err(usage(format!("usage: .profile on|off (got {other:?})"))),
        },
        "metrics" => Ok(Response::ok(solap_eventdb::metrics::global().export_text())),
        "online" => {
            let chunk: usize = args
                .first()
                .map(|s| {
                    s.parse()
                        .map_err(|_| usage("usage: .online CHUNK (a positive sequence count)"))
                })
                .transpose()?
                .unwrap_or(64);
            let spec = ctx
                .session
                .spec()
                .ok_or_else(|| usage("no current query — run a COUNT query first"))?
                .clone();
            let engine = ctx.session.engine_arc();
            let groups = engine.sequence_groups(&spec)?;
            let db = engine.db();
            let mut body = String::new();
            let cuboid = solap_core::online::online_count(&db, &groups, &spec, chunk, |snap| {
                let _ = writeln!(
                    body,
                    "  {:>5.1}% processed → {} cells (estimated)",
                    snap.progress * 100.0,
                    snap.estimate.cells().len()
                );
            })?;
            body.push_str(&cuboid.tabulate(&db, 10, true));
            Ok(Response::ok(body))
        }
        other => Err(usage(format!("unknown command `.{other}` — try `.help`"))),
    }
}

fn dispatch_query(ctx: &mut SessionCtx, text: &str) -> Result<Response, Fail> {
    let text = text.trim_end_matches(';');
    // Ingestion: `STORE INTO Event VALUES …` goes through the engine's
    // store path (WAL-committed on durable engines) instead of the query
    // planner.
    let head = text.split_whitespace().next().unwrap_or("");
    if head.eq_ignore_ascii_case("STORE") {
        return dispatch_store(ctx, text);
    }
    // Regex-template queries (the §3.2 extension) use `CUBOID BY REGEX`
    // and run on the counter-based path.
    if text.to_ascii_uppercase().contains("CUBOID BY REGEX") {
        let head = text.split_whitespace().next().unwrap_or("");
        if head.eq_ignore_ascii_case("EXPLAIN") || head.eq_ignore_ascii_case("PROFILE") {
            return Err(usage(
                "EXPLAIN/PROFILE is not supported for regex-template queries \
                 (they run outside the planned engine path)",
            ));
        }
        return dispatch_regex_query(ctx, text);
    }
    let engine = ctx.session.engine_arc();
    let stmt = solap_query::parse_statement(&engine.db(), text)?;
    if stmt.mode == solap_query::ExplainMode::Explain {
        // EXPLAIN builds the structured plan without executing anything;
        // this layer renders it for humans and the wire alike.
        let report = ctx.session.explain(&stmt.spec)?;
        let mut response = Response::ok(render_plan_text(&report));
        response.plan_json = Some(plan_to_json(&report));
        return Ok(response);
    }
    let spec = stmt.spec;
    let result = ctx.session.query(spec)?;
    let spec = ctx.session.spec().ok_or_else(|| Fail {
        code: "internal".into(),
        msg: "query left no current spec".into(),
    })?;
    let table = result.cuboid.tabulate(&engine.db(), 15, true);
    let label = spec.template.render_head();
    ctx.label(label);
    let mut body = format!(
        "{} cells via {} in {:?} ({} sequences scanned, {} KiB of indices built)\n",
        result.cuboid.len(),
        result.stats.strategy,
        result.stats.elapsed,
        result.stats.sequences_scanned,
        result.stats.index_bytes_built / 1024
    );
    let mut response = Response::ok("");
    if stmt.mode == solap_query::ExplainMode::Profile || ctx.show_profile {
        body.push_str(&result.profile.render_text(false));
        response.profile_json = Some(result.profile.to_json());
    }
    body.push_str(&table);
    response.body = body;
    Ok(response)
}

fn dispatch_store(ctx: &mut SessionCtx, text: &str) -> Result<Response, Fail> {
    let engine = ctx.session.engine_arc();
    let stmt = solap_query::parse_store(&engine.db(), text)?;
    let start = std::time::Instant::now();
    // Per-session config so session-level budgets and cancellation govern
    // ingestion exactly like queries.
    let report = engine.append_events_configured(&stmt.rows, ctx.session.config())?;
    Ok(Response::ok(format!(
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
    )))
}

fn dispatch_regex_query(ctx: &mut SessionCtx, text: &str) -> Result<Response, Fail> {
    let engine = ctx.session.engine_arc();
    let db = engine.db();
    let q = solap_query::parse_regex_query(&db, text)?;
    let start = std::time::Instant::now();
    let groups = solap_eventdb::build_sequence_groups(&db, &q.seq)?;
    let mut meter = solap_core::stats::ScanMeter::new();
    let cuboid =
        solap_core::regexq::regex_cuboid(&db, &groups, &q.template, q.restriction, &mut meter)?;
    let table = cuboid.tabulate(&db, 15, true);
    ctx.label(format!("REGEX {}", q.template.render()));
    Ok(Response::ok(format!(
        "{} cells via regex/CB in {:?} ({} sequences scanned)\n{table}",
        cuboid.len(),
        start.elapsed(),
        meter.count()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn ctx() -> SessionCtx {
        let db = command::generate(
            "transit",
            &HashMap::from([
                ("passengers".to_owned(), "60".to_owned()),
                ("days".to_owned(), "3".to_owned()),
            ]),
        )
        .unwrap();
        SessionCtx::new(Arc::new(Engine::builder(db).build()))
    }

    const QUERY: &str = r#"SELECT COUNT(*) FROM Event
        CLUSTER BY card-id AT individual, time AT day
        SEQUENCE BY time ASCENDING
        CUBOID BY SUBSTRING (X, Y)
          WITH X AS location AT station, Y AS location AT station
          LEFT-MAXIMALITY (x1, y1)
          WITH x1.action = "in" AND y1.action = "out";"#;

    #[test]
    fn query_and_op_flow() {
        let mut c = ctx();
        let r = dispatch(&mut c, QUERY);
        assert!(r.ok, "{}", r.body);
        assert!(r.body.contains("cells via"), "{}", r.body);
        let r = dispatch(&mut c, ".op append Z location station");
        assert!(r.ok && r.body.contains("APPEND"), "{}", r.body);
        let r = dispatch(&mut c, ".back");
        assert!(r.ok && r.body.contains("back to:"), "{}", r.body);
        let r = dispatch(&mut c, ".history");
        assert!(r.ok && !r.body.contains("APPEND"), "{}", r.body);
    }

    #[test]
    fn history_is_bounded_and_says_so_at_the_boundary() {
        let mut c = ctx();
        assert!(dispatch(&mut c, QUERY).ok);
        for i in 0..HISTORY_CAP + 2 {
            let r = dispatch(&mut c, &format!(".op minsup {}", 1 + i % 2));
            assert!(r.ok, "{}", r.body);
        }
        let r = dispatch(&mut c, ".history");
        assert!(r.body.contains("3 earlier steps forgotten"), "{}", r.body);
        assert_eq!(r.body.lines().count(), HISTORY_CAP + 1);
        assert!(
            r.body.lines().nth(1).unwrap().contains("  3. "),
            "{}",
            r.body
        );
        for _ in 0..HISTORY_CAP - 1 {
            let r = dispatch(&mut c, ".back");
            assert!(r.body.contains("back to:"), "{}", r.body);
        }
        let r = dispatch(&mut c, ".back");
        assert!(
            r.ok && r.body.contains("oldest remembered step"),
            "{}",
            r.body
        );
    }

    #[test]
    fn store_statement_appends_and_queries_see_it() {
        let mut c = ctx();
        let r = dispatch(&mut c, QUERY);
        assert!(r.ok, "{}", r.body);
        let before = c.session().engine().db().len();
        let r = dispatch(
            &mut c,
            r#"STORE INTO Event VALUES
                ("2007-10-05T08:00", 9999, "ST000", "in", 0.0),
                ("2007-10-05T08:20", 9999, "ST001", "out", -1.5);"#,
        );
        assert!(r.ok, "{}", r.body);
        assert!(r.body.contains("stored 2 events"), "{}", r.body);
        assert!(r.body.contains("in-memory"), "{}", r.body);
        assert_eq!(c.session().engine().db().len(), before + 2);
        // The post-append query runs against the new version (no stale
        // cached cuboid) and still succeeds.
        let r = dispatch(&mut c, QUERY);
        assert!(r.ok, "{}", r.body);
        // Bad tuples are rejected atomically with a typed code.
        let r = dispatch(&mut c, "STORE INTO Event VALUES (1, 2);");
        assert!(!r.ok);
        assert_eq!(r.code.as_deref(), Some("parse"));
        assert_eq!(c.session().engine().db().len(), before + 2);
    }

    #[test]
    fn online_command_reports_snapshots() {
        let mut c = ctx();
        let r = dispatch(&mut c, ".online 8");
        assert!(!r.ok, "needs a current query first");
        assert_eq!(r.code.as_deref(), Some("usage"));
        let r = dispatch(&mut c, QUERY);
        assert!(r.ok, "{}", r.body);
        let r = dispatch(&mut c, ".online 8");
        assert!(r.ok, "{}", r.body);
        assert!(r.body.contains("% processed"), "{}", r.body);
        let r = dispatch(&mut c, ".online zero");
        assert!(!r.ok);
        assert_eq!(r.code.as_deref(), Some("usage"));
        let r = dispatch(&mut c, ".online 0");
        assert!(!r.ok);
        assert_eq!(r.code.as_deref(), Some("invalid_operation"));
    }

    #[test]
    fn errors_carry_stable_codes() {
        let mut c = ctx();
        let r = dispatch(&mut c, ".op prollup Q");
        assert!(!r.ok);
        // parse_op succeeds (prollup only names a dimension); the failure
        // is the session's: no current query to operate on.
        assert_eq!(r.code.as_deref(), Some("invalid_operation"));
        let r = dispatch(&mut c, "SELECT BOGUS;");
        assert!(!r.ok);
        assert_eq!(r.code.as_deref(), Some("parse"));
        let r = dispatch(&mut c, ".op rollup bogus");
        assert!(!r.ok, "{}", r.body);
        // An op on an empty session is invalid_operation territory, but
        // parse_op's schema resolution fires first here.
        assert_eq!(r.code.as_deref(), Some("unknown_attribute"));
        let r = dispatch(&mut c, ".gen transit");
        assert!(!r.ok);
        assert_eq!(r.code.as_deref(), Some("unsupported"));
    }

    #[test]
    fn per_session_config_commands() {
        let mut c = ctx();
        for (cmd, want_empty) in [(".strategy cb", true), (".threads 4", false)] {
            let r = dispatch(&mut c, cmd);
            assert!(r.ok, "{cmd}: {}", r.body);
            assert_eq!(r.body.is_empty(), want_empty, "{cmd}: {}", r.body);
        }
        assert_eq!(c.session().config().threads, 4);
        let r = dispatch(&mut c, ".timeout 5000");
        assert!(r.ok && r.body.contains("5000 ms"));
        let r = dispatch(&mut c, ".budget 0");
        assert!(r.ok && r.body.contains("off"));
        let r = dispatch(&mut c, ".strategy warp");
        assert!(!r.ok);
        assert_eq!(r.code.as_deref(), Some("usage"));
    }

    #[test]
    fn explain_and_profile_modes() {
        let mut c = ctx();
        let r = dispatch(&mut c, &format!("EXPLAIN {QUERY}"));
        assert!(r.ok, "{}", r.body);
        assert!(r.body.contains("plan:") && !r.body.contains("cells via"));
        assert!(r.body.contains("alternatives"), "{}", r.body);
        assert!(c.session().spec().is_none(), "EXPLAIN leaves no current");
        // The structured plan rides the wire as a "plan" JSON object.
        let plan = r.plan_json.as_deref().expect("EXPLAIN carries plan JSON");
        let v = crate::json::Json::parse(plan).unwrap();
        assert!(v.get("strategy").unwrap().as_str().is_some());
        let wire = r.to_wire();
        let v = crate::json::Json::parse(&wire).unwrap();
        assert!(v.get("plan").is_some(), "{wire}");
        let r = dispatch(&mut c, &format!("PROFILE {QUERY}"));
        assert!(r.ok, "{}", r.body);
        assert!(r.body.contains("profile:"), "{}", r.body);
        assert!(r.profile_json.is_some());
        // The profile JSON on the wire is valid JSON.
        crate::json::Json::parse(r.profile_json.as_deref().unwrap()).unwrap();
        // `.profile off` only stops the printing: the next query (new
        // clusters, so steps 1–4 run) is still profiled and still folded
        // into the `.metrics` totals (which other tests only ever grow).
        let scanned_total = |c: &mut SessionCtx| -> u64 {
            let r = dispatch(c, ".metrics");
            let line = r
                .body
                .lines()
                .find(|l| l.trim_start().starts_with("events_scanned"));
            line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
                .expect("`.metrics` lists events_scanned")
        };
        assert!(dispatch(&mut c, ".profile off").ok);
        let before = scanned_total(&mut c);
        let r = dispatch(
            &mut c,
            &format!("PROFILE {}", QUERY.replace("time AT day", "time AT week")),
        );
        assert!(r.ok, "{}", r.body);
        let p = crate::json::Json::parse(r.profile_json.as_deref().unwrap()).unwrap();
        let scanned = p
            .get("counters")
            .and_then(|c| c.get("events_scanned"))
            .and_then(|v| v.as_f64());
        let scanned = scanned.expect("the profile counts events_scanned") as u64;
        assert!(scanned > 0, "{}", r.body);
        assert!(scanned_total(&mut c) >= before + scanned);
    }

    #[test]
    fn quit_sets_the_flag_and_wire_format_roundtrips() {
        let mut c = ctx();
        let r = dispatch(&mut c, ".quit");
        assert!(r.ok && r.quit);
        let wire = r.to_wire();
        let v = crate::json::Json::parse(&wire).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("quit").unwrap().as_bool(), Some(true));
        let e = Response::err("usage", "try .help\n").to_wire();
        let v = crate::json::Json::parse(&e).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("usage"));
        assert_eq!(v.get("error").unwrap().as_str(), Some("try .help\n"));
    }

    #[test]
    fn stats_command_reports_the_cuboid_repo() {
        let mut c = ctx();
        let r = dispatch(&mut c, ".stats");
        assert!(r.ok, "{}", r.body);
        assert!(r.body.contains("cuboid repo:    0 cuboids"), "{}", r.body);
        dispatch(&mut c, QUERY);
        dispatch(&mut c, QUERY);
        let r = dispatch(&mut c, ".stats");
        let repo = r
            .body
            .lines()
            .find(|l| l.starts_with("cuboid repo:"))
            .unwrap();
        assert!(repo.contains("1 cuboids"), "{}", r.body);
        assert!(
            repo.contains("1 hits / 1 misses, 0 evictions"),
            "{}",
            r.body
        );
        for gone in [".repo", ".index", ".backend list", ".counters hash"] {
            let r = dispatch(&mut c, gone);
            assert_eq!(r.code.as_deref(), Some("usage"), "{gone}: {}", r.body);
        }
    }

    #[test]
    fn regex_queries_run() {
        let mut c = ctx();
        let q = r#"SELECT COUNT(*) FROM Event
            CLUSTER BY card-id AT individual, time AT day
            SEQUENCE BY time ASCENDING
            CUBOID BY REGEX (X, Y, .*, Y, X)
              WITH X AS location AT station, Y AS location AT station
              LEFT-MAXIMALITY;"#;
        let r = dispatch(&mut c, q);
        assert!(r.ok && r.body.contains("via regex/CB"), "{}", r.body);
        let r = dispatch(&mut c, ".history");
        assert!(r.body.contains("REGEX (X, Y, .*, Y, X)"), "{}", r.body);
        let r = dispatch(&mut c, &format!("EXPLAIN {q}"));
        assert!(!r.ok);
        assert!(r.body.contains("not supported for regex-template"));
    }
}
