//! `solap` — an interactive S-OLAP REPL.
//!
//! The user-interface layer of the prototype architecture (Figure 6):
//! generate or load data, pose S-cuboid queries in the Figure-3 language,
//! and navigate with the six S-OLAP operations.
//!
//! ```text
//! $ cargo run -p solap-cli
//! solap> .gen transit passengers=500 days=7
//! solap> SELECT COUNT(*) FROM Event
//!    ...> CLUSTER BY card-id AT individual, time AT day
//!    ...> SEQUENCE BY time ASCENDING
//!    ...> CUBOID BY SUBSTRING (X, Y)
//!    ...>   WITH X AS location AT station, Y AS location AT station
//!    ...>   LEFT-MAXIMALITY (x1, y1)
//!    ...>   WITH x1.action = "in" AND y1.action = "out";
//! solap> .op append Z location station
//! solap> .op prollup Z
//! solap> .show 20
//! ```
//!
//! Every statement runs through the shared dispatch layer in
//! `solap-server` — the same code path the wire protocol executes — so
//! the REPL, `--eval` scripts and server sessions behave identically.
//! Engine lifecycle (`.gen`, `.save`, `.load`) is the only CLI-local
//! surface: those commands replace or persist the engine itself.
//!
//! Modes:
//!
//! * `solap --eval 'SCRIPT'` runs a newline-separated script through the
//!   same loop; errors are printed (never abort the run) and the process
//!   exits nonzero if any line failed.
//! * `solap --connect HOST:PORT` attaches the REPL (or `--eval`) to a
//!   running `solap-serve` instance instead of an in-process engine.
//! * `--json` prints each statement's structured response as one JSON
//!   line (`{"ok":…,"code":…,…}`) with stable machine-readable error
//!   codes, for scripting.

#![forbid(unsafe_code)]

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use solap_core::Engine;
use solap_server::client::Client;
use solap_server::command::{generate, help_text, parse_kv};
use solap_server::dispatch::{dispatch, Response, SessionCtx};

/// Where statements execute: an in-process engine (local sessions, the
/// default) or a `solap-serve` instance over the wire.
enum Backend {
    Local(Box<Option<SessionCtx>>),
    Remote(Client),
}

struct Repl {
    backend: Backend,
    /// Print structured JSON lines instead of rendered text.
    json: bool,
    /// Statements that reported an error (drives the `--eval` exit code).
    errors: usize,
}

impl Repl {
    fn local() -> Self {
        Repl {
            backend: Backend::Local(Box::new(None)),
            json: false,
            errors: 0,
        }
    }

    fn remote(client: Client) -> Self {
        Repl {
            backend: Backend::Remote(client),
            json: false,
            errors: 0,
        }
    }

    /// Executes one statement and prints its response. Returns `false`
    /// when the surface should close (`.quit`). `Err` is transport-level
    /// only (a lost server connection), never a statement failure.
    fn handle(&mut self, line: &str, out: &mut impl Write) -> io::Result<bool> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(true);
        }
        let (raw, response) = match &mut self.backend {
            Backend::Remote(client) => {
                let (raw, wire) = client.request_raw(line)?;
                let response = Response {
                    ok: wire.ok,
                    code: wire.code,
                    body: wire.body,
                    profile_json: wire.profile.map(|p| p.render()),
                    plan_json: wire.plan.map(|p| p.render()),
                    quit: wire.quit,
                };
                (Some(raw), response)
            }
            Backend::Local(slot) => (None, eval_local(slot, line)),
        };
        if !response.ok {
            self.errors += 1;
        }
        if self.json {
            // Relay the server's line verbatim when there is one, so the
            // output is exactly what the wire carries.
            writeln!(out, "{}", raw.unwrap_or_else(|| response.to_wire()))?;
        } else if response.ok {
            write!(out, "{}", response.body)?;
        } else {
            writeln!(out, "error: {}", response.body)?;
        }
        Ok(!response.quit)
    }
}

/// Runs a statement against the in-process engine, intercepting the
/// engine-lifecycle commands that the shared dispatch layer deliberately
/// rejects (they replace or persist the engine itself).
fn eval_local(slot: &mut Option<SessionCtx>, line: &str) -> Response {
    if let Some(rest) = line.strip_prefix('.') {
        let mut parts = rest.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        match cmd {
            "gen" => return gen_cmd(slot, &args),
            "load" => return load_cmd(slot, &args),
            "save" => return save_cmd(slot, &args),
            // Help and quit must work before any dataset exists.
            "help" if slot.is_none() => return Response::ok(help_text()),
            "quit" | "exit" if slot.is_none() => {
                let mut r = Response::ok("");
                r.quit = true;
                return r;
            }
            _ => {}
        }
    }
    match slot {
        Some(ctx) => dispatch(ctx, line),
        None => Response::err("usage", "no dataset loaded — try `.gen transit`"),
    }
}

/// Installs a fresh engine in the REPL, carrying surface state (the
/// `.profile` toggle) over from the session it replaces.
fn install(slot: &mut Option<SessionCtx>, db: solap_eventdb::EventDb) {
    let show_profile = slot.as_ref().is_some_and(|c| c.show_profile);
    let mut ctx = SessionCtx::new(Arc::new(Engine::builder(db).build()));
    ctx.show_profile = show_profile;
    *slot = Some(ctx);
}

fn gen_cmd(slot: &mut Option<SessionCtx>, args: &[&str]) -> Response {
    let Some(kind) = args.first() else {
        return Response::err("usage", "usage: .gen transit|clickstream|synthetic [k=v …]");
    };
    match parse_kv(&args[1..]).and_then(|kv| generate(kind, &kv)) {
        Ok(db) => {
            let n = db.len();
            install(slot, db);
            Response::ok(format!("generated {n} events\n"))
        }
        Err(e) => Response::err(e.code(), e.message()),
    }
}

fn load_cmd(slot: &mut Option<SessionCtx>, args: &[&str]) -> Response {
    let Some(path) = args.first() else {
        return Response::err("usage", "usage: .load PATH");
    };
    match solap_eventdb::persist::load_from_path(path) {
        Ok(db) => {
            let n = db.len();
            install(slot, db);
            Response::ok(format!("loaded {n} events from {path}\n"))
        }
        Err(e) => Response::err(e.code(), e.to_string()),
    }
}

fn save_cmd(slot: &mut Option<SessionCtx>, args: &[&str]) -> Response {
    let Some(path) = args.first() else {
        return Response::err("usage", "usage: .save PATH");
    };
    let Some(ctx) = slot else {
        return Response::err("usage", "no dataset loaded — try `.gen transit`");
    };
    let db = ctx.session().engine().db();
    match solap_eventdb::persist::save_to_path(&db, path) {
        Ok(()) => Response::ok(format!("saved {} events to {path}\n", db.len())),
        Err(e) => Response::err(e.code(), e.to_string()),
    }
}

/// Feeds a multi-line script through the REPL, honouring the same
/// dot-command / `;`-terminated-query structure as interactive input. A
/// trailing query without `;` still runs. Returns `Ok(false)` if the
/// script quit early.
fn run_script(repl: &mut Repl, script: &str, out: &mut impl Write) -> io::Result<bool> {
    let mut buffer = String::new();
    for line in script.lines() {
        let trimmed = line.trim();
        if buffer.is_empty() && (trimmed.starts_with('.') || trimmed.is_empty()) {
            if !repl.handle(trimmed, out)? {
                return Ok(false);
            }
            continue;
        }
        buffer.push_str(line);
        buffer.push('\n');
        if trimmed.ends_with(';') {
            let text = std::mem::take(&mut buffer);
            if !repl.handle(&text, out)? {
                return Ok(false);
            }
        }
    }
    if !buffer.trim().is_empty() {
        repl.handle(&buffer, out)?;
    }
    Ok(true)
}

fn main() -> io::Result<()> {
    // Arm SOLAP_FAILPOINTS at process entry: a `--connect` REPL never
    // constructs a local `Engine`, so the builder seeding never runs.
    solap_eventdb::failpoint::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let flag_value = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let mut repl = match flag_value("--connect") {
        Some(addr) => match Client::connect(addr.as_str()) {
            Ok(client) => Repl::remote(client),
            Err(e) => {
                eprintln!("cannot connect to {addr}: {e}");
                std::process::exit(1);
            }
        },
        None => Repl::local(),
    };
    repl.json = json;

    if args.iter().any(|a| a == "--eval") {
        // Non-interactive mode: run the script, print errors instead of
        // aborting, and exit nonzero if anything failed.
        let Some(script) = flag_value("--eval") else {
            eprintln!("usage: solap [--connect HOST:PORT] [--json] --eval 'SCRIPT'");
            std::process::exit(2);
        };
        let mut stdout = io::stdout();
        run_script(&mut repl, script, &mut stdout)?;
        stdout.flush()?;
        if repl.errors > 0 {
            std::process::exit(1);
        }
        return Ok(());
    }

    let stdin = io::stdin();
    let mut stdout = io::stdout();
    if !json {
        writeln!(
            stdout,
            "S-OLAP — OLAP on sequence data (SIGMOD 2008 reproduction). Type `.help`."
        )?;
    }
    let mut buffer = String::new();
    loop {
        if !json {
            let prompt = if buffer.is_empty() {
                "solap> "
            } else {
                "   ...> "
            };
            write!(stdout, "{prompt}")?;
            stdout.flush()?;
        }
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim();
        if buffer.is_empty() && (trimmed.starts_with('.') || trimmed.is_empty()) {
            if !repl.handle(trimmed, &mut stdout)? {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if trimmed.ends_with(';') {
            let text = std::mem::take(&mut buffer);
            if !repl.handle(&text, &mut stdout)? {
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Repl {
        let mut repl = Repl::local();
        let mut out = Vec::new();
        repl.handle(".gen transit passengers=60 days=3", &mut out)
            .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("generated"));
        repl
    }

    fn ctx(repl: &Repl) -> &SessionCtx {
        match &repl.backend {
            Backend::Local(slot) => slot.as_ref().as_ref().expect("no local session"),
            _ => panic!("no local session"),
        }
    }

    const QUERY: &str = r#"SELECT COUNT(*) FROM Event
        CLUSTER BY card-id AT individual, time AT day
        SEQUENCE BY time ASCENDING
        CUBOID BY SUBSTRING (X, Y)
          WITH X AS location AT station, Y AS location AT station
          LEFT-MAXIMALITY (x1, y1)
          WITH x1.action = "in" AND y1.action = "out";"#;

    #[test]
    fn gen_query_and_ops_flow() {
        let mut repl = setup();
        let mut out = Vec::new();
        repl.handle(QUERY, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("cells via"), "{text}");
        let mut out = Vec::new();
        repl.handle(".op append Z location station", &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("APPEND"), "{text}");
        let mut out = Vec::new();
        repl.handle(".op detail", &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("DE-TAIL"));
        let mut out = Vec::new();
        repl.handle(".history", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("APPEND") && text.contains("DE-TAIL"));
        let mut out = Vec::new();
        repl.handle(".back", &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("back to:"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut repl = Repl::local();
        let mut out = Vec::new();
        assert!(repl.handle(".show", &mut out).unwrap());
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("error: no dataset"));
        let mut repl = setup();
        let mut out = Vec::new();
        repl.handle("SELECT BOGUS;", &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("error:"));
        let mut out = Vec::new();
        repl.handle(".op prollup Q", &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("error:"));
        assert_eq!(repl.errors, 2);
    }

    #[test]
    fn config_commands_are_session_scoped() {
        let mut repl = setup();
        for cmd in [".strategy cb", ".strategy ii", ".strategy auto"] {
            let mut out = Vec::new();
            repl.handle(cmd, &mut out).unwrap();
            assert!(out.is_empty(), "{cmd}: {}", String::from_utf8_lossy(&out));
        }
        let mut out = Vec::new();
        repl.handle(".threads 4", &mut out).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("worker threads: 4"));
        assert_eq!(ctx(&repl).session().config().threads, 4);
        // The engine's own defaults are untouched: the override lives on
        // the session, exactly as it would server-side.
        assert_ne!(
            ctx(&repl).session().engine().config().threads,
            0,
            "engine config remains valid"
        );
        let mut out = Vec::new();
        repl.handle(".strategy warp", &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("error"));
    }

    #[test]
    fn timeout_and_budget_commands() {
        let mut repl = setup();
        let mut out = Vec::new();
        repl.handle(".timeout 5000", &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("5000 ms"));
        assert_eq!(
            ctx(&repl).session().config().timeout,
            Some(std::time::Duration::from_millis(5000))
        );
        let mut out = Vec::new();
        repl.handle(".budget 100", &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("100 cells"));
        assert_eq!(ctx(&repl).session().config().budget_cells, Some(100));
        let mut out = Vec::new();
        repl.handle(".timeout 0", &mut out).unwrap();
        assert_eq!(ctx(&repl).session().config().timeout, None);
        let mut out = Vec::new();
        repl.handle(".budget 0", &mut out).unwrap();
        assert_eq!(ctx(&repl).session().config().budget_cells, None);
    }

    #[test]
    fn over_budget_query_reports_error_and_recovers() {
        let mut repl = setup();
        let mut out = Vec::new();
        repl.handle(".budget 1", &mut out).unwrap();
        let mut out = Vec::new();
        repl.handle(QUERY, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("error:") && text.contains("cells"), "{text}");
        let mut out = Vec::new();
        repl.handle(".budget 0", &mut out).unwrap();
        let mut out = Vec::new();
        repl.handle(QUERY, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("cells via"));
    }

    #[test]
    fn save_and_load_roundtrip() {
        let mut repl = setup();
        let path = std::env::temp_dir().join(format!("solap-cli-{}.db", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let mut out = Vec::new();
        repl.handle(&format!(".save {path_s}"), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("saved"));
        let mut out = Vec::new();
        repl.handle(&format!(".load {path_s}"), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("loaded"));
        std::fs::remove_file(&path).ok();
        // The loaded engine answers queries.
        let mut out = Vec::new();
        repl.handle(QUERY, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("cells via"));
    }

    #[test]
    fn help_and_quit_work_without_a_dataset() {
        let mut repl = Repl::local();
        let mut out = Vec::new();
        assert!(repl.handle(".help", &mut out).unwrap());
        assert!(String::from_utf8(out).unwrap().contains("commands:"));
        let mut out = Vec::new();
        assert!(!repl.handle(".quit", &mut out).unwrap());
    }

    #[test]
    fn json_mode_emits_wire_lines_with_codes() {
        let mut repl = setup();
        repl.json = true;
        let mut out = Vec::new();
        repl.handle("SELECT BOGUS;", &mut out).unwrap();
        let line = String::from_utf8(out).unwrap();
        let v = solap_server::json::Json::parse(line.trim()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("code").unwrap().as_str(), Some("parse"));
        assert_eq!(repl.errors, 1);
        let mut out = Vec::new();
        repl.handle(QUERY, &mut out).unwrap();
        let line = String::from_utf8(out).unwrap();
        let v = solap_server::json::Json::parse(line.trim()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert!(v
            .get("body")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("cells via"));
    }

    #[test]
    fn eval_scripts_report_errors_without_aborting() {
        // A clean script leaves the error counter at zero.
        let mut repl = Repl::local();
        let mut out = Vec::new();
        let script = format!(".gen transit passengers=60 days=3\n{QUERY}\n.show 5");
        assert!(run_script(&mut repl, &script, &mut out).unwrap());
        assert_eq!(repl.errors, 0, "{}", String::from_utf8_lossy(&out));
        // Malformed lines are reported, later lines still run, and the
        // counter drives a nonzero exit.
        let mut repl = Repl::local();
        let mut out = Vec::new();
        let script = ".gen transit passengers=60 days=3\nSELECT BOGUS;\n.schema";
        assert!(run_script(&mut repl, script, &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert_eq!(repl.errors, 1, "{text}");
        assert!(
            text.contains("error:") && text.contains("location"),
            "{text}"
        );
        // `.quit` stops the script early.
        let mut repl = Repl::local();
        let mut out = Vec::new();
        assert!(!run_script(&mut repl, ".quit\n.schema", &mut out).unwrap());
    }

    #[test]
    fn remote_backend_round_trips_through_a_server() {
        use solap_server::server::{Server, ServerConfig};
        let db = generate(
            "transit",
            &std::collections::HashMap::from([
                ("passengers".to_owned(), "60".to_owned()),
                ("days".to_owned(), "3".to_owned()),
            ]),
        )
        .unwrap();
        let engine = Arc::new(Engine::builder(db).build());
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        };
        let (handle, join) = Server::spawn(engine, config).unwrap();
        let client = Client::connect(handle.local_addr()).unwrap();
        let mut repl = Repl::remote(client);

        let mut out = Vec::new();
        repl.handle(QUERY, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("cells via"));
        let mut out = Vec::new();
        repl.handle(".op append Z location station", &mut out)
            .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("APPEND"));
        // Lifecycle commands are typed `unsupported` errors over the wire.
        let mut out = Vec::new();
        repl.handle(".gen transit", &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("error:"));
        // `.quit` closes the session loop.
        let mut out = Vec::new();
        assert!(!repl.handle(".quit", &mut out).unwrap());

        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}
