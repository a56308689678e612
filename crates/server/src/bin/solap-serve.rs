//! `solap-serve` — boot a multi-client S-OLAP server.
//!
//! ```text
//! $ solap-serve --gen transit passengers=500 days=7
//! listening on 127.0.0.1:7878 (1024 connections, 16 in-flight)
//! ```
//!
//! The dataset comes from a generator (`--gen KIND [k=v …]`) or a saved
//! database (`--load PATH`); engine defaults follow the usual
//! environment knobs (`SOLAP_THREADS`, `SOLAP_TIMEOUT_MS`,
//! `SOLAP_BUDGET_CELLS`) and the serving knobs come from the flags below
//! (`--workers` defaults to the in-flight cap). The process serves until
//! killed; clients are never interrupted mid-response.

#![forbid(unsafe_code)]

use std::process::exit;
use std::sync::Arc;

use solap_core::Engine;
use solap_server::command::{generate, parse_kv};
use solap_server::server::{Server, ServerConfig};

const USAGE: &str = "usage: solap-serve [--addr HOST:PORT] [--max-conn N] [--max-inflight N]
                   [--workers N] [--pipeline N]
                   [--gen transit|clickstream|synthetic [k=v …]] [--load PATH] [--quiet]";

fn main() {
    // Arm SOLAP_FAILPOINTS at process entry, before dataset generation
    // (which has no `Engine` and therefore no builder-driven seeding).
    solap_eventdb::failpoint::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig::default();
    let mut gen_kind: Option<String> = None;
    let mut gen_opts: Vec<String> = Vec::new();
    let mut load_path: Option<String> = None;
    let mut quiet = false;

    let mut i = 0;
    while let Some(arg) = args.get(i) {
        let need_value = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                let flag = args.get(i).map(String::as_str).unwrap_or_default();
                eprintln!("{flag} needs a value\n{USAGE}");
                exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => {
                config.addr = need_value(i).to_owned();
                i += 2;
            }
            "--max-conn" => {
                config.max_conn = parse_count(need_value(i), "--max-conn");
                i += 2;
            }
            "--max-inflight" => {
                config.max_inflight = parse_count(need_value(i), "--max-inflight");
                i += 2;
            }
            "--workers" => {
                config.workers = parse_count(need_value(i), "--workers");
                i += 2;
            }
            "--pipeline" => {
                config.pipeline_depth = parse_count(need_value(i), "--pipeline");
                i += 2;
            }
            "--gen" => {
                gen_kind = Some(need_value(i).to_owned());
                i += 2;
                // Everything up to the next flag is a k=v generator option.
                while let Some(opt) = args
                    .get(i)
                    .filter(|a| a.contains('=') && !a.starts_with("--"))
                {
                    gen_opts.push(opt.clone());
                    i += 1;
                }
            }
            "--load" => {
                load_path = Some(need_value(i).to_owned());
                i += 2;
            }
            "--quiet" => {
                quiet = true;
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                exit(2);
            }
        }
    }

    let db = match (&load_path, &gen_kind) {
        (Some(_), Some(_)) => {
            eprintln!("--load and --gen are mutually exclusive\n{USAGE}");
            exit(2);
        }
        (Some(path), None) => solap_eventdb::persist::load_from_path(path).unwrap_or_else(|e| {
            eprintln!("cannot load {path}: {e}");
            exit(1);
        }),
        (None, kind) => {
            let kind = kind.as_deref().unwrap_or("transit");
            let refs: Vec<&str> = gen_opts.iter().map(String::as_str).collect();
            let kv = parse_kv(&refs).unwrap_or_else(|e| {
                eprintln!("{}", e.message());
                exit(2);
            });
            generate(kind, &kv).unwrap_or_else(|e| {
                eprintln!("{}", e.message());
                exit(1);
            })
        }
    };

    let engine = Arc::new(Engine::builder(db).build());
    let server = Server::bind(engine, config.clone()).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", config.addr);
        exit(1);
    });
    if !quiet {
        // The bench and CI scripts parse this line for the bound port.
        println!(
            "listening on {} ({} connections, {} in-flight)",
            server.local_addr(),
            config.max_conn,
            config.max_inflight
        );
    }
    if let Err(e) = server.serve() {
        eprintln!("server error: {e}");
        exit(1);
    }
}

fn parse_count(value: &str, flag: &str) -> usize {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("{flag} needs a positive integer, got `{value}`\n{USAGE}");
            exit(2);
        }
    }
}
