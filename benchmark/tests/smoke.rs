//! `benchmark run --smoke`: all four workloads, both passes, at D = 2,000
//! with 2 s windows. Checks the output's shape — every named metric is
//! there, the answers were checked, the spans add up — not its numbers.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "explore_cold",
    "dashboard_hot",
    "drill_churn",
    "ingest_mixed",
];

fn names(spec: &Json, list: &str) -> Vec<String> {
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{name} is missing"))
}

#[test]
fn smoke() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--smoke", "--seed", "7"])
        .current_dir(root)
        .output()
        .expect("the benchmark starts");
    assert!(
        run.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let read = |path: &str| {
        std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let spec = Json::parse(&read("BENCHMARK.json")).expect("BENCHMARK.json");
    let listed: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(listed, WORKLOADS);
    let (gated, layers) = (names(&spec, "end_to_end"), names(&spec, "per_layer"));
    assert!(gated.iter().any(|n| n == "setup_s"));

    let results = Json::parse(&read("benchmark/out/result-seed7.json")).expect("result file");
    let results = results.as_arr().expect("one entry per workload");
    assert_eq!(results.len(), WORKLOADS.len());
    for (entry, workload) in results.iter().zip(WORKLOADS) {
        assert_eq!(entry.get("workload").and_then(Json::as_str), Some(workload));
        for (pass, listed) in [("timed", &gated), ("traced", &layers)] {
            let result = entry.get(pass).expect("pass");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            for name in listed {
                let v = metric(result, name);
                assert!(v.is_finite(), "{workload} {name}");
                if pass == "timed" {
                    assert!(v > 0.0, "{workload} {name} is gated, so never 0");
                }
            }
        }
        let header = entry
            .get("timed_context")
            .and_then(|c| c.get("header"))
            .expect("header");
        for key in [
            "git",
            "nproc",
            "seed",
            "oversubscribed",
            "server.workers",
            "engine.threads",
        ] {
            assert!(header.get(key).is_some(), "header lacks {key}");
        }
        let traced = entry.get("traced").expect("traced");
        assert!(metric(traced, "trace.unattributed_pct") < 5.0, "{workload}");

        // The spans: every statement has one root, and the children of a
        // root cover it up to `trace.unattributed_pct`.
        let mut root_ns = HashMap::new();
        let mut child_ns: HashMap<u64, f64> = HashMap::new();
        for line in read(&format!("benchmark/out/trace-{workload}.jsonl")).lines() {
            let span = Json::parse(line).expect("span");
            let num = |k: &str| span.get(k).and_then(Json::as_f64);
            let dur = num("end_ns").expect("end") - num("start_ns").expect("start");
            assert!(dur >= 0.0);
            match (num("parent"), span.get("name").and_then(Json::as_str)) {
                (None, Some("stmt")) => {
                    root_ns.insert(num("id").expect("id") as u64, dur);
                }
                (Some(parent), _) => *child_ns.entry(parent as u64).or_default() += dur,
                (None, _) => {} // a measurement beside the statement (the scratch WAL)
            }
        }
        assert_eq!(
            root_ns.len() as f64,
            metric(traced, "trace.stmts"),
            "{workload}"
        );
        let total: f64 = root_ns.values().sum();
        let covered: f64 = root_ns
            .keys()
            .map(|id| child_ns.get(id).copied().unwrap_or(0.0))
            .sum();
        let unattributed_pct = 100.0 * (total - covered) / total;
        assert!(
            (unattributed_pct - metric(traced, "trace.unattributed_pct")).abs() < 0.01,
            "{workload}: spans say {unattributed_pct} %"
        );
    }
    // What separates the workloads.
    let traced = |w: usize| results[w].get("traced").expect("traced");
    assert_eq!(
        metric(traced(1), "core.repo_hit_ratio"),
        1.0,
        "dashboard_hot is all hits"
    );
    assert!(
        metric(traced(0), "trace.engine_share_pct") > metric(traced(1), "trace.engine_share_pct")
    );
    assert!(metric(traced(3), "core.ingest_groups_extended") > 0.0);
    // Measured and printed, though `BENCHMARK.json` lists only what every
    // workload produces.
    let store_ms = results[3]
        .get("traced_context")
        .and_then(|c| c.get("measured"))
        .and_then(|m| m.get("core.store_ms"))
        .and_then(Json::as_f64);
    assert!(store_ms.expect("core.store_ms on ingest_mixed") > 0.0);
    assert!(!layers.iter().any(|n| n == "core.store_ms"));
    assert!(metric(traced(3), "wal_bytes_per_event") > 0.0);
}

#[test]
fn refuses_to_start_with_a_solap_variable_set() {
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "dashboard_hot"])
        .env("SOLAP_THREADS", "8")
        .output()
        .expect("the benchmark starts");
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("SOLAP_THREADS"));
}
