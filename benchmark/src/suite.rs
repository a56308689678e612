//! The commands that run many passes: each pass is a child process of
//! this same executable, so peak memory and the program's process-wide
//! counters are per workload and per pass.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::bench::OUT_DIR;
use crate::json::Json;
use crate::metrics::{Def, LAYER, SPAN_METRICS, WIRE};
use crate::spec::{self, Spec};
use crate::workload::Workload;
use crate::Args;

/// The largest bound the contract allows; `setup_s` gets it.
const MAX_BOUND: f64 = 0.25;
const MIN_BOUND: f64 = 0.10;
/// A metric whose quartile spread exceeds this on any workload is not
/// gated: even the largest bound would be less than two spreads away.
const MAX_SPREAD: f64 = 0.125;
/// The replay's exact counts: equal between two runs of the same code
/// and seed as long as the planner makes the same choices.
const EXACT_COUNTS: [&str; 6] = [
    "trace.stmts",
    "eventdb.events_scanned",
    "eventdb.sequences_scanned",
    "pattern.match_windows",
    "pattern.assignments",
    "core.cells_materialized",
];

/// One pass in a child process: (context line, result line).
fn pass(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} trace {}: {}",
            w.name(),
            trace as u8,
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = lines.next().ok_or("no result line")?;
    let context = lines.next().ok_or("no context line")?;
    Ok((Json::parse(context)?, Json::parse(result)?))
}

fn value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn common(args: &Args, default_runs: usize) -> Result<(usize, f64, bool), String> {
    args.known(&["seed", "seconds", "runs", "smoke"])?;
    let smoke = args.get::<u8>("smoke")?.is_some();
    let seconds = match args.get("seconds")? {
        Some(s) => s,
        None if smoke => 2.0,
        None => Spec::load()?.run_seconds,
    };
    Ok((args.get("runs")?.unwrap_or(default_runs), seconds, smoke))
}

/// `run`: every workload, timed pass then traced pass, every metric by
/// name with its unit.
pub fn run(args: &Args) -> Result<(), String> {
    let (_, seconds, smoke) = common(args, 1)?;
    let seed = args.get("seed")?.unwrap_or(42);
    let spec = Spec::load()?;
    let mut all = Vec::new();
    for w in Workload::ALL {
        let (context, timed) = pass(w, seed, seconds, false, smoke)?;
        let (traced_context, traced) = pass(w, seed, seconds, true, smoke)?;
        println!("\n== {} (seed {seed}, {seconds} s window) ==", w.name());
        if let Some(h) = context.get("header") {
            println!("   {}", h.compact());
        }
        let samples = |c: &Json, k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let checked = if context.get("recovery_checked").and_then(Json::as_bool) == Some(true) {
            "final answers and event count checked against the reopened WAL".to_owned()
        } else {
            format!(
                "{} of {} segments checked against the reference",
                samples(&context, "segments_checked_against_reference"),
                samples(&context, "segments_seen")
            )
        };
        println!(
            "   attempted {} failed {} · samples: {} statements, {} navigations, {} stores · {checked}",
            timed.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
            timed.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
            samples(&context, "samples_stmt"),
            samples(&context, "samples_nav"),
            samples(&context, "samples_store"),
        );
        println!("   end to end (gated):");
        for (def, bound) in &spec.end_to_end {
            let v = value(&timed, def.0).ok_or(format!("{} missing", def.0))?;
            println!(
                "     {:<30} {:>14.4} {:<6} (bound {:.0} %)",
                def.0,
                v,
                def.1,
                bound * 100.0
            );
        }
        println!("   not gated, and per layer (traced pass; — = does not exist on this workload):");
        let measured = |name: &str| {
            traced_context
                .get("measured")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
        };
        let stmt_ms = measured("trace.stmt_ms").unwrap_or(0.0);
        let gated = |name: &str| spec.end_to_end.iter().any(|(g, _)| g.0 == name);
        for def in WIRE.iter().chain(&LAYER).filter(|d| !gated(d.0)) {
            let Some(v) = measured(def.0) else {
                println!("     {:<30} {:>14} {:<6}", def.0, "—", def.1);
                continue;
            };
            // (The scratch WAL append runs beside the statement, not in it.)
            let in_stmt = |m: &str| m == def.0 && m != "eventdb.wal_append_ms";
            let share = if SPAN_METRICS.iter().any(|(_, m)| in_stmt(m)) && stmt_ms > 0.0 {
                format!("{:>5.1} % of trace.stmt_ms", 100.0 * v / stmt_ms)
            } else {
                String::new()
            };
            println!("     {:<30} {:>14.4} {:<6} {share}", def.0, v, def.1);
        }
        all.push(Json::Obj(vec![
            ("workload".to_owned(), Json::Str(w.name().to_owned())),
            ("timed_context".to_owned(), context),
            ("timed".to_owned(), timed),
            ("traced_context".to_owned(), traced_context),
            ("traced".to_owned(), traced),
        ]));
    }
    let path = format!("{OUT_DIR}/result-seed{seed}.json");
    std::fs::write(&path, Json::Arr(all).pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("\nwritten: {path}, {OUT_DIR}/trace-<workload>.jsonl");
    Ok(())
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the driver's rule), as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let m = v.len();
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / crate::util::median(&mut v)
}

/// `sets` sets of `runs` timed passes per workload, seeds 1..=runs,
/// interleaved so that drift of the machine hits every set alike.
/// Returns per set, per workload, per wire metric: one value per seed.
type Samples = BTreeMap<(&'static str, &'static str), Vec<f64>>;
fn timed_sets(sets: usize, runs: usize, seconds: f64, smoke: bool) -> Result<Vec<Samples>, String> {
    let mut out = vec![Samples::new(); sets];
    for seed in 1..=runs as u64 {
        for w in Workload::ALL {
            for set in out.iter_mut() {
                let (context, _) = pass(w, seed, seconds, false, smoke)?;
                for def in WIRE {
                    if let Some(v) = context
                        .get("measured")
                        .and_then(|m| m.get(def.0))
                        .and_then(Json::as_f64)
                    {
                        set.entry((w.name(), def.0)).or_default().push(v);
                    }
                }
                eprintln!("  seed {seed} {} done", w.name());
            }
        }
    }
    Ok(out)
}

/// `calibrate`: bounds from measurement. A wire metric is gated when it
/// exists on every workload and its spread over the seeds — the driver's
/// measure — stays within [`MAX_SPREAD`] on each of them; its bound is
/// then three times its worst spread, at least 10 % and at most 25 %.
/// Every other wire metric is demoted to the unbounded list, and why is
/// recorded in `benchmark/calibration.json`.
pub fn calibrate(args: &Args) -> Result<(), String> {
    if Spec::load().is_err() {
        // First calibration: a provisional file for the passes to load.
        let seconds = args
            .get("seconds")?
            .ok_or("no BENCHMARK.json yet: give --seconds")?;
        let provisional = Spec::new(seconds, vec![(WIRE[0], MAX_BOUND)]);
        std::fs::write(spec::PATH, provisional.to_json().pretty()).map_err(|e| e.to_string())?;
    }
    let (runs, seconds, smoke) = common(args, 10)?;
    let samples = timed_sets(1, runs, seconds, smoke)?.remove(0);
    let mut gated: Vec<(Def, f64)> = Vec::new();
    let mut record = Vec::new();
    for def in WIRE {
        let spreads: Vec<(&str, Option<f64>)> = Workload::ALL
            .iter()
            .map(|w| {
                let s = samples
                    .get(&(w.name(), def.0))
                    .filter(|v| v.len() == runs && v.iter().all(|x| *x > 0.0))
                    .map(|v| spread(v));
                (w.name(), s)
            })
            .collect();
        let worst = spreads
            .iter()
            .map(|(_, s)| s.unwrap_or(f64::INFINITY))
            .fold(0.0, f64::max);
        let decision = if def.0 == "setup_s" {
            gated.push((def, MAX_BOUND));
            "gated at the largest bound (its spread is exempt by the contract)".to_owned()
        } else if worst.is_infinite() {
            "demoted: does not exist (or reads 0) on every workload".to_owned()
        } else if worst > MAX_SPREAD {
            format!(
                "demoted: spread {:.1} % of the median on its worst workload",
                worst * 100.0
            )
        } else {
            let bound = ((3.0 * worst).clamp(MIN_BOUND, MAX_BOUND) * 100.0).ceil() / 100.0;
            gated.push((def, bound));
            format!("gated, bound {:.0} %", bound * 100.0)
        };
        eprintln!("{:<22} {decision}", def.0);
        record.push(Json::Obj(vec![
            ("metric".to_owned(), Json::Str(def.0.to_owned())),
            ("decision".to_owned(), Json::Str(decision)),
            (
                "spread_by_workload".to_owned(),
                Json::Obj(
                    spreads
                        .iter()
                        .map(|(w, s)| ((*w).to_owned(), s.map_or(Json::Null, Json::Num)))
                        .collect(),
                ),
            ),
        ]));
    }
    std::fs::write(spec::PATH, Spec::new(seconds, gated).to_json().pretty())
        .map_err(|e| e.to_string())?;
    let calibration = Json::Obj(vec![
        // This benchmark defines the measurement; it claims no gain.
        ("claim".to_owned(), Json::Null),
        ("runs_per_workload".to_owned(), Json::Num(runs as f64)),
        ("seconds".to_owned(), Json::Num(seconds)),
        (
            "rule".to_owned(),
            Json::Str(
                "spread = (Q3-Q1)/median over the seeds, quartiles as statistics.quantiles(n=4); \
                 gated if it exists on every workload with spread <= 0.125 on each, \
                 bound = clamp(3 * worst spread, 0.10, 0.25); setup_s always at 0.25"
                    .to_owned(),
            ),
        ),
        ("metrics".to_owned(), Json::Arr(record)),
    ]);
    std::fs::write("benchmark/calibration.json", calibration.pretty())
        .map_err(|e| e.to_string())?;
    println!("written: {} and benchmark/calibration.json", spec::PATH);
    Ok(())
}

/// `repeat`: two sets of runs of the same code. Fails if the medians of a
/// gated metric differ by more than its bound on any workload, or if the
/// traced replay's exact counts differ between two runs of one seed.
pub fn repeat(args: &Args) -> Result<(), String> {
    let (runs, seconds, smoke) = common(args, 10)?;
    let spec = Spec::load()?;
    let sets = timed_sets(2, runs, seconds, smoke)?;
    let mut failures = Vec::new();
    for w in Workload::ALL {
        for (def, bound) in &spec.end_to_end {
            let med = |set: &Samples| crate::util::median(&mut set[&(w.name(), def.0)].clone());
            let (a, b) = (med(&sets[0]), med(&sets[1]));
            let gap = (a - b).abs() / a;
            let verdict = if gap > *bound { "DIFFERS" } else { "agrees" };
            println!(
                "{:<14} {:<14} {a:>12.4} {b:>12.4} {:<5} gap {:>5.1} % of bound {:>3.0} %  {verdict}",
                w.name(),
                def.0,
                def.1,
                gap * 100.0,
                bound * 100.0
            );
            if gap > *bound {
                failures.push(format!("{} {}", w.name(), def.0));
            }
        }
        let traced: Vec<Json> = (0..2)
            .map(|_| pass(w, 1, seconds, true, smoke).map(|(_, r)| r))
            .collect::<Result<_, _>>()?;
        for name in EXACT_COUNTS {
            let (a, b) = (value(&traced[0], name), value(&traced[1], name));
            let (a, b) = (a.unwrap_or(f64::NAN), b.unwrap_or(f64::NAN));
            println!("{:<14} {:<30} {a:>14} {b:>14}", w.name(), name);
            if a != b {
                failures.push(format!("{} {name} (exact count)", w.name()));
            }
        }
    }
    if failures.is_empty() {
        println!("repeat: the two sets agree");
        Ok(())
    } else {
        Err(format!("the two sets differ: {}", failures.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ENGINE_STAGES, NOT_ON_EVERY_WORKLOAD};

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn catalogue_is_consistent() {
        for (_, metric) in SPAN_METRICS {
            assert!(LAYER.iter().any(|d| d.0 == metric), "{metric}");
        }
        for stage in ENGINE_STAGES {
            assert!(SPAN_METRICS.iter().any(|(_, m)| *m == stage), "{stage}");
        }
        for name in EXACT_COUNTS {
            assert!(LAYER.iter().any(|d| d.0 == name), "{name}");
        }
        for name in NOT_ON_EVERY_WORKLOAD {
            assert!(crate::metrics::lookup(name).is_some(), "{name}");
        }
        let mut names: Vec<&str> = WIRE.iter().chain(&LAYER).map(|d| d.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WIRE.len() + LAYER.len(), "names are used once");
    }
}
