//! The repo's benchmark. See README.md beside this crate's Cargo.toml.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one pass (what the driver runs)
//! benchmark run       [--seed N] [--seconds S] [--smoke]    all workloads, both passes, one table
//! benchmark calibrate [--runs N] [--seconds S]              measure spreads, write the bounds
//! benchmark repeat    [--runs N] [--seconds S]              two sets of the same code must agree
//! ```
//!
//! Run from the root of the repository (`BENCHMARK.json` is read from the
//! working directory, `benchmark/out/` is written under it).

mod bench;
mod client;
mod json;
mod metrics;
mod spec;
mod suite;
mod sut;
mod trace;
mod util;
mod workload;

use bench::Config;
use json::Json;
use workload::Workload;

/// `--name value` pairs after an optional subcommand.
pub struct Args {
    command: Option<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut raw = raw.peekable();
        let command = raw.next_if(|a| !a.starts_with("--"));
        let mut flags = Vec::new();
        while let Some(flag) = raw.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or(format!("expected a --flag, got `{flag}`"))?
                .to_owned();
            // `--smoke` stands alone; every other flag takes a value.
            let value = if name == "smoke" {
                "1".to_owned()
            } else {
                raw.next().ok_or(format!("--{name} needs a value"))?
            };
            flags.push((name, value));
        }
        Ok(Args { command, flags })
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| {
                v.parse()
                    .map_err(|_| format!("bad value for --{name}: {v}"))
            })
            .transpose()
    }

    pub fn known(&self, names: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !names.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

/// What a result depends on besides the code: written into every output.
fn header(cfg: &Config) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = bench::CLIENTS as usize + sut::WORKERS;
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    let d = cfg.workload.sequences(cfg.smoke);
    let mut h = vec![
        (
            "workload".to_owned(),
            Json::Str(cfg.workload.name().to_owned()),
        ),
        ("seed".to_owned(), Json::Num(cfg.seed as f64)),
        ("seconds".to_owned(), Json::Num(cfg.seconds)),
        ("trace".to_owned(), Json::Bool(cfg.trace)),
        ("git".to_owned(), Json::Str(git)),
        ("nproc".to_owned(), Json::Num(nproc as f64)),
        (
            "client_threads".to_owned(),
            Json::Num(bench::CLIENTS as f64),
        ),
        (
            "load".to_owned(),
            Json::Str("closed loop, one statement in flight per connection".to_owned()),
        ),
        // The label every row carries whose client + worker threads
        // exceed the cores they run on.
        ("oversubscribed".to_owned(), Json::Bool(threads > nproc)),
        ("dataset_sequences".to_owned(), Json::Num(d as f64)),
    ];
    h.extend(
        sut::pinned()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Json::Str(v))),
    );
    Json::Obj(h)
}

/// One pass in this process; prints the context line, then — last — the
/// result line.
fn one_pass(args: &Args) -> Result<(), String> {
    args.known(&["workload", "seed", "seconds", "trace", "smoke"])?;
    let spec = spec::Spec::load()?;
    let name: String = args.get("workload")?.ok_or("--workload is required")?;
    let cfg = Config {
        workload: Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?,
        seed: args.get("seed")?.unwrap_or(42),
        seconds: args.get("seconds")?.unwrap_or(spec.run_seconds),
        trace: match args.get::<u8>("trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace is 0 or 1, got {other}")),
        },
        smoke: args.get::<u8>("smoke")?.is_some(),
    };
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let outcome = bench::run(&cfg)?;
    let mut context = vec![("header".to_owned(), header(&cfg))];
    context.extend(
        outcome
            .info
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone())),
    );
    // Everything measured, listed in `BENCHMARK.json` or not: `calibrate`
    // and `run` read it from here.
    let measured = outcome
        .metrics
        .iter()
        .map(|(n, v)| ((*n).to_owned(), Json::Num(*v)))
        .collect();
    context.push(("measured".to_owned(), Json::Obj(measured)));
    let problems = outcome.problems.iter().cloned().map(Json::Str).collect();
    context.push(("problems".to_owned(), Json::Arr(problems)));
    let line = outcome.result_line(&spec.listed(cfg.trace), cfg.trace)?;
    if !outcome.correct() {
        // A wrong or failed answer voids the numbers: say why, print none.
        return Err(format!("incorrect run: {}", Json::Obj(context).compact()));
    }
    println!("{}", Json::Obj(context).compact());
    println!("{}", line.compact());
    Ok(())
}

fn main() {
    // Hermetic: the program reads two dozen SOLAP_* variables, some of
    // them deep inside `EngineConfig::default()`. None may leak in.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("SOLAP_"))
    {
        eprintln!(
            "benchmark: refusing to start: {} is set; the benchmark pins its configuration",
            name.to_string_lossy()
        );
        std::process::exit(2);
    }
    let result =
        Args::parse(std::env::args().skip(1)).and_then(|args| match args.command.as_deref() {
            None => one_pass(&args),
            Some("run") => suite::run(&args),
            Some("calibrate") => suite::calibrate(&args),
            Some("repeat") => suite::repeat(&args),
            Some(other) => Err(format!(
                "unknown command `{other}` (run | calibrate | repeat)"
            )),
        });
    if let Err(e) = result {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}
