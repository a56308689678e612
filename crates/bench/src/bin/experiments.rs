//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run -p solap-bench --release --bin experiments -- all --scale 0.05
//! ```
//!
//! Experiments: `table1`, `fig16`, `qa-vary-l`, `qb`, `qc`, `vary-theta`,
//! `vary-i`, `subsequence`, `ablation`, `threads`, or `all`. `--scale s`
//! multiplies the paper's sequence counts `D` (1.0 = the paper's 100K–1M
//! sizes; default 0.05 finishes in a few minutes). End-to-end serving,
//! planning and ingest numbers come from the wire-level benchmark in
//! `benchmark/`, not from here.

use std::time::Instant;

use solap_bench::plans::{clickstream_plan, query_set_a, query_set_b, query_set_c, synthetic_spec};
use solap_bench::report::{format_comparison, format_cumulative};
use solap_bench::runner::run_plan;
use solap_core::{Engine, EngineConfig, Strategy};
use solap_datagen::{generate_clickstream, generate_synthetic, ClickstreamConfig, SyntheticConfig};
use solap_eventdb::EventDb;
use solap_pattern::{AggFunc, PatternKind, SumMode};

fn cfg(strategy: Strategy) -> EngineConfig {
    EngineConfig {
        strategy,
        ..Default::default()
    }
}

fn synthetic(i: usize, l: f64, theta: f64, d: usize, hierarchy: bool) -> EventDb {
    let cfg = SyntheticConfig {
        i,
        l,
        theta,
        d,
        seed: 42,
        hierarchy,
    };
    let t0 = Instant::now();
    let db = generate_synthetic(&cfg).expect("generator");
    println!(
        "dataset {}: {} events generated in {:.1}s",
        cfg.name(),
        db.len(),
        t0.elapsed().as_secs_f64()
    );
    db
}

fn compare(db: EventDb, plan: &solap_bench::plans::Plan) {
    let cb = run_plan(db.clone(), plan, cfg(Strategy::CounterBased), "CB").expect("CB run");
    let ii = run_plan(db, plan, cfg(Strategy::InvertedIndex), "II").expect("II run");
    println!("{}", format_comparison(&cb, &ii));
    println!("{}", format_cumulative(&cb));
    println!("{}", format_cumulative(&ii));
}

/// Table 1: the real-data (clickstream substitute) exploration Qa→Qb→Qc.
fn table1(scale: f64) {
    println!("=== Table 1: real-data experiment (clickstream substitute) ===");
    let sessions = ((50_524.0 * scale.max(0.02)) as usize).max(1_000);
    let db = generate_clickstream(&ClickstreamConfig {
        sessions,
        ..Default::default()
    })
    .expect("generator");
    println!("clickstream: {sessions} sessions, {} events", db.len());
    let plan = clickstream_plan(&db).expect("plan");
    compare(db, &plan);
}

/// Figure 16: QuerySet A, varying D ∈ {100K, 500K, 1000K} × scale.
fn fig16(scale: f64) {
    println!("=== Figure 16: QuerySet A, varying D (I100.L20.θ0.9.Dx) ===");
    for base in [100_000usize, 500_000, 1_000_000] {
        let d = ((base as f64) * scale) as usize;
        let db = synthetic(100, 20.0, 0.9, d.max(100), false);
        let plan = query_set_a(&db, PatternKind::Substring, 5).expect("plan");
        compare(db, &plan);
    }
}

/// QuerySet A varying L ∈ {10, 20, 40} at D = 500K × scale.
fn qa_vary_l(scale: f64) {
    println!("=== QuerySet A: varying L (I100.Lx.θ0.9.D500K) ===");
    let d = ((500_000.0 * scale) as usize).max(100);
    for l in [10.0, 20.0, 40.0] {
        let db = synthetic(100, l, 0.9, d, false);
        let plan = query_set_a(&db, PatternKind::Substring, 5).expect("plan");
        compare(db, &plan);
    }
}

/// QuerySet B: P-ROLL-UP / P-DRILL-DOWN with the 3-level hierarchy,
/// varying D and L.
fn qb(scale: f64) {
    println!("=== QuerySet B: P-ROLL-UP / P-DRILL-DOWN (3-level hierarchy) ===");
    println!("--- (a) varying D ---");
    for base in [100_000usize, 500_000] {
        let d = ((base as f64) * scale) as usize;
        let db = synthetic(100, 20.0, 0.9, d.max(100), true);
        let plan = query_set_b(&db).expect("plan");
        compare(db, &plan);
    }
    println!("--- (b) varying L ---");
    let d = ((200_000.0 * scale) as usize).max(100);
    for l in [10.0, 30.0] {
        let db = synthetic(100, l, 0.9, d, true);
        let plan = query_set_b(&db).expect("plan");
        compare(db, &plan);
    }
}

/// QuerySet C: the restricted template (X, Y, Y, X).
fn qc(scale: f64) {
    println!("=== QuerySet C: restricted template (X, Y, Y, X) ===");
    let d = ((200_000.0 * scale) as usize).max(100);
    let db = synthetic(100, 20.0, 0.9, d, true);
    let plan = query_set_c(&db).expect("plan");
    compare(db, &plan);
}

/// Varying the skew factor θ.
fn vary_theta(scale: f64) {
    println!("=== Varying skew θ (I100.L20.θx.D200K) ===");
    let d = ((200_000.0 * scale) as usize).max(100);
    for theta in [0.5, 0.9, 1.2] {
        let db = synthetic(100, 20.0, theta, d, false);
        let plan = query_set_a(&db, PatternKind::Substring, 4).expect("plan");
        compare(db, &plan);
    }
}

/// Varying the symbol domain I.
fn vary_i(scale: f64) {
    println!("=== Varying domain I (Ix.L20.θ0.9.D200K) ===");
    let d = ((200_000.0 * scale) as usize).max(100);
    for i in [50, 100, 200] {
        let db = synthetic(i, 20.0, 0.9, d, false);
        let plan = query_set_a(&db, PatternKind::Substring, 4).expect("plan");
        compare(db, &plan);
    }
}

/// Subsequence patterns (QuerySet A with SUBSEQUENCE, three queries).
fn subsequence(scale: f64) {
    println!("=== Subsequence patterns (QuerySet A, SUBSEQUENCE) ===");
    let d = ((100_000.0 * scale) as usize).max(100);
    let db = synthetic(100, 12.0, 0.9, d, false);
    let plan = query_set_a(&db, PatternKind::Subsequence, 3).expect("plan");
    compare(db, &plan);
}

/// Ablations of this implementation's design choices.
fn ablation(scale: f64) {
    let d = ((200_000.0 * scale) as usize).max(100);
    let db = synthetic(100, 20.0, 0.9, d, false);
    thread_scaling(scale);

    println!("=== Ablation: iceberg minimum support (§6) ===");
    let engine = Engine::new(db);
    let spec = synthetic_spec(&engine.db(), PatternKind::Substring, &["X", "Y"], 0).expect("spec");
    let full = engine.execute(&spec).expect("query");
    println!(
        "  min-support  cells (of {})  runtime(ms)",
        full.cuboid.len()
    );
    for ms in [0u64, 2, 10, 100, 1000] {
        let sliced = spec.clone().with_min_support(ms);
        let out = engine.execute(&sliced).expect("query");
        println!(
            "  {:>11}  {:>14}  {:>10.1}",
            ms,
            out.cuboid.len(),
            out.stats.elapsed.as_secs_f64() * 1000.0
        );
    }
}

/// Thread scaling of parallel construction on the §5.2 synthetic workload:
/// the `(X, Y)` substring query under CB COUNT, CB SUM and the II path
/// (base-index build sharded by sid range) at 1/2/4/8 worker threads.
fn thread_scaling(scale: f64) {
    let d = ((200_000.0 * scale) as usize).max(100);
    println!("=== Thread scaling: parallel construction (I=100, L=20, θ=0.9, D={d}) ===");
    let db = synthetic(100, 20.0, 0.9, d, false);
    let pos = db.attr("pos").expect("pos attr");
    let rows: [(&str, Strategy, Option<AggFunc>); 3] = [
        ("CB COUNT", Strategy::CounterBased, None),
        (
            "CB SUM",
            Strategy::CounterBased,
            Some(AggFunc::Sum(pos, SumMode::AllEvents)),
        ),
        ("II COUNT", Strategy::InvertedIndex, None),
    ];
    println!(
        "  {:<9} {:>9} {:>9} {:>9} {:>9}   ms for (X, Y) substring; speedup vs t=1 in ()",
        "query", "t=1", "t=2", "t=4", "t=8"
    );
    for (label, strategy, agg) in rows {
        let mut line = format!("  {label:<9}");
        let mut baseline_ms = 0.0f64;
        for threads in [1usize, 2, 4, 8] {
            // Best of two runs on FRESH engines (so the index store and
            // sequence cache can't turn the repeat into a cache hit).
            let ms = (0..2)
                .map(|_| {
                    let engine = Engine::builder(db.clone())
                        .strategy(strategy)
                        .threads(threads)
                        .use_cuboid_repo(false)
                        .build();
                    let mut spec =
                        synthetic_spec(&engine.db(), PatternKind::Substring, &["X", "Y"], 0)
                            .expect("spec");
                    if let Some(a) = agg {
                        spec = spec.with_agg(a);
                    }
                    engine
                        .execute(&spec)
                        .expect("query")
                        .stats
                        .elapsed
                        .as_secs_f64()
                        * 1000.0
                })
                .fold(f64::INFINITY, f64::min);
            if threads == 1 {
                baseline_ms = ms;
            }
            line.push_str(&format!(" {:>5.1} ({:>3.1}x)", ms, baseline_ms / ms));
        }
        println!("{line}");
    }
}

fn main() {
    // Arm SOLAP_FAILPOINTS before any measurement code runs: parts of the
    // harness touch eventdb/index paths without constructing an `Engine`,
    // so the builder's own seeding cannot be relied on here.
    solap_eventdb::failpoint::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.05f64;
    let mut which: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a number");
            }
            other => which.push(other.to_owned()),
        }
    }
    if which.is_empty() {
        which.push("all".into());
    }
    let t0 = Instant::now();
    for exp in &which {
        match exp.as_str() {
            "table1" => table1(scale),
            "fig16" => fig16(scale),
            "qa-vary-l" => qa_vary_l(scale),
            "qb" => qb(scale),
            "qc" => qc(scale),
            "vary-theta" => vary_theta(scale),
            "vary-i" => vary_i(scale),
            "subsequence" => subsequence(scale),
            "ablation" => ablation(scale),
            "threads" => thread_scaling(scale),
            "all" => {
                table1(scale);
                fig16(scale);
                qa_vary_l(scale);
                qb(scale);
                qc(scale);
                vary_theta(scale);
                vary_i(scale);
                subsequence(scale);
                ablation(scale);
            }
            other => {
                eprintln!(
                    "unknown experiment `{other}` — table1|fig16|qa-vary-l|qb|qc|vary-theta|vary-i|subsequence|ablation|threads|all"
                );
                std::process::exit(2);
            }
        }
    }
    println!(
        "\nall requested experiments finished in {:.1}s (scale {scale})",
        t0.elapsed().as_secs_f64()
    );
}
