//! # solap-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (§5):
//!
//! * **Table 1** — the real-data exploration Qa → Qb → Qc on the
//!   clickstream substitute, CB vs II, reporting runtime, sequences
//!   scanned and index size.
//! * **Figure 16** — QuerySet A (iterative slice + APPEND) over synthetic
//!   data, varying the number of sequences `D`, with cumulative runtimes
//!   and cumulative sequences scanned.
//! * The summarized experiments: QuerySet A varying `L`, QuerySet B
//!   (P-ROLL-UP / P-DRILL-DOWN with the 3-level hierarchy) varying `D` and
//!   `L`, QuerySet C (restricted template `(X, Y, Y, X)`), varying `θ`,
//!   varying `I`, and subsequence patterns.
//! * **Ablations** this reproduction adds: iceberg thresholds and
//!   parallel construction.
//!
//! Run `cargo run -p solap-bench --release --bin experiments -- all` to
//! regenerate everything (use `--scale` to shrink `D`; the default 0.05
//! finishes in minutes, `--scale 1` reproduces the paper's sizes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plans;
pub mod report;
pub mod runner;

pub use plans::{Plan, PreSlice, Step};
pub use report::format_comparison;
pub use runner::{run_plan, RunReport, StepReport};
