//! `solint` — workspace static analysis for the S-OLAP engine.
//!
//! The engine's load-bearing invariants (PRs 1–3) are conventions a
//! compiler cannot see: every hot loop must tick the [`QueryGovernor`],
//! every failpoint / counter / knob must be cataloged in the docs, atomic
//! orderings must be deliberate, hot paths must not panic. `solint` makes
//! those conventions machine-checked: a from-scratch lexer + item scanner
//! (no external dependencies — crates.io is unreachable in this
//! environment, consistent with the `shims/*` approach) walks the
//! workspace and enforces two rule classes:
//!
//! * **code rules** — [`Rule::GovernorTick`], [`Rule::NoPanicRatchet`]
//!   (against the committed `solint.baseline`, which may only shrink),
//!   [`Rule::AtomicOrdering`], [`Rule::NoBareMutex`],
//!   [`Rule::ForbidUnsafe`], [`Rule::LockOrder`] (every lock ranked in
//!   `locks.toml`; inter-procedural acquisition edges must strictly
//!   increase in rank, cycles are never escapable),
//!   [`Rule::NoBlockingInEventLoop`] (no blocking syscalls or event-loop
//!   lock parking reachable from the readiness loop), and
//!   [`Rule::StaleEscape`] (every `// solint: allow(rule)` must still
//!   cover a live finding);
//! * **doc-drift rules** — [`Rule::DocFailpoints`], [`Rule::DocCounters`],
//!   [`Rule::DocKnobs`], [`Rule::DocLocks`] (the `locks.toml` manifest,
//!   the shim rank constants, and the DESIGN.md §14 rank table must agree
//!   three ways), each comparing a code-side catalog against the
//!   committed documentation and reporting file:line on both sides, and
//!   [`Rule::DocSections`] (required DESIGN.md chapters keep their
//!   headings).
//!
//! Run it with `cargo run -p solint -- --ci`; see DESIGN.md §7 for the
//! contract each rule guards and README for baseline/escape workflow.
//!
//! [`QueryGovernor`]: https://docs.rs/ (eventdb::govern, in-workspace)

#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

pub use report::{render_json, render_text, Finding, Rule};
use source::{walk_rs_files, SourceFile};

/// What to analyze and where the contracts live. [`Config::repo`] is the
/// real workspace; fixture tests build custom configs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Analysis root (the workspace root for the real run).
    pub root: PathBuf,
    /// Directories walked for the workspace-wide rules, relative to root.
    pub scan_dirs: Vec<String>,
    /// Relative-path substrings excluded from every walk.
    pub exclude: Vec<String>,
    /// The cataloged hot modules for `governor-tick` (relative paths).
    pub hot_modules: Vec<String>,
    /// Identifier name-parts that mark a loop as iterating hot data.
    pub hot_keywords: Vec<String>,
    /// Identifiers whose presence in a loop body proves governance.
    pub governed_markers: Vec<String>,
    /// Directory prefixes whose non-test code is panic-ratcheted.
    pub ratchet_dirs: Vec<String>,
    /// The ratchet baseline file, relative to root (`None` = rule off).
    pub baseline: Option<String>,
    /// Files whose `Ordering::…` uses need `// ord:` justifications.
    pub ordering_files: Vec<String>,
    /// Directory prefixes where bare `std::sync::Mutex`/`RwLock` is banned.
    pub mutex_dirs: Vec<String>,
    /// Crate-root files that must carry `#![forbid(unsafe_code)]`.
    pub crate_roots: Vec<String>,
    /// DESIGN.md (relative), for the failpoint §5 / counter §6 catalogs.
    pub design_md: Option<String>,
    /// Section titles that must keep a `## …` heading in DESIGN.md
    /// (`doc-sections`; empty = rule off).
    pub design_sections: Vec<String>,
    /// README.md (relative), for the knob table.
    pub readme_md: Option<String>,
    /// The file holding the `Counter` enum (relative).
    pub metrics_file: Option<String>,
    /// The lock-hierarchy manifest (relative; `None` = lock rules off).
    pub locks_manifest: Option<String>,
    /// The file declaring the `pub const <NAME>: u16` rank constants.
    pub lock_rank_module: Option<String>,
    /// Directory prefixes whose lock declarations/acquisitions are
    /// analyzed by `lock-order`.
    pub lock_dirs: Vec<String>,
    /// Event-loop entry fns (`path/to/file.rs::Type::name`) for
    /// `no-blocking-in-event-loop`.
    pub event_loop_entries: Vec<String>,
    /// Identifiers that block the calling thread (`sleep`, `join`, …).
    pub event_loop_blocking: Vec<String>,
}

impl Config {
    /// The real repository's contract set.
    pub fn repo(root: PathBuf) -> Config {
        let crate_roots = discover_crate_roots(&root);
        Config {
            root,
            scan_dirs: vec![
                "crates".into(),
                "shims".into(),
                "src".into(),
                "tests".into(),
                "examples".into(),
            ],
            exclude: vec![
                "solint/tests/fixtures/".into(),
                "/target/".into(),
                "proptest-regressions".into(),
            ],
            hot_modules: vec![
                "crates/eventdb/src/seqquery.rs".into(),
                "crates/pattern/src/matcher.rs".into(),
                "crates/core/src/cb.rs".into(),
                "crates/core/src/ii.rs".into(),
                "crates/core/src/regexq.rs".into(),
                "crates/index/src/codec.rs".into(),
                "crates/eventdb/src/wal.rs".into(),
                "crates/eventdb/src/log.rs".into(),
                "crates/server/src/server.rs".into(),
                "crates/server/src/readiness.rs".into(),
                "crates/server/src/conn.rs".into(),
            ],
            hot_keywords: default_hot_keywords(),
            governed_markers: default_governed_markers(),
            ratchet_dirs: vec![
                "crates/eventdb/src/".into(),
                "crates/core/src/".into(),
                "crates/server/src/".into(),
            ],
            baseline: Some("solint.baseline".into()),
            ordering_files: vec![
                "crates/eventdb/src/metrics.rs".into(),
                "crates/eventdb/src/govern.rs".into(),
                "crates/eventdb/src/failpoint.rs".into(),
            ],
            mutex_dirs: vec!["crates/".into(), "src/".into()],
            crate_roots,
            design_md: Some("DESIGN.md".into()),
            design_sections: vec![
                "Observability".into(),
                "Static analysis & invariants".into(),
                "Lock hierarchy & deadlock freedom".into(),
                "Cost-based planning".into(),
            ],
            readme_md: Some("README.md".into()),
            metrics_file: Some("crates/eventdb/src/metrics.rs".into()),
            locks_manifest: Some("locks.toml".into()),
            lock_rank_module: Some("shims/parking_lot/src/lib.rs".into()),
            lock_dirs: vec!["crates/".into(), "src/".into()],
            event_loop_entries: vec!["crates/server/src/server.rs::EventLoop::run".into()],
            event_loop_blocking: vec!["sleep".into(), "join".into()],
        }
    }

    /// A minimal config for fixture trees: every rule off until fields are
    /// filled in by the test.
    pub fn bare(root: PathBuf) -> Config {
        Config {
            root,
            scan_dirs: vec![String::new()],
            exclude: vec!["/target/".into()],
            hot_modules: vec![],
            hot_keywords: default_hot_keywords(),
            governed_markers: default_governed_markers(),
            ratchet_dirs: vec![],
            baseline: None,
            ordering_files: vec![],
            mutex_dirs: vec![],
            crate_roots: vec![],
            design_md: None,
            design_sections: vec![],
            readme_md: None,
            metrics_file: None,
            locks_manifest: None,
            lock_rank_module: None,
            lock_dirs: vec![],
            event_loop_entries: vec![],
            event_loop_blocking: vec![],
        }
    }
}

/// Loop-header name-parts that mark per-event / per-sequence / per-posting
/// iteration (matched against the last `_`-part of each identifier, with
/// plural folding).
pub fn default_hot_keywords() -> Vec<String> {
    [
        "event",
        "row",
        "seq",
        "sequence",
        "sid",
        "posting",
        "list",
        "occurrence",
        "occ",
        "window",
        "cluster",
        "group",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

/// Identifiers proving a loop body is governed: direct governor calls, the
/// `*_governed` entry points, and governor attachment.
pub fn default_governed_markers() -> Vec<String> {
    [
        "tick",
        "tick_n",
        "check_now",
        "charge_cells",
        "with_governor",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

/// Workspace crate roots: `src/lib.rs` / `src/main.rs` beside every
/// `Cargo.toml` under root, `crates/` and `shims/`.
fn discover_crate_roots(root: &Path) -> Vec<String> {
    let mut dirs: Vec<PathBuf> = vec![root.to_path_buf()];
    for parent in ["crates", "shims"] {
        if let Ok(entries) = std::fs::read_dir(root.join(parent)) {
            for e in entries.flatten() {
                if e.path().is_dir() {
                    dirs.push(e.path());
                }
            }
        }
    }
    let mut out = Vec::new();
    for d in dirs {
        if !d.join("Cargo.toml").is_file() {
            continue;
        }
        for rootfile in ["src/lib.rs", "src/main.rs"] {
            let p = d.join(rootfile);
            if p.is_file() {
                if let Ok(rel) = p.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    out
}

/// The result of one analysis run.
pub struct Analysis {
    /// Every finding, unsorted.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Runs every configured rule and collects findings.
pub fn run(config: &Config) -> Analysis {
    let rels = walk_rs_files(&config.root, &config.scan_dirs, &config.exclude);
    let mut files = Vec::new();
    let mut findings = Vec::new();
    for rel in &rels {
        match SourceFile::load(&config.root, rel) {
            Ok(f) => files.push(f),
            Err(e) => findings.push(Finding::new(
                Rule::ForbidUnsafe,
                rel,
                0,
                format!("unreadable source file: {e}"),
            )),
        }
    }

    findings.extend(rules::governor_tick::check(config, &files));
    findings.extend(rules::panic_ratchet::check(config, &files));
    findings.extend(rules::atomic_ordering::check(config, &files));
    findings.extend(rules::bare_mutex::check(config, &files));
    findings.extend(rules::forbid_unsafe::check(config, &files));
    findings.extend(rules::lock_order::check(config, &files));
    findings.extend(rules::no_blocking::check(config, &files));
    findings.extend(rules::doc_failpoints::check(config, &files));
    findings.extend(rules::doc_counters::check(config, &files));
    findings.extend(rules::doc_knobs::check(config, &files));
    findings.extend(rules::doc_locks::check(config, &files));
    findings.extend(rules::doc_sections::check(config, &files));

    // Escaped findings stay in the stream as `suppressed` until here so
    // stale-escape can prove each escape still covers something; only the
    // live findings leave the analysis.
    let stale = rules::stale_escape::check(config, &files, &findings);
    findings.retain(|f| !f.suppressed);
    findings.extend(stale);

    Analysis {
        findings,
        files_scanned: files.len(),
    }
}

/// Recomputes the panic-ratchet counts and rewrites the baseline file.
/// Returns the new per-file counts (path, count), sorted by path.
pub fn update_baseline(config: &Config) -> std::io::Result<Vec<(String, usize)>> {
    let rels = walk_rs_files(&config.root, &config.scan_dirs, &config.exclude);
    let mut files = Vec::new();
    for rel in &rels {
        if let Ok(f) = SourceFile::load(&config.root, rel) {
            files.push(f);
        }
    }
    let counts = rules::panic_ratchet::current_counts(config, &files);
    if let Some(rel) = &config.baseline {
        baseline::save(&config.root.join(rel), &counts)?;
    }
    Ok(counts)
}
