//! Fixture tests for `solint`, the workspace static-analysis pass: every
//! seeded violation under `crates/solint/tests/fixtures/` must be detected
//! by exactly the expected rule, the clean fixture must pass with all
//! rules armed, and the real workspace must lint clean against the
//! committed baseline (the same check CI runs via `cargo run -p solint --
//! --ci`).

use std::path::PathBuf;

use solint::{run, Config, Rule};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/solint/tests/fixtures")
        .join(name)
}

/// Runs `config` and asserts every finding carries `rule`, returning the
/// findings for further shape checks.
fn expect_only(config: &Config, rule: Rule, count: usize) -> Vec<solint::Finding> {
    let analysis = run(config);
    let findings = analysis.findings;
    assert!(
        findings.iter().all(|f| f.rule == rule),
        "expected only {} findings, got: {findings:#?}",
        rule.id()
    );
    assert_eq!(
        findings.len(),
        count,
        "expected {count} {} finding(s), got: {findings:#?}",
        rule.id()
    );
    findings
}

#[test]
fn governor_tick_fires_only_on_the_ungoverned_loop() {
    let mut config = Config::bare(fixture("governor_tick"));
    config.hot_modules = vec!["hot.rs".into()];
    let findings = expect_only(&config, Rule::GovernorTick, 1);
    assert_eq!(findings[0].file, "hot.rs");
    assert_eq!(findings[0].line, 7, "the ungoverned loop header");
}

#[test]
fn panic_ratchet_reports_new_sites_against_an_empty_baseline() {
    let mut config = Config::bare(fixture("panic_ratchet"));
    config.ratchet_dirs = vec!["src/".into()];
    config.baseline = Some("solint.baseline".into());
    let findings = expect_only(&config, Rule::NoPanicRatchet, 1);
    let msg = &findings[0].message;
    assert!(
        msg.contains("3 panic-capable sites"),
        "unwrap + slice-index + panic! in non-test code only: {msg}"
    );
    assert!(
        msg.contains("(unwrap)") && msg.contains("(slice-index)") && msg.contains("(panic-macro)")
    );
}

#[test]
fn panic_ratchet_requires_banking_a_burn_down() {
    let mut config = Config::bare(fixture("panic_ratchet"));
    config.ratchet_dirs = vec!["src/".into()];
    config.baseline = Some("stale.baseline".into());
    let findings = expect_only(&config, Rule::NoPanicRatchet, 1);
    assert!(findings[0].message.contains("--update-baseline"));
}

#[test]
fn atomic_ordering_fires_only_without_an_ord_comment() {
    let mut config = Config::bare(fixture("atomic_ordering"));
    config.ordering_files = vec!["metrics.rs".into()];
    let findings = expect_only(&config, Rule::AtomicOrdering, 1);
    assert_eq!(findings[0].line, 7, "the unjustified fetch_add");
}

#[test]
fn bare_mutex_fires_per_std_sync_lock() {
    let mut config = Config::bare(fixture("bare_mutex"));
    config.mutex_dirs = vec!["src/".into()];
    let findings = expect_only(&config, Rule::NoBareMutex, 2);
    let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("Mutex")));
    assert!(msgs.iter().any(|m| m.contains("RwLock")));
}

#[test]
fn forbid_unsafe_fires_on_missing_attr_and_unsafe_use() {
    let mut config = Config::bare(fixture("forbid_unsafe"));
    config.crate_roots = vec!["src/lib.rs".into()];
    let findings = expect_only(&config, Rule::ForbidUnsafe, 2);
    assert!(findings
        .iter()
        .any(|f| f.message.contains("#![forbid(unsafe_code)]")));
    assert!(findings.iter().any(|f| f.message.contains("`unsafe`")));
}

#[test]
fn doc_failpoints_reports_drift_in_both_directions() {
    let mut config = Config::bare(fixture("doc_drift"));
    config.design_md = Some("DESIGN.md".into());
    let findings = expect_only(&config, Rule::DocFailpoints, 2);
    // Code-side: the undocumented site, at its call line.
    let code_side = findings
        .iter()
        .find(|f| f.file == "src/code.rs")
        .expect("undocumented fail_point! site");
    assert!(code_side.message.contains("ii.join"));
    // Doc-side: the cataloged-but-absent site, at its table row.
    let doc_side = findings
        .iter()
        .find(|f| f.file == "DESIGN.md")
        .expect("stale catalog row");
    assert!(doc_side.message.contains("ghost.site"));
    assert!(doc_side.line > 0, "doc findings carry the table-row line");
}

#[test]
fn doc_counters_reports_drift_in_both_directions() {
    let mut config = Config::bare(fixture("doc_drift"));
    config.design_md = Some("DESIGN.md".into());
    config.metrics_file = Some("src/code.rs".into());
    let analysis = run(&config);
    let counters: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == Rule::DocCounters)
        .collect();
    assert_eq!(counters.len(), 2, "{counters:#?}");
    assert!(counters.iter().any(|f| f.message.contains("cache_hits")));
    assert!(counters.iter().any(|f| f.message.contains("ghost_counter")));
}

#[test]
fn doc_sections_flags_only_the_missing_chapter() {
    let mut config = Config::bare(fixture("doc_drift"));
    config.design_md = Some("DESIGN.md".into());
    config.design_sections = vec!["Failpoints".into(), "Cost-based planning".into()];
    let analysis = run(&config);
    let sections: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == Rule::DocSections)
        .collect();
    assert_eq!(sections.len(), 1, "{sections:#?}");
    assert_eq!(sections[0].file, "DESIGN.md");
    assert!(
        sections[0].message.contains("Cost-based planning"),
        "`## 5. Failpoints` satisfies its requirement; only the absent chapter fires: {}",
        sections[0].message
    );
}

#[test]
fn doc_knobs_reports_drift_in_both_directions() {
    let mut config = Config::bare(fixture("doc_drift"));
    config.readme_md = Some("README.md".into());
    let findings = expect_only(&config, Rule::DocKnobs, 2);
    assert!(findings.iter().any(|f| f.message.contains("SOLAP_SECRET")));
    assert!(findings.iter().any(|f| f.message.contains("SOLAP_OTHER")));
}

#[test]
fn doc_knobs_flags_a_ci_setting_nothing_reads() {
    let mut config = Config::bare(fixture("ci_knobs"));
    config.readme_md = Some("README.md".into());
    let findings = expect_only(&config, Rule::DocKnobs, 1);
    assert_eq!(findings[0].file, ".github/workflows/ci.yml");
    assert_eq!(findings[0].line, 8, "the `SOLAP_GONE:` env key");
    assert!(
        findings[0].message.contains("SOLAP_GONE"),
        "{}",
        findings[0].message
    );
}

/// Arms the lock rules (`lock-order` / `no-blocking-in-event-loop`) on a
/// fixture tree with its own `locks.toml`.
fn lock_config(name: &str) -> Config {
    let mut config = Config::bare(fixture(name));
    config.locks_manifest = Some("locks.toml".into());
    config.lock_dirs = vec!["src/".into()];
    config
}

#[test]
fn lock_order_flags_the_seeded_inversion() {
    let findings = expect_only(&lock_config("lock_order/inversion"), Rule::LockOrder, 1);
    assert_eq!(findings[0].file, "src/lib.rs");
    assert_eq!(findings[0].line, 21, "the inner `low.lock()` in `bad`");
    assert!(
        findings[0].message.contains("inverts the lock hierarchy"),
        "{}",
        findings[0].message
    );
}

#[test]
fn lock_order_flags_the_unranked_lock() {
    let findings = expect_only(&lock_config("lock_order/unranked"), Rule::LockOrder, 1);
    assert_eq!(findings[0].file, "src/lib.rs");
    assert_eq!(findings[0].line, 7, "the `mystery` declaration");
    assert!(
        findings[0].message.contains("no rank"),
        "{}",
        findings[0].message
    );
}

#[test]
fn lock_order_flags_the_cycle_closed_by_escaped_edges() {
    let findings = expect_only(&lock_config("lock_order/cycle"), Rule::LockOrder, 1);
    assert_eq!(findings[0].file, "src/lib.rs");
    assert_eq!(
        findings[0].line, 24,
        "the escaped `grab_low()` call in `rev`"
    );
    assert!(
        findings[0].message.contains("cycle") && findings[0].message.contains("cannot be escaped"),
        "the escape silences the inversion but never the cycle: {}",
        findings[0].message
    );
}

#[test]
fn no_blocking_flags_the_engine_park_and_the_reachable_sleep() {
    let mut config = lock_config("no_blocking");
    config.event_loop_entries = vec!["src/lib.rs::Loop::run".into()];
    config.event_loop_blocking = vec!["sleep".into(), "join".into()];
    let findings = expect_only(&config, Rule::NoBlockingInEventLoop, 2);
    let park = findings
        .iter()
        .find(|f| f.message.contains("fx.engine"))
        .expect("the event_loop = false lock acquire");
    assert_eq!((park.file.as_str(), park.line), ("src/lib.rs", 15));
    let sleep = findings
        .iter()
        .find(|f| f.message.contains("sleep"))
        .expect("the sleep reached through `backoff`");
    assert_eq!((sleep.file.as_str(), sleep.line), ("src/lib.rs", 21));
}

#[test]
fn stale_escape_flags_the_orphaned_waiver() {
    let config = Config::bare(fixture("stale_escape"));
    let findings = expect_only(&config, Rule::StaleEscape, 1);
    assert_eq!(findings[0].file, "src/lib.rs");
    assert_eq!(findings[0].line, 4, "the escape comment itself");
    assert!(
        findings[0].message.contains("stale"),
        "{}",
        findings[0].message
    );
}

/// The clean fixture arms every rule at once and must produce nothing.
#[test]
fn clean_fixture_passes_with_all_rules_armed() {
    let root = fixture("clean");
    let mut config = Config::bare(root);
    config.hot_modules = vec!["src/lib.rs".into()];
    config.ratchet_dirs = vec!["src/".into()];
    config.baseline = Some("solint.baseline".into());
    config.ordering_files = vec!["src/lib.rs".into()];
    config.mutex_dirs = vec!["src/".into()];
    config.crate_roots = vec!["src/lib.rs".into()];
    config.design_md = Some("DESIGN.md".into());
    config.design_sections = vec!["Failpoints".into(), "Counters".into()];
    config.readme_md = Some("README.md".into());
    config.metrics_file = Some("src/lib.rs".into());
    config.locks_manifest = Some("locks.toml".into());
    config.lock_rank_module = Some("src/rank.rs".into());
    config.lock_dirs = vec!["src/".into()];
    config.event_loop_entries = vec!["src/lib.rs::Gate::run".into()];
    config.event_loop_blocking = vec!["sleep".into(), "join".into()];
    let analysis = run(&config);
    assert!(
        analysis.findings.is_empty(),
        "clean fixture must lint clean: {:#?}",
        analysis.findings
    );
    assert!(analysis.files_scanned >= 1);
}

/// The real workspace lints clean against the committed baseline — the
/// in-process equivalent of the CI gate `cargo run -p solint -- --ci`.
#[test]
fn the_workspace_lints_clean() {
    let config = Config::repo(PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let analysis = run(&config);
    assert!(
        analysis.findings.is_empty(),
        "workspace findings (fix them or bank the ratchet with `cargo run -p solint -- --update-baseline`):\n{}",
        solint::render_text(&analysis.findings, analysis.files_scanned)
    );
    assert!(
        analysis.files_scanned > 50,
        "the walk saw the whole workspace, not a subtree"
    );
}
