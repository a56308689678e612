//! Regression: every binary must arm `SOLAP_FAILPOINTS` at process entry.
//!
//! `EngineBuilder::build()` seeds the failpoint registry, but binaries do
//! real work before (or without) constructing an engine — `solap
//! --connect` never builds a local engine at all. A binary that forgets
//! `failpoint::init()` silently runs chaos configurations with no faults
//! injected, which is worse than failing: the chaos run *passes
//! vacuously*. So: spawn the real binary with a failpoint armed via the
//! environment and require the fault to actually fire.

use std::process::{Command, Output};

/// Runs `experiments -- table1 --scale 0.01`, with `SOLAP_FAILPOINTS` set
/// to `failpoints` or cleared.
fn table1(failpoints: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(["table1", "--scale", "0.01"])
        .current_dir(std::env::temp_dir());
    match failpoints {
        Some(spec) => cmd.env("SOLAP_FAILPOINTS", spec),
        None => cmd.env_remove("SOLAP_FAILPOINTS"),
    };
    cmd.output().expect("spawn experiments")
}

#[test]
fn experiments_binary_arms_env_failpoints() {
    let out = table1(Some("seqcache.build=error"));
    assert!(
        !out.status.success(),
        "armed seqcache.build failpoint did not fire:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failpoint seqcache.build"),
        "failure must come from the injected fault, got:\n{stderr}"
    );
}

#[test]
fn experiments_table1_runs_clean_without_failpoints() {
    let out = table1(None);
    assert!(
        out.status.success(),
        "table1 failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}
