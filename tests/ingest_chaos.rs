//! Chaos suite for durable ingestion: crash-injection on the WAL, torn
//! tails, failpoint-armed log faults, and stream/query equivalence.
//!
//! The properties under test:
//!
//! * **acknowledged-durable / unacknowledged-absent** — a child process is
//!   SIGKILLed mid-append (including inside fsync and rotation windows via
//!   delay failpoints); on recovery, every acknowledged event is present,
//!   nothing past the last sent event exists, and the replayed sequence
//!   has no gaps or reorderings;
//! * **torn tails truncate, sealed segments refuse** — a file cut
//!   mid-record recovers its clean prefix (lenient replay + truncation),
//!   while corruption in a *sealed* segment is a typed [`Error::Corrupt`],
//!   never a panic;
//! * **failed appends are no-ops** — an error or panic injected at the
//!   WAL sites leaves the log usable and the engine answering correctly;
//! * **streaming never corrupts caches** — a write-heavy stream
//!   interleaved with concurrent queries yields cuboids bit-identical to
//!   a fresh rebuild, across CB/II × five aggregates × worker counts
//!   {1, 8}.
//!
//! Failpoint state is process-global, so the failpoint-arming tests
//! serialize on one lock, exactly like `tests/chaos.rs`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use s_olap::eventdb::failpoint::{self, Action};
use s_olap::eventdb::log::EventLog;
use s_olap::eventdb::wal::{replay, replay_strict, truncate_to, Tail, WalWriter};
use s_olap::eventdb::FsyncPolicy;
use s_olap::prelude::*;

static FP_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("solap-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------
// Torn tails and sealed-segment corruption
// ---------------------------------------------------------------------

fn row(i: i64) -> Vec<Value> {
    vec![Value::Int(i)]
}

#[test]
fn torn_tail_truncates_cleanly_sealed_corruption_is_typed() {
    let dir = tmpdir("torn");
    let path = dir.join("segment-000001.open");
    {
        let mut w = WalWriter::create(&path, FsyncPolicy::Off).unwrap();
        w.append_batch(&[row(1), row(2), row(3)]).unwrap();
        w.flush().unwrap();
        w.sync().unwrap();
    }
    let full = std::fs::metadata(&path).unwrap().len();
    // Cut the file mid-way through the last record: lenient replay keeps
    // the clean prefix and reports where to truncate.
    let opts = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    opts.set_len(full - 3).unwrap();
    let r = replay(&path).unwrap();
    assert_eq!(r.rows, vec![row(1), row(2)]);
    let Tail::Torn { valid_len, detail } = r.tail else {
        panic!("expected a torn tail");
    };
    assert!(
        valid_len < full - 3,
        "valid_len must exclude the torn record"
    );
    assert!(!detail.is_empty());
    // Truncating at valid_len restores the clean-tail invariant.
    truncate_to(&path, valid_len).unwrap();
    let r = replay(&path).unwrap();
    assert_eq!(r.rows, vec![row(1), row(2)]);
    assert!(matches!(r.tail, Tail::Clean));
    // The same damage in a *sealed* segment is refused with a typed
    // error: sealed segments promised a clean tail at seal time.
    let opts = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    let len = std::fs::metadata(&path).unwrap().len();
    opts.set_len(len - 2).unwrap();
    let err = replay_strict(&path).unwrap_err();
    assert_eq!(err.code(), "corrupt");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_log_recovery_truncates_torn_tail_and_is_idempotent() {
    let dir = tmpdir("log-torn");
    {
        let (mut log, rows, _) = EventLog::open(&dir, FsyncPolicy::Off).unwrap();
        assert!(rows.is_empty());
        log.append_batch(&[row(1), row(2), row(3), row(4)]).unwrap();
        log.sync().unwrap();
    }
    // Tear the active segment.
    let open_seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "open"))
        .expect("an active segment");
    let len = std::fs::metadata(&open_seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&open_seg)
        .unwrap()
        .set_len(len - 2)
        .unwrap();
    // First recovery reports and heals the torn tail…
    let (log, rows, report) = EventLog::open(&dir, FsyncPolicy::Off).unwrap();
    assert_eq!(rows, vec![row(1), row(2), row(3)]);
    let (_, detail) = report.truncated_tail.expect("tail damage reported");
    assert!(!detail.is_empty());
    drop(log);
    // …and the second sees a clean log with identical content.
    let (_, rows2, report2) = EventLog::open(&dir, FsyncPolicy::Off).unwrap();
    assert_eq!(rows2, rows);
    assert!(report2.truncated_tail.is_none(), "{report2:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Failpoint-armed WAL faults (process-global state: keep these here, not
// in the eventdb unit suite, and serialize on FP_LOCK)
// ---------------------------------------------------------------------

#[test]
fn injected_wal_errors_fail_the_append_not_the_log() {
    let _g = locked();
    for site in ["wal.append", "wal.fsync"] {
        failpoint::clear_all();
        let dir = tmpdir(&format!("fp-{}", site.replace('.', "-")));
        let (mut log, _, _) = EventLog::open(&dir, FsyncPolicy::Always).unwrap();
        log.append_batch(&[row(1)]).unwrap();
        failpoint::configure(site, Action::Error);
        let err = log.append_batch(&[row(2)]).unwrap_err();
        assert_eq!(err.code(), "internal", "site {site}");
        failpoint::clear_all();
        // The log keeps accepting appends after the fault clears…
        log.append_batch(&[row(3)]).unwrap();
        drop(log);
        // …and recovery replays a consistent prefix: row 1 certainly,
        // row 2 only if it reached the file before the injection point.
        let (_, rows, _) = EventLog::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(rows.first(), Some(&row(1)), "site {site}");
        assert_eq!(rows.last(), Some(&row(3)), "site {site}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    failpoint::clear_all();
}

#[test]
fn injected_rotation_fault_never_loses_sealed_events() {
    let _g = locked();
    failpoint::clear_all();
    let dir = tmpdir("fp-rotate");
    // Tiny segments force a rotation within a few appends.
    let (mut log, _, _) = EventLog::open_with_segment_bytes(&dir, FsyncPolicy::Off, 64).unwrap();
    log.append_batch(&[row(1), row(2)]).unwrap();
    failpoint::configure("wal.rotate", Action::Error);
    // The batch that trips the rotation threshold fails…
    let mut failed = 0;
    for i in 3..10 {
        if log.append_batch(&[row(i)]).is_err() {
            failed += 1;
            break;
        }
    }
    assert!(failed > 0, "rotation failpoint never fired");
    failpoint::clear_all();
    drop(log);
    // …but every previously acknowledged event survives recovery, in
    // order and without duplicates.
    let (_, rows, _) = EventLog::open(&dir, FsyncPolicy::Off).unwrap();
    let ints: Vec<i64> = rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(i) => i,
            ref v => panic!("unexpected value {v:?}"),
        })
        .collect();
    let want: Vec<i64> = (1..=ints.len() as i64).collect();
    assert_eq!(ints, want, "acknowledged prefix must be contiguous");
    assert!(ints.len() >= 2, "the pre-fault appends must survive");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Crash-loop harness: SIGKILL a child mid-append, recover, repeat
// ---------------------------------------------------------------------

/// Marker files the child maintains next to the WAL directory: `SENT` is
/// written before an append is attempted, `ACK` after it is acknowledged.
/// Both are written atomically (tmp + rename).
fn write_marker(dir: &Path, name: &str, i: i64) {
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, i.to_string()).unwrap();
    std::fs::rename(&tmp, dir.join(name)).unwrap();
}

fn read_marker(dir: &Path, name: &str) -> i64 {
    std::fs::read_to_string(dir.join(name))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(-1)
}

/// The crash-loop child: runs the durable engine's append loop until the
/// parent SIGKILLs it. Only active when `SOLAP_CRASH_DIR` is set — in a
/// normal test run this is a no-op.
#[test]
fn crash_child_entry() {
    let Ok(root) = std::env::var("SOLAP_CRASH_DIR") else {
        return;
    };
    let root = PathBuf::from(root);
    let schema = EventDbBuilder::new()
        .dimension("n", ColumnType::Int)
        .build()
        .unwrap();
    // Tiny segments so kills land around rotations too.
    let engine = Engine::builder(schema)
        .durable_with_options(root.join("wal"), FsyncPolicy::Always, 512)
        .unwrap()
        .build();
    let start = engine.db().len() as i64;
    for i in start..20_000 {
        write_marker(&root, "SENT", i);
        engine.append_events(&[row(i)]).unwrap();
        write_marker(&root, "ACK", i);
    }
}

/// Spawns the crash child (this same test binary, re-executed with the
/// child entry selected) against `root`.
fn spawn_child(root: &Path, failpoints: Option<&str>) -> Child {
    let exe = std::env::current_exe().unwrap();
    let mut cmd = Command::new(exe);
    cmd.arg("crash_child_entry")
        .arg("--exact")
        .arg("--nocapture")
        .env("SOLAP_CRASH_DIR", root)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    match failpoints {
        Some(fp) => cmd.env("SOLAP_FAILPOINTS", fp),
        None => cmd.env_remove("SOLAP_FAILPOINTS"),
    };
    cmd.spawn().expect("spawn crash child")
}

/// One kill cycle: let the child make progress, SIGKILL it at a jittered
/// moment, then verify the recovered log.
fn crash_cycle(root: &Path, failpoints: Option<&str>, jitter_ms: u64) {
    let ack_before = read_marker(root, "ACK");
    let mut child = spawn_child(root, failpoints);
    let deadline = Instant::now() + Duration::from_secs(30);
    while read_marker(root, "ACK") < ack_before + 3 {
        assert!(
            Instant::now() < deadline,
            "child made no progress (ack {} → {})",
            ack_before,
            read_marker(root, "ACK")
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(jitter_ms));
    child.kill().expect("SIGKILL child");
    let _ = child.wait();

    // Recover and check the two durability invariants.
    let ack = read_marker(root, "ACK");
    let sent = read_marker(root, "SENT");
    let (_, rows, _) = EventLog::open(&root.join("wal"), FsyncPolicy::Off).unwrap();
    let n = rows.len() as i64;
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r, &row(i as i64), "recovered events must be gapless");
    }
    assert!(
        n > ack,
        "acknowledged-durable violated: ack={ack} but only {n} events recovered"
    );
    assert!(
        n <= sent + 1,
        "unacknowledged-absent violated: sent={sent} but {n} events recovered"
    );
}

/// Kill iterations per variant: `SOLAP_CRASH_ITERS` (CI sets it), default
/// 8 + 6 + 6 = 20 SIGKILLs across the three variants.
fn iters(default: usize) -> usize {
    std::env::var("SOLAP_CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn crash_loop_survives_sigkill_mid_append() {
    let root = tmpdir("crash-plain");
    for i in 0..iters(8) {
        crash_cycle(&root, None, (i as u64 * 7) % 23);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crash_loop_survives_sigkill_inside_fsync() {
    let root = tmpdir("crash-fsync");
    // Delay inside the fsync window so kills land mid-sync.
    for i in 0..iters(6) {
        crash_cycle(&root, Some("wal.fsync=delay:2"), (i as u64 * 5) % 11);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crash_loop_survives_sigkill_inside_rotation() {
    let root = tmpdir("crash-rotate");
    // Delay inside rotation so kills land between seal and manifest.
    for i in 0..iters(6) {
        crash_cycle(&root, Some("wal.rotate=delay:2"), (i as u64 * 3) % 13);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Recovery itself is crash-safe: a durable engine reopened after the
/// crash loop answers queries on exactly the recovered prefix.
#[test]
fn recovered_engine_serves_queries() {
    let root = tmpdir("crash-query");
    crash_cycle(&root, None, 3);
    let schema = EventDbBuilder::new()
        .dimension("n", ColumnType::Int)
        .build()
        .unwrap();
    let engine = Engine::builder(schema)
        .durable_with_options(root.join("wal"), FsyncPolicy::Always, 512)
        .unwrap()
        .build();
    let report = engine.recovery_report().unwrap().clone();
    assert_eq!(
        engine.db().len() as u64,
        report.sealed_events + report.wal_events
    );
    assert!(engine.db().len() >= 4, "the crash cycle appended events");
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// Stream/query equivalence: concurrent ingestion never corrupts caches
// ---------------------------------------------------------------------

/// The chaos suite's deterministic database: 24 sequences over 5 symbols
/// with an `a`/`b` tag and a dyadic weight (bit-exact SUM/AVG).
fn build_db() -> EventDb {
    let mut db = EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("symbol", ColumnType::Str)
        .dimension("tag", ColumnType::Str)
        .measure("weight", ColumnType::Float)
        .build()
        .unwrap();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for sid in 0..24i64 {
        let len = 3 + (sid % 6);
        for pos in 0..len {
            let sym = next() % 5;
            let tag = next() % 2 == 0;
            db.push_row(&[
                Value::Int(sid),
                Value::Int(pos),
                Value::Str(format!("s{sym}")),
                Value::from(if tag { "a" } else { "b" }),
                Value::Float(sym as f64 + 0.5),
            ])
            .unwrap();
        }
    }
    db.set_base_level_name(2, "symbol");
    db.attach_str_level(2, "parity", |name| {
        let v: u32 = name[1..].parse().unwrap();
        format!("p{}", v % 2)
    })
    .unwrap();
    db
}

/// `(X, Y)` substring spec with one of the five aggregates.
fn spec_for(agg: u8) -> SCuboidSpec {
    let template = PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y"],
        &[("X", 2, 0), ("Y", 2, 0)],
    )
    .unwrap();
    SCuboidSpec::new(
        template,
        vec![AttrLevel::new(0, 0)],
        vec![SortKey {
            attr: 1,
            ascending: true,
        }],
    )
    .with_mpred(MatchPred::cmp(0, 3, CmpOp::Eq, "a"))
    .with_agg(match agg {
        0 => AggFunc::Count,
        1 => AggFunc::Sum(4, SumMode::AllEvents),
        2 => AggFunc::Avg(4, SumMode::AllEvents),
        3 => AggFunc::Min(4),
        _ => AggFunc::Max(4),
    })
}

#[test]
fn interleaved_stream_and_queries_match_fresh_rebuild() {
    let engine = Arc::new(Engine::new(build_db()));
    let done = Arc::new(AtomicBool::new(false));

    // Readers hammer all five aggregates while the stream runs; each
    // query must succeed against whatever consistent snapshot it sees.
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut queries = 0u64;
                loop {
                    let out = engine.execute(&spec_for((queries % 5) as u8));
                    assert!(out.is_ok(), "reader {r}: {out:?}");
                    queries += 1;
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
                queries
            })
        })
        .collect();

    // Write-heavy stream: mostly new clusters (extendable), every fifth
    // batch lands in an existing cluster (ClusterInvalidated fallback).
    let mut state = 0xDEAD_BEEF_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for i in 0..150i64 {
        let sid = if i % 5 == 4 { i % 24 } else { 1000 + i };
        let base_pos = if sid < 24 { 100 + i } else { 0 };
        let batch: Vec<Vec<Value>> = (0..2 + (i % 3))
            .map(|p| {
                let sym = next() % 5;
                vec![
                    Value::Int(sid),
                    Value::Int(base_pos + p),
                    Value::Str(format!("s{sym}")),
                    Value::from(if next() % 2 == 0 { "a" } else { "b" }),
                    Value::Float(sym as f64 + 0.5),
                ]
            })
            .collect();
        engine.append_events(&batch).unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        let queries = r.join().expect("reader thread");
        assert!(queries > 0, "readers must observe the stream");
    }

    // The streamed engine must now answer bit-identically to a fresh
    // rebuild, across strategies × aggregates × threads.
    let final_db = engine.db().clone();
    for strategy in [Strategy::CounterBased, Strategy::InvertedIndex] {
        for threads in [1usize, 8] {
            let cfg = EngineConfig {
                strategy,
                threads,
                timeout: None,
                budget_cells: None,
                ..Default::default()
            };
            let fresh = Engine::with_config(final_db.clone(), cfg.clone());
            for agg in 0..5u8 {
                let spec = spec_for(agg);
                let got = engine.execute_configured(&spec, &cfg).unwrap();
                let want = fresh.execute(&spec).unwrap();
                assert!(!want.cuboid.is_empty(), "oracle must be non-trivial");
                assert_eq!(
                    got.cuboid.cells(),
                    want.cuboid.cells(),
                    "{strategy:?}/threads={threads}/agg={agg} diverged"
                );
            }
        }
    }
}
