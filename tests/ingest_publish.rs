//! Publish-after-carry: a `STORE`'s rows stay invisible until the caches
//! carried forward over them are in place.
//!
//! The store path stages a batch behind the published prefix, carries the
//! cached sequence groups and base indices of live specs forward over it,
//! publishes, and only then retires the old version. The properties under
//! test:
//!
//! * **staged rows are invisible** — to `len`, `version`, steps 1–4,
//!   `EXPLAIN` and `persist::save`;
//! * **the window shows the old version whole** — a reader that runs while
//!   a `STORE` sits between its carry and its publish (held open by the
//!   `ingest.publish=delay` failpoint) sees the old length and version and
//!   is answered from the cuboid repository;
//! * **the new version arrives with its caches** — the first query after
//!   the `STORE` misses neither the sequence cache nor the base index, and
//!   equals a fresh engine's answer;
//! * **acknowledged ⇒ published ⇒ WAL-committed** — when the carry errors
//!   or panics, the batch is still published, and a durable engine recovers
//!   exactly the rows it shows.
//!
//! Failpoint state is process-global, so every test here holds one lock.

use std::path::PathBuf;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use s_olap::eventdb::failpoint::{self, Action};
use s_olap::eventdb::{build_sequence_groups, persist, FsyncPolicy};
use s_olap::prelude::*;

static FP_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn schema() -> EventDb {
    EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("symbol", ColumnType::Str)
        .build()
        .unwrap()
}

/// Sequence `sid`: `len` events over the symbols `s0`–`s3`.
fn sequence(sid: i64, len: i64) -> Vec<Vec<Value>> {
    (0..len)
        .map(|pos| {
            vec![
                Value::Int(sid),
                Value::Int(pos),
                Value::Str(format!("s{}", (sid * 3 + pos * pos) % 4)),
            ]
        })
        .collect()
}

/// 16 sequences of 3–7 events.
fn build_db() -> EventDb {
    let mut db = schema();
    for sid in 0..16 {
        for row in sequence(sid, 3 + sid % 5) {
            db.push_row(&row).unwrap();
        }
    }
    db
}

/// `(X, Y)` substring over `symbol`, one sequence per `sid`.
fn spec() -> SCuboidSpec {
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
}

fn ii() -> EngineConfig {
    EngineConfig {
        strategy: Strategy::InvertedIndex,
        threads: 1,
        ..Default::default()
    }
}

/// One read guard for both: a second guard of the same lock while the
/// first is alive is a rank violation under the lock witness.
fn len_and_version(engine: &Engine) -> (usize, u64) {
    let db = engine.db();
    (db.len(), db.version())
}

fn saved(db: &EventDb) -> Vec<u8> {
    let mut bytes = Vec::new();
    persist::save(db, &mut bytes).unwrap();
    bytes
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("solap-publish-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn staged_rows_are_invisible_to_every_reader() {
    let _g = locked();
    let mut engine = Engine::with_config(build_db(), ii());
    let spec = spec();
    let (len, version) = len_and_version(&engine);
    let groups = build_sequence_groups(&engine.db(), &spec.seq).unwrap();
    let plan = engine.explain(&spec).unwrap();
    let bytes = saved(&engine.db());
    // A new cluster and the tail of an existing one, over known symbols.
    let mut batch = sequence(100, 4);
    batch.push(vec![Value::Int(3), Value::Int(50), Value::from("s1")]);
    let staged = engine.db_mut().stage_rows(&batch).unwrap();
    assert_eq!(staged.len(), batch.len());

    let db = engine.db();
    assert_eq!((db.len(), db.version()), (len, version));
    let during = build_sequence_groups(&db, &spec.seq).unwrap();
    assert_eq!(during.total_sequences, groups.total_sequences);
    assert!(during
        .iter_sequences()
        .zip(groups.iter_sequences())
        .all(|(a, b)| a.rows == b.rows));
    assert_eq!(saved(&db), bytes, "save writes the published prefix only");
    drop(db);
    assert_eq!(engine.explain(&spec).unwrap(), plan);

    engine.db_mut().publish();
    assert_eq!(engine.db().len(), len + batch.len());
    assert_eq!(
        engine.explain(&spec).unwrap().events,
        (len + batch.len()) as u64
    );
}

#[test]
fn readers_see_a_version_only_with_its_carried_caches() {
    let _g = locked();
    failpoint::clear_all();
    let engine = Engine::with_config(build_db(), ii());
    let spec = spec();
    engine.execute(&spec).unwrap();
    let (len, version) = len_and_version(&engine);
    let batch = sequence(100, 5);
    failpoint::configure("ingest.publish", Action::Delay(1_500));
    let report = thread::scope(|s| {
        let writer = s.spawn(|| engine.append_events(&batch).unwrap());
        // The carry inserts its groups at the staged version before the
        // failpoint: once they appear, the STORE sits in the window.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine
            .sequence_cache()
            .versions()
            .is_none_or(|(_, newest)| newest == version)
        {
            assert!(Instant::now() < deadline, "the carry never ran");
            thread::sleep(Duration::from_millis(2));
        }
        {
            let db = engine.db();
            assert_eq!((db.len(), db.version()), (len, version));
            assert_eq!(db.staged_rows().len(), batch.len());
        }
        let out = engine.execute(&spec).unwrap();
        assert!(
            out.stats.cuboid_cache_hit,
            "the old version keeps its cuboid"
        );
        assert!(!writer.is_finished(), "the window closed under the reader");
        writer.join().unwrap()
    });
    failpoint::clear_all();
    assert_eq!(report.version, version + batch.len() as u64);
    assert_eq!((report.groups_extended, report.rebuild_fallbacks), (1, 0));
    assert!(report.indexes_extended >= 1, "{report:?}");
    assert_eq!(engine.db().version(), report.version);

    let misses = engine.sequence_cache().stats().1;
    let out = engine.execute(&spec).unwrap();
    assert_eq!(out.stats.strategy, "II");
    assert_eq!(
        engine.sequence_cache().stats().1,
        misses,
        "no steps 1–4 rebuild"
    );
    assert_eq!(out.stats.indices_built, 0, "no base index rebuild");
    let fresh = Engine::with_config(engine.db().clone(), ii());
    assert_eq!(
        out.cuboid.cells(),
        fresh.execute(&spec).unwrap().cuboid.cells()
    );
}

#[test]
fn a_failed_carry_still_publishes_what_the_wal_holds() {
    let _g = locked();
    for action in [Action::Panic, Action::Error] {
        failpoint::clear_all();
        let dir = tmpdir(&format!("{action:?}"));
        let open = || {
            Engine::builder(schema())
                .config(ii())
                .durable_with_policy(&dir, FsyncPolicy::Always)
                .unwrap()
                .build()
        };
        let engine = open();
        engine.append_events(&sequence(0, 4)).unwrap();
        engine.execute(&spec()).unwrap();
        failpoint::configure("ingest.publish", action);
        let err = engine.append_events(&sequence(1, 3)).unwrap_err();
        failpoint::clear_all();
        assert_eq!(err.code(), "internal", "{action:?}: {err}");
        assert_eq!(engine.db().len(), 7, "{action:?}: the batch was published");
        assert!(engine.db().staged_rows().is_empty());
        // The engine keeps serving, and the next STORE is whole.
        let report = engine.append_events(&sequence(2, 2)).unwrap();
        assert_eq!(report.version, engine.db().version());
        let memory = engine.db().clone();
        let answer = engine.execute(&spec()).unwrap();
        drop(engine);

        let recovered = open();
        let db = recovered.db();
        assert_eq!(db.len(), memory.len(), "{action:?}");
        for row in 0..db.len() as u32 {
            for attr in 0..3 {
                assert_eq!(db.value(row, attr), memory.value(row, attr));
            }
        }
        drop(db);
        assert_eq!(
            recovered.execute(&spec()).unwrap().cuboid.cells(),
            answer.cuboid.cells()
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
