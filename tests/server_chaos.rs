//! Chaos suite for the serving layer.
//!
//! The properties under test mirror `tests/chaos.rs`, lifted to the wire:
//!
//! * a client that disconnects mid-query observably cancels it (governor
//!   counters move) and its execution slot is reclaimed;
//! * admission control rejects over-capacity requests with the typed
//!   `over_capacity` code while `.server` observability keeps working;
//! * sixteen concurrent wire clients get answers bit-identical to a
//!   serial replay, at engine worker counts 1 and 8;
//! * a request panicking through the `server.request` failpoint kills
//!   only its own connection — concurrent sessions stay healthy.
//!
//! The readiness-driven rework (PR 8) extends the matrix under request
//! pipelining: a mid-batch disconnect cancels only that connection's
//! in-flight work, a panic inside a pipelined batch poisons neither the
//! event loop nor sibling connections, a queued pipelined batch is
//! rejected statement-by-statement with `over_capacity`, and graceful
//! drain completes queued pipelined statements before closing.
//!
//! Failpoint state is process-global, so every test serializes on one
//! lock, exactly like `tests/chaos.rs`.

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use s_olap::eventdb::failpoint::{self, Action};
use s_olap::eventdb::metrics;
use s_olap::prelude::*;
use s_olap::server::{Client, Server, ServerConfig, ServerHandle};

static FP_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the default panic hook silenced, so intentionally
/// injected panics do not spray backtraces over the test output.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// The paper's Q3 over the transit substitute.
const QUERY: &str = r#"SELECT COUNT(*) FROM Event CLUSTER BY card-id AT individual, time AT day SEQUENCE BY time ASCENDING CUBOID BY SUBSTRING (X, Y) WITH X AS location AT station, Y AS location AT station LEFT-MAXIMALITY (x1, y1) WITH x1.action = "in" AND y1.action = "out""#;

fn transit_engine(threads: usize) -> Arc<Engine> {
    let db = s_olap::datagen::generate_transit(&s_olap::datagen::TransitConfig {
        passengers: 80,
        days: 3,
        ..Default::default()
    })
    .expect("generator");
    Arc::new(
        Engine::builder(db)
            .threads(threads)
            // Each request must re-aggregate, otherwise the repo would
            // answer every client from the first client's cuboid and the
            // bit-identical comparison would be vacuous.
            .use_cuboid_repo(false)
            .build(),
    )
}

fn spawn_server(
    engine: Arc<Engine>,
    config: ServerConfig,
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    Server::spawn(engine, config).expect("server spawn")
}

/// Polls `cond` until it holds or `timeout` elapses.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// The §3.2 regex extension, sent on the wire like any statement.
const REGEX_QUERY: &str = "SELECT COUNT(*) FROM Event CLUSTER BY card-id AT individual, time AT day SEQUENCE BY time ASCENDING CUBOID BY REGEX (X, .*, Y, .*, Z) WITH X AS location AT station, Y AS location AT station, Z AS location AT station LEFT-MAXIMALITY";

/// A client that vanishes mid-query trips the session's cancel token:
/// the governor counts a failure, the server counts the disconnect, no
/// response is written, and — with a single execution slot — the slot is
/// reclaimed for the next client. Holds for a SUBSTRING and a REGEX
/// statement alike: both run under the session's governor.
#[test]
fn disconnect_mid_query_cancels_and_reclaims_the_slot() {
    let _g = locked();
    for statement in [QUERY, REGEX_QUERY] {
        disconnect_mid_statement_cancels_and_reclaims_the_slot(statement);
    }
}

fn disconnect_mid_statement_cancels_and_reclaims_the_slot(statement: &str) {
    failpoint::clear_all();

    let engine = transit_engine(1);
    let (handle, join) = spawn_server(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_inflight: 1,
            ..Default::default()
        },
    );
    let addr = handle.local_addr();

    // Hold every request for 300 ms before it reaches the engine, so the
    // disconnect below lands while the query is in flight.
    failpoint::configure("server.request", Action::Delay(300));
    let failures_before = metrics::global().failures();

    let mut doomed = Client::connect(addr).expect("connect");
    doomed.send_only(statement).expect("send");
    drop(doomed); // hang up without reading the response

    assert!(
        wait_for(Duration::from_secs(10), || {
            handle.stats().cancelled_disconnect == 1
        }),
        "server never counted the mid-query disconnect of {statement:?}: {:?}",
        handle.stats()
    );
    assert!(
        metrics::global().failures() > failures_before,
        "the cancelled {statement:?} must be recorded as a governor failure"
    );

    // The permit died with the query; a fresh client must get the single
    // slot back and complete the same query normally.
    failpoint::clear_all();
    let mut survivor = Client::connect(addr).expect("connect");
    let r = survivor.request(statement).expect("request");
    assert!(r.ok, "slot not reclaimed after disconnect: {:?}", r.body);
    assert!(r.body.contains("cells via"));

    handle.shutdown();
    join.join().expect("accept loop").expect("serve");
}

/// With one execution slot held busy, a queued request is rejected with
/// the typed `over_capacity` code once the queue timeout expires — while
/// `.server` observability (served outside the admission gate) still
/// answers. When the slot frees up, the rejected client succeeds.
#[test]
fn saturated_slots_reject_with_over_capacity() {
    let _g = locked();
    failpoint::clear_all();

    let engine = transit_engine(1);
    let (handle, join) = spawn_server(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_inflight: 1,
            queue_timeout: Duration::from_millis(100),
            ..Default::default()
        },
    );
    let addr = handle.local_addr();

    // `holder` occupies the only slot for 800 ms.
    failpoint::configure("server.request", Action::Delay(800));
    let mut holder = Client::connect(addr).expect("connect");
    holder.send_only(".history").expect("send");
    std::thread::sleep(Duration::from_millis(200));

    let mut rejected = Client::connect(addr).expect("connect");
    let r = rejected.request(".history").expect("request");
    assert!(!r.ok, "request should be rejected while the slot is held");
    assert_eq!(r.code.as_deref(), Some("over_capacity"), "{:?}", r.body);
    assert!(handle.stats().rejected_queue >= 1);

    // Observability bypasses the gate: `.server` answers even now.
    let s = rejected.request(".server").expect("request");
    assert!(s.ok, ".server must work while slots are saturated");
    assert!(s.body.contains("queued requests"), "{:?}", s.body);

    // Once the holder's request completes, the slot frees and the
    // previously rejected client goes through.
    failpoint::clear_all();
    let ok = wait_for(
        Duration::from_secs(5),
        || matches!(rejected.request(".history"), Ok(r) if r.ok),
    );
    assert!(ok, "slot never freed after the holder finished");

    drop(holder);
    handle.shutdown();
    join.join().expect("accept loop").expect("serve");
}

/// Sixteen concurrent wire clients, each running the same
/// query → `.show` → `.spec` script against one shared engine, must all
/// see output bit-identical to a serial replay — at engine worker
/// counts 1 and 8. (The query's own summary line carries elapsed
/// timings, so the comparison uses the timing-free `.show`/`.spec`
/// renderings of the same cuboid.)
#[test]
fn sixteen_concurrent_clients_match_a_serial_replay() {
    let _g = locked();
    failpoint::clear_all();

    for threads in [1usize, 8] {
        let engine = transit_engine(threads);
        let (handle, join) = spawn_server(
            engine,
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                max_conn: 32,
                ..Default::default()
            },
        );
        let addr = handle.local_addr();

        let script = |client: &mut Client| -> (String, String) {
            let q = client.request(QUERY).expect("query");
            assert!(q.ok, "{:?}", q.body);
            let show = client.request(".show 40").expect(".show");
            assert!(show.ok, "{:?}", show.body);
            let spec = client.request(".spec").expect(".spec");
            assert!(spec.ok, "{:?}", spec.body);
            (show.body, spec.body)
        };

        // Serial replay first: the reference answer.
        let mut serial = Client::connect(addr).expect("connect");
        let reference = script(&mut serial);
        assert!(reference.0.contains('|'), "tabulated cuboid expected");

        // Then 16 clients at once, released together.
        let clients = 16;
        let barrier = Arc::new(Barrier::new(clients));
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait();
                    script(&mut client)
                })
            })
            .collect();
        for (i, w) in workers.into_iter().enumerate() {
            let got = w.join().expect("client thread");
            assert_eq!(
                got, reference,
                "client {i} diverged from the serial replay at threads={threads}"
            );
        }

        handle.shutdown();
        join.join().expect("accept loop").expect("serve");
    }
}

/// A request that panics through the `server.request` failpoint kills
/// its own connection (the client sees EOF, the server counts the
/// panic) and nothing else: a concurrent pre-existing session and a
/// brand-new one both keep working against the same server.
#[test]
fn request_panic_is_isolated_to_its_connection() {
    let _g = locked();
    failpoint::clear_all();

    let engine = transit_engine(1);
    let (handle, join) = spawn_server(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..Default::default()
        },
    );
    let addr = handle.local_addr();

    let mut bystander = Client::connect(addr).expect("connect");
    assert!(bystander.request(".history").expect("request").ok);

    quietly(|| {
        failpoint::configure("server.request", Action::Panic);
        let mut victim = Client::connect(addr).expect("connect");
        victim
            .set_response_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let err = victim.request(".history");
        assert!(
            err.is_err(),
            "the panicking connection must close without a response"
        );
        failpoint::clear_all();
    });

    assert!(
        wait_for(Duration::from_secs(5), || handle.stats().conn_panics == 1),
        "panic not counted: {:?}",
        handle.stats()
    );

    // The bystander's session survived its neighbour's panic...
    let r = bystander.request(QUERY).expect("request");
    assert!(
        r.ok,
        "bystander broken by a neighbour's panic: {:?}",
        r.body
    );
    // ...and the server still accepts new sessions.
    let mut fresh = Client::connect(addr).expect("connect");
    assert!(fresh.request(".history").expect("request").ok);

    handle.shutdown();
    join.join().expect("accept loop").expect("serve");
}

/// A client that pipelines a batch of queries and vanishes cancels only
/// its own in-flight work: the governor records a failure per cancelled
/// statement, the disconnect is counted once, and a sibling connection
/// sharing the worker pool completes its own query untouched.
#[test]
fn pipelined_disconnect_cancels_only_its_own_connection() {
    let _g = locked();
    failpoint::clear_all();

    let engine = transit_engine(1);
    let (handle, join) = spawn_server(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_inflight: 2,
            ..Default::default()
        },
    );
    let addr = handle.local_addr();

    // Hold every statement briefly so the disconnect lands while the
    // doomed batch is still in flight.
    failpoint::configure("server.request", Action::Delay(200));
    let failures_before = metrics::global().failures();

    let mut doomed = Client::connect(addr).expect("connect");
    doomed
        .send_batch(&[QUERY, QUERY, QUERY])
        .expect("pipelined send");
    drop(doomed); // hang up with three statements in flight

    // The sibling shares the pool but not the fate: its (delayed) query
    // completes normally while the doomed batch is being cancelled.
    let mut sibling = Client::connect(addr).expect("connect");
    let r = sibling.request(QUERY).expect("sibling request");
    assert!(
        r.ok,
        "sibling caught a neighbour's cancellation: {:?}",
        r.body
    );
    assert!(r.body.contains("cells via"));

    assert!(
        wait_for(Duration::from_secs(10), || {
            handle.stats().cancelled_disconnect == 1
        }),
        "pipelined disconnect never counted: {:?}",
        handle.stats()
    );
    // Every statement of the doomed batch aborted through the governor.
    assert!(
        metrics::global().failures() >= failures_before + 3,
        "expected 3 cancelled-statement failures, got {} -> {}",
        failures_before,
        metrics::global().failures()
    );

    failpoint::clear_all();
    handle.shutdown();
    join.join().expect("event loop").expect("serve");
}

/// A panic inside a pipelined batch kills that connection only: the
/// worker and event loop survive, a concurrent session keeps answering
/// (including further pipelined batches), and new sessions connect.
#[test]
fn pipelined_panic_poisons_neither_loop_nor_siblings() {
    let _g = locked();
    failpoint::clear_all();

    let engine = transit_engine(1);
    let (handle, join) = spawn_server(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..Default::default()
        },
    );
    let addr = handle.local_addr();

    let mut bystander = Client::connect(addr).expect("connect");
    assert!(bystander.request(".history").expect("request").ok);

    quietly(|| {
        failpoint::configure("server.request", Action::Panic);
        let mut victim = Client::connect(addr).expect("connect");
        victim
            .set_response_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let err = victim.pipeline(&[".history", ".history", ".history"]);
        assert!(
            err.is_err(),
            "the panicking batch must close its connection unanswered"
        );
        failpoint::clear_all();
    });

    assert!(
        wait_for(Duration::from_secs(5), || handle.stats().conn_panics == 1),
        "panic not counted: {:?}",
        handle.stats()
    );

    // The bystander still pipelines successfully, responses in order.
    let rs = bystander
        .pipeline(&[".history", QUERY])
        .expect("bystander pipeline");
    assert!(rs[0].ok, "{:?}", rs[0].body);
    assert!(
        rs[1].ok && rs[1].body.contains("cells via"),
        "{:?}",
        rs[1].body
    );

    let mut fresh = Client::connect(addr).expect("connect");
    assert!(fresh.request(".history").expect("request").ok);

    handle.shutdown();
    join.join().expect("event loop").expect("serve");
}

/// A pipelined batch that out-waits the queue timeout behind a saturated
/// pool is rejected with one typed `over_capacity` response per
/// statement, in order — and the session survives the rejection: once
/// the pool frees up, the same connection completes requests normally.
#[test]
fn over_capacity_rejects_every_statement_of_a_queued_pipeline() {
    let _g = locked();
    failpoint::clear_all();

    let engine = transit_engine(1);
    let (handle, join) = spawn_server(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_inflight: 1,
            queue_timeout: Duration::from_millis(100),
            ..Default::default()
        },
    );
    let addr = handle.local_addr();

    // `holder` occupies the only worker for 800 ms.
    failpoint::configure("server.request", Action::Delay(800));
    let mut holder = Client::connect(addr).expect("connect");
    holder.send_only(".history").expect("send");
    std::thread::sleep(Duration::from_millis(200));

    let mut rejected = Client::connect(addr).expect("connect");
    let rs = rejected
        .pipeline(&[".history", ".history", ".history"])
        .expect("pipelined batch");
    assert_eq!(rs.len(), 3);
    for (i, r) in rs.iter().enumerate() {
        assert!(!r.ok, "statement {i} should be rejected: {:?}", r.body);
        assert_eq!(r.code.as_deref(), Some("over_capacity"), "statement {i}");
    }
    assert!(handle.stats().rejected_queue >= 3, "{:?}", handle.stats());

    // Observability bypasses the pool even now.
    let s = rejected.request(".server").expect("request");
    assert!(s.ok && s.body.contains("queued requests"), "{:?}", s.body);

    // The rejection did not poison the session: with the pool free the
    // same connection goes through.
    failpoint::clear_all();
    let ok = wait_for(
        Duration::from_secs(5),
        || matches!(rejected.request(".history"), Ok(r) if r.ok),
    );
    assert!(ok, "session unusable after an over_capacity rejection");

    drop(holder);
    handle.shutdown();
    join.join().expect("event loop").expect("serve");
}

/// Graceful drain with a pipelined batch in flight: every statement
/// already accepted completes and flushes before the connection closes,
/// idle connections are closed, and `serve()` returns.
#[test]
fn graceful_drain_completes_a_queued_pipelined_batch() {
    let _g = locked();
    failpoint::clear_all();

    let engine = transit_engine(1);
    let (handle, join) = spawn_server(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_inflight: 1,
            ..Default::default()
        },
    );
    let addr = handle.local_addr();

    // Slow each statement down so shutdown lands mid-batch.
    failpoint::configure("server.request", Action::Delay(300));

    let mut busy = Client::connect(addr).expect("connect");
    busy.set_response_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut idle = Client::connect(addr).expect("connect");

    busy.send_batch(&[".history", ".history", ".history"])
        .expect("pipelined send");
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    // All three accepted statements still complete, in order…
    for i in 0..3 {
        let r = busy.recv_response().expect("drained response");
        assert!(r.ok, "statement {i} lost in drain: {:?}", r.body);
    }
    // …then the drained connection closes.
    assert!(
        busy.recv_response().is_err(),
        "connection must close after drain"
    );

    // The idle connection was closed by the drain without an answer.
    idle.set_response_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    assert!(idle.request(".history").is_err());

    failpoint::clear_all();
    join.join().expect("event loop").expect("serve");
}
