//! The multi-client S-OLAP server: a readiness-driven event loop in
//! front of a bounded worker pool.
//!
//! PR 5's thread-per-connection server plateaued near ~1.5k qps at 64
//! clients — one OS thread, one blocking read and one watcher thread per
//! connection is the wrong shape for production connection counts. This
//! rework keeps the protocol and every serving guarantee, but changes the
//! architecture:
//!
//! * **One event-loop thread** owns every accepted socket (non-blocking,
//!   multiplexed through the zero-`unsafe` [`readiness`](crate::readiness)
//!   shim — one fd per connection, no `try_clone` fan-out). It accepts,
//!   frames request lines incrementally ([`FrameBuf`]),
//!   flushes response buffers, detects mid-query disconnects, and enforces
//!   every timeout. Probe cost is bounded two ways: full readiness
//!   sweeps are *paced* by connection count (≈10µs of sweep budget per
//!   connection, so thousands of idle connections cost a fixed slice of
//!   one core), while connections with a response just flushed are
//!   *hot* — read directly each iteration, so an active round trip
//!   never waits on the sweep cadence. Between events the loop parks on
//!   the pool's waker, and only touched connections are serviced (a
//!   periodic full pass enforces timeouts).
//! * **A bounded worker pool** (`workers`, default `max_inflight`)
//!   executes statements, so a slow query occupies a worker — never the
//!   event loop. Statement execution is the only blocking work in the
//!   server.
//! * **Pipelining**: a client may write up to `pipeline_depth` statements
//!   without awaiting responses; responses always come back in request
//!   order. Contiguously queued statements of one connection are admitted
//!   to the pool as a single batch job (one queue entry, one session
//!   hand-off) — sessions are stateful, so per-connection execution is
//!   inherently serial, and cross-connection parallelism comes from the
//!   pool.
//!
//! The PR-5 guarantees, re-proven by `tests/server_chaos.rs` on this
//! loop (and extended under pipelining):
//!
//! * **Admission control** — at most `max_conn` connections (excess get a
//!   typed `over_capacity` line and are closed); a queued job no worker
//!   picks up within `queue_timeout` is rejected with `over_capacity`,
//!   one response per queued statement. `.server` stats are answered
//!   inline by the event loop, outside the pool, so observability
//!   survives saturation.
//! * **Disconnect cancellation** — the event loop keeps read interest on
//!   busy connections; EOF mid-query trips the session's
//!   [`CancelToken`] so the governor aborts
//!   in-flight work and the worker is reclaimed. Only that connection's
//!   work is cancelled.
//! * **Hostile-input guards** — bounded request lines (`too_large`),
//!   non-UTF-8 lines (`bad_request`), an idle read timeout, a write-stall
//!   timeout, and a write-buffer high-water mark that stops reading from
//!   a connection whose responses back up (backpressure instead of
//!   unbounded buffering).
//! * **Panic isolation** — a statement panicking through the
//!   `server.request` failpoint is caught *in the worker*; the connection
//!   dies, the worker, the event loop and every sibling session survive.
//! * **Graceful drain** — shutdown stops accepting, closes idle
//!   connections, lets queued and executing statements finish and flush
//!   their responses, answers anything framed afterwards with
//!   `shutting_down`, then joins the workers.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use solap_core::Engine;
use solap_eventdb::{fail_point, CancelToken};

use crate::conn::{Frame, FrameBuf, WriteBuf};
use crate::dispatch::{dispatch, Response, SessionCtx};
use crate::readiness::{Event, Interest, Poller, Waker};

/// Stop reading from a connection whose unflushed responses exceed this
/// many bytes until the peer drains them (slow-reader backpressure).
const WRITE_HIGH_WATER: usize = 4 << 20;

/// Per-sweep read cap per connection, so one fire-hosing client cannot
/// starve its siblings within a sweep.
const READ_BURST: usize = 256 * 1024;

/// How long after write progress a connection stays *hot*: the loop
/// reads its socket directly on every iteration (one syscall, no
/// sweep), because the next pipelined request usually lands within a
/// round trip — far sooner than the paced sweep would notice.
const HOT_WINDOW: Duration = Duration::from_millis(2);

/// The park used while any connection is hot: short enough to catch a
/// round-trip arrival promptly, long enough not to busy-spin the core
/// the workers need.
const HOT_PARK: Duration = Duration::from_micros(200);

/// The event loop's minimum park/sweep pacing: the floor of the paced
/// sweep interval and the shortest idle park.
const POLL_FLOOR: Duration = Duration::from_millis(1);

/// Probe-cost pacing: a full readiness sweep costs one probe syscall
/// per connection, so consecutive sweeps are spaced by at least
/// `connections × SWEEP_COST_PER_CONN` (floored by [`POLL_FLOOR`],
/// capped by [`SWEEP_INTERVAL_MAX`]). Probing stays a bounded slice of
/// one core at any connection count; hot connections never wait on the
/// sweep cadence.
const SWEEP_COST_PER_CONN: Duration = Duration::from_micros(10);

/// Ceiling on the paced sweep interval: a quiet connection's new data,
/// EOF or flush retry is noticed within this bound.
const SWEEP_INTERVAL_MAX: Duration = Duration::from_millis(20);

/// Cadence of the full servicing pass that enforces idle and stall
/// timeouts on every connection (connections are otherwise serviced
/// only when events, completions or hot reads touch them).
const FULL_SCAN_INTERVAL: Duration = Duration::from_millis(20);

/// Server tuning. `solap-serve` sets the deployment fields from its
/// command-line flags; embedders set them in code.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878`. Port 0 picks a free port.
    pub addr: String,
    /// Maximum concurrent connections; excess ones are rejected.
    pub max_conn: usize,
    /// Maximum statements executing at once across all connections —
    /// the worker-pool size unless [`ServerConfig::workers`] overrides it.
    pub max_inflight: usize,
    /// Worker-pool size; `0` means "use `max_inflight`".
    pub workers: usize,
    /// How many statements one connection may have in flight (queued or
    /// executing) before the loop stops reading from its socket.
    pub pipeline_depth: usize,
    /// How long a queued job may wait for a worker before every
    /// statement in it is rejected with `over_capacity`.
    pub queue_timeout: Duration,
    /// Idle timeout: a connection with no in-flight work that sends no
    /// complete line for this long is closed.
    pub read_timeout: Duration,
    /// A connection whose pending responses make no write progress for
    /// this long is closed (stalled reader).
    pub write_timeout: Duration,
    /// Longest accepted request line, in bytes (`too_large` beyond).
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_owned(),
            max_conn: 1024,
            max_inflight: 16,
            workers: 0,
            pipeline_depth: 64,
            queue_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(120),
            write_timeout: Duration::from_secs(10),
            max_line_bytes: 1 << 20,
        }
    }
}

impl ServerConfig {
    /// The effective worker-pool size.
    pub fn worker_count(&self) -> usize {
        if self.workers == 0 {
            self.max_inflight.max(1)
        } else {
            self.workers
        }
    }
}

/// Cumulative server counters (monotonic except `active`).
#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    active: AtomicU64,
    rejected_conn: AtomicU64,
    rejected_queue: AtomicU64,
    served_ok: AtomicU64,
    served_err: AtomicU64,
    cancelled_disconnect: AtomicU64,
    conn_panics: AtomicU64,
    batches: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted (including later-rejected ones).
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Connections rejected by the `max_conn` limit.
    pub rejected_conn: u64,
    /// Statements rejected because no worker freed up in time.
    pub rejected_queue: u64,
    /// Statements answered with `ok: true`.
    pub served_ok: u64,
    /// Statements answered with a typed error.
    pub served_err: u64,
    /// Connections whose in-flight work was cancelled because the client
    /// disconnected.
    pub cancelled_disconnect: u64,
    /// Connections terminated by a panicking statement.
    pub conn_panics: u64,
    /// Batch jobs admitted to the worker pool.
    pub batches: u64,
    /// Statements executing in workers right now.
    pub executing: u64,
    /// Jobs waiting in the pool queue right now.
    pub queued: u64,
}

impl StatsSnapshot {
    /// Renders the counters as the `.server` response body.
    pub fn render_text(&self) -> String {
        format!(
            "server: {} accepted, {} active\n\
             rejected: {} connections, {} queued requests\n\
             served: {} ok, {} err ({} batches)\n\
             inflight now: {} executing, {} queued\n\
             cancelled by disconnect: {}\n\
             connection panics: {}\n",
            self.accepted,
            self.active,
            self.rejected_conn,
            self.rejected_queue,
            self.served_ok,
            self.served_err,
            self.batches,
            self.executing,
            self.queued,
            self.cancelled_disconnect,
            self.conn_panics,
        )
    }
}

/// A batch of statements from one connection, admitted to the pool as a
/// unit (sessions are stateful, so one connection's statements execute
/// serially on whichever worker takes the job).
struct Job {
    conn: u64,
    ctx: SessionCtx,
    statements: Vec<(u64, String)>,
    enqueued: Instant,
}

/// What a worker reports back to the event loop.
enum Completion {
    /// One statement finished; its response must flush at `seq`.
    Done {
        conn: u64,
        seq: u64,
        response: Response,
    },
    /// The whole job finished; the session context comes home.
    Finished { conn: u64, ctx: Box<SessionCtx> },
    /// A statement panicked; the session is lost and the connection must
    /// die. The worker survives.
    Panicked { conn: u64 },
}

/// The worker pool's shared half: a job queue, a completion queue and
/// the event-loop waker that makes responses flush promptly.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    stop: AtomicBool,
    executing: AtomicU64,
    completions: Mutex<Vec<Completion>>,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            queue: Mutex::ranked(
                parking_lot::rank::SERVER_POOL_QUEUE,
                "server.pool.queue",
                VecDeque::new(),
            ),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            executing: AtomicU64::new(0),
            completions: Mutex::ranked(
                parking_lot::rank::SERVER_POOL_COMPLETIONS,
                "server.pool.completions",
                Vec::new(),
            ),
        }
    }

    fn submit(&self, job: Job) {
        self.queue.lock().push_back(job);
        self.cv.notify_one();
    }

    fn complete(&self, completion: Completion) {
        self.completions.lock().push(completion);
    }

    fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock())
    }

    /// Removes and returns every queued job older than `timeout`.
    fn expire(&self, timeout: Duration) -> Vec<Job> {
        let mut queue = self.queue.lock();
        let mut expired = Vec::new();
        let mut i = 0;
        while let Some(job) = queue.get(i) {
            if job.enqueued.elapsed() > timeout {
                if let Some(job) = queue.remove(i) {
                    expired.push(job);
                }
            } else {
                i += 1;
            }
        }
        expired
    }

    fn queued(&self) -> usize {
        self.queue.lock().len()
    }

    /// Signals every worker to exit once the queue drains.
    fn stop_workers(&self) {
        // Set the flag under the queue lock so a worker between its
        // "queue empty?" check and its wait cannot miss the notify.
        let _queue = self.queue.lock();
        self.stop.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// State shared between the event loop, the workers and handles.
struct Shared {
    engine: Arc<Engine>,
    config: ServerConfig,
    stats: Stats,
    shutdown: AtomicBool,
    pool: Pool,
    waker: Waker,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            active: self.stats.active.load(Ordering::Relaxed),
            rejected_conn: self.stats.rejected_conn.load(Ordering::Relaxed),
            rejected_queue: self.stats.rejected_queue.load(Ordering::Relaxed),
            served_ok: self.stats.served_ok.load(Ordering::Relaxed),
            served_err: self.stats.served_err.load(Ordering::Relaxed),
            cancelled_disconnect: self.stats.cancelled_disconnect.load(Ordering::Relaxed),
            conn_panics: self.stats.conn_panics.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
            executing: self.pool.executing.load(Ordering::Relaxed),
            queued: self.pool.queued() as u64,
        }
    }
}

/// A response waiting in a connection's reorder stash.
struct Stashed {
    response: Response,
    /// Close the connection once this response (and everything before
    /// it) has flushed — quit, `too_large`, `shutting_down`.
    close: bool,
}

/// Per-connection state owned by the event loop. The socket itself lives
/// in the poller (one registration, one fd); everything here is
/// bookkeeping around it.
struct Conn {
    frames: FrameBuf,
    out: WriteBuf,
    /// The session, present iff no job is in flight for this connection.
    ctx: Option<Box<SessionCtx>>,
    cancel: CancelToken,
    /// Framed statements not yet admitted to the pool.
    pending: VecDeque<(u64, String)>,
    /// Out-of-order responses awaiting their turn (keyed by seq).
    stash: BTreeMap<u64, Stashed>,
    /// Next statement sequence number to assign.
    next_seq: u64,
    /// Next sequence number to append to `out`.
    flush_seq: u64,
    /// The peer hung up (no more reads; cancel in-flight work).
    gone: bool,
    /// Stop framing (terminal protocol error, e.g. an oversized line).
    read_closed: bool,
    /// Close the socket once `out` drains.
    close_after_flush: bool,
    /// The cancel token was tripped for in-flight work.
    cancel_sent: bool,
    /// Last read bytes / response activity (idle timeout).
    last_activity: Instant,
    /// When the current partial line started buffering, if any.
    line_started: Option<Instant>,
    /// When the current write stall started, if any.
    stalled_since: Option<Instant>,
}

impl Conn {
    fn new(engine: Arc<Engine>, max_line: usize) -> Conn {
        let ctx = Box::new(SessionCtx::new(engine));
        let cancel = ctx.cancel_token();
        Conn {
            frames: FrameBuf::new(max_line),
            out: WriteBuf::new(),
            ctx: Some(ctx),
            cancel,
            pending: VecDeque::new(),
            stash: BTreeMap::new(),
            next_seq: 0,
            flush_seq: 0,
            gone: false,
            read_closed: false,
            close_after_flush: false,
            cancel_sent: false,
            last_activity: Instant::now(),
            line_started: None,
            stalled_since: None,
        }
    }

    /// Work handed to the pool and not yet returned.
    fn job_in_flight(&self) -> bool {
        self.ctx.is_none()
    }

    /// Nothing queued, executing, stashed or unflushed.
    fn is_idle(&self) -> bool {
        !self.job_in_flight()
            && self.pending.is_empty()
            && self.stash.is_empty()
            && self.out.is_empty()
    }
}

/// A bound, not-yet-serving server. [`Server::serve`] runs the event
/// loop on the calling thread; [`Server::spawn`] is the common
/// bind-and-background convenience.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

/// A cloneable control handle: stats, address and graceful shutdown.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds the listener and prepares shared state. The engine arrives
    /// pre-built (see [`Engine::builder`]); the server never mutates it.
    pub fn bind(engine: Arc<Engine>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            config,
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            pool: Pool::new(),
            waker: Waker::new(),
        });
        Ok(Server {
            listener,
            local_addr,
            shared,
        })
    }

    /// Binds and starts serving on a background thread, returning the
    /// control handle and the event-loop join handle.
    pub fn spawn(
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> io::Result<(ServerHandle, std::thread::JoinHandle<io::Result<()>>)> {
        let server = Server::bind(engine, config)?;
        let handle = server.handle();
        let join = std::thread::Builder::new()
            .name("solap-loop".to_owned())
            .spawn(move || server.serve())?;
        Ok((handle, join))
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A control handle for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            local_addr: self.local_addr,
        }
    }

    /// Runs the event loop until [`ServerHandle::shutdown`], then drains:
    /// queued and executing statements finish and flush before this
    /// returns, and every worker thread is joined.
    pub fn serve(self) -> io::Result<()> {
        EventLoop::new(self.listener, self.shared)?.run()
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Initiates graceful drain: stop accepting, close idle connections,
    /// let queued and in-flight statements finish and flush. `serve()`
    /// returns once the last connection is drained.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.waker.wake();
    }
}

/// Sends a one-line typed rejection and closes the stream (used before a
/// connection is registered, while its socket is still blocking).
fn reject(mut stream: TcpStream, config: &ServerConfig, code: &str, msg: &str) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let line = Response::err(code, msg).wire_line();
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// The `server.request` failpoint: lets the chaos suite inject a typed
/// error, a delay or a panic at the top of statement handling, outside
/// the engine's own catch_unwind isolation (and therefore *inside* a
/// pool worker, exercising worker-level panic containment).
fn request_failpoint() -> solap_eventdb::Result<()> {
    fail_point!("server.request");
    Ok(())
}

fn execute_request(ctx: &mut SessionCtx, line: &str) -> Response {
    match request_failpoint() {
        Ok(()) => dispatch(ctx, line),
        Err(e) => Response::err(e.code(), e.to_string()),
    }
}

/// One pool worker: take a job, run its statements in order, report each
/// response as it lands, bring the session home. Panics are contained
/// here — the worker itself never dies.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        let mut job = {
            let mut queue = shared.pool.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.pool.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.pool.cv.wait(queue);
            }
        };
        let conn = job.conn;
        shared.pool.executing.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // solint: allow(governor-tick) statements, not events — each dispatch runs under its own governor
            for (seq, statement) in std::mem::take(&mut job.statements) {
                let response = execute_request(&mut job.ctx, &statement);
                let quit = response.quit;
                shared.pool.complete(Completion::Done {
                    conn,
                    seq,
                    response,
                });
                shared.waker.wake();
                if quit {
                    break;
                }
            }
        }));
        shared.pool.executing.fetch_sub(1, Ordering::Relaxed);
        match outcome {
            Ok(()) => shared.pool.complete(Completion::Finished {
                conn,
                ctx: Box::new(job.ctx),
            }),
            Err(_) => shared.pool.complete(Completion::Panicked { conn }),
        }
        shared.waker.wake();
    }
}

/// What one non-blocking read pass over a socket produced.
struct ReadPass {
    bytes: usize,
    eof: bool,
    broken: bool,
}

/// Reads until `WouldBlock`, EOF or the per-sweep burst cap.
fn read_pass(stream: &TcpStream, frames: &mut FrameBuf) -> ReadPass {
    let mut scratch = [0u8; 16 * 1024];
    let mut pass = ReadPass {
        bytes: 0,
        eof: false,
        broken: false,
    };
    loop {
        match (&*stream).read(&mut scratch) {
            Ok(0) => {
                pass.eof = true;
                return pass;
            }
            Ok(n) => {
                frames.push(scratch.get(..n).unwrap_or_default());
                pass.bytes += n;
                if pass.bytes >= READ_BURST {
                    return pass;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return pass
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                pass.broken = true;
                return pass;
            }
        }
    }
}

/// The event loop itself: owns the listener, the poller and every
/// connection's state.
struct EventLoop {
    listener: TcpListener,
    shared: Arc<Shared>,
    config: ServerConfig,
    poller: Poller<TcpStream>,
    conns: HashMap<u64, Conn>,
    /// Connections read directly each iteration, with the instant they
    /// turned hot (fresh accept or write progress; see [`HOT_WINDOW`]).
    hot: HashMap<u64, Instant>,
    next_id: u64,
    last_sweep: Instant,
    last_full_scan: Instant,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl EventLoop {
    fn new(listener: TcpListener, shared: Arc<Shared>) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let poller = Poller::with_waker(shared.waker.clone());
        let mut workers = Vec::new();
        for i in 0..shared.config.worker_count() {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("solap-worker-{i}"))
                    .spawn(move || worker_loop(shared))?,
            );
        }
        let config = shared.config.clone();
        let now = Instant::now();
        Ok(EventLoop {
            listener,
            shared,
            config,
            poller,
            conns: HashMap::new(),
            hot: HashMap::new(),
            next_id: 1,
            last_sweep: now,
            last_full_scan: now,
            workers,
        })
    }

    /// Minimum spacing between full probe sweeps, scaled by connection
    /// count so probe syscalls stay a bounded slice of the core.
    fn sweep_interval(&self) -> Duration {
        (SWEEP_COST_PER_CONN * self.conns.len() as u32)
            .min(SWEEP_INTERVAL_MAX)
            .max(POLL_FLOOR)
    }

    fn run(mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut dirty: Vec<u64> = Vec::new();
        let result = loop {
            let shutting_down = self.shared.shutdown.load(Ordering::SeqCst);
            if !shutting_down {
                if let Err(e) = self.accept_new() {
                    break Err(e);
                }
            }
            dirty.clear();
            self.drain_completions(&mut dirty);
            self.expire_queued_jobs(&mut dirty);
            self.probe_hot(&mut dirty);

            // Paced full sweep: one probe syscall per connection, spaced
            // by sweep_interval so probing cost is bounded regardless of
            // how often completions wake the loop.
            let now = Instant::now();
            if now.duration_since(self.last_sweep) >= self.sweep_interval() {
                self.last_sweep = now;
                self.poller.sweep_now(&mut events);
                // solint: allow(governor-tick) readiness events, not engine data — bounded by open connections
                for ev in &events {
                    if ev.readable || ev.hangup {
                        self.read_conn(ev.token);
                    }
                    dirty.push(ev.token);
                }
            }

            // Service only touched connections; a periodic full pass
            // (and every drain iteration) covers timeout enforcement.
            let now = Instant::now();
            if shutting_down || now.duration_since(self.last_full_scan) >= FULL_SCAN_INTERVAL {
                self.last_full_scan = now;
                self.service_all(shutting_down, now);
            } else if !dirty.is_empty() {
                dirty.sort_unstable();
                dirty.dedup();
                self.service_ids(&dirty, shutting_down, now);
            }
            if shutting_down && self.conns.is_empty() {
                break Ok(());
            }

            // Idle iteration: wait for a wake (worker completion,
            // shutdown) — briefly while a round trip is in flight, until
            // the next paced sweep otherwise.
            if dirty.is_empty() {
                let park = if !self.hot.is_empty() {
                    HOT_PARK
                } else {
                    self.sweep_interval()
                        .saturating_sub(self.last_sweep.elapsed())
                        .max(POLL_FLOOR)
                };
                self.poller.park(park);
            }
        };
        // Drain the pool and join every worker before returning.
        self.shared.pool.stop_workers();
        for worker in self.workers.drain(..) {
            // solint: allow(no-blocking-in-event-loop) shutdown drain: the loop is done serving; joining here is the liveness guarantee for Server::shutdown
            let _ = worker.join();
        }
        result
    }

    /// Reads every hot connection directly (one non-blocking read
    /// syscall each) so an active request/response conversation never
    /// stalls on the paced sweep.
    fn probe_hot(&mut self, dirty: &mut Vec<u64>) {
        if self.hot.is_empty() {
            return;
        }
        let now = Instant::now();
        let ids: Vec<u64> = self.hot.keys().copied().collect();
        for id in ids {
            let expired = self
                .hot
                .get(&id)
                .is_some_and(|t| now.duration_since(*t) > HOT_WINDOW);
            if expired || !self.conns.contains_key(&id) {
                self.hot.remove(&id);
                continue;
            }
            if self.read_conn(id) {
                self.hot.remove(&id);
                dirty.push(id);
            }
        }
    }

    /// Accepts until the listener would block, applying the `max_conn`
    /// admission gate.
    fn accept_new(&mut self) -> io::Result<()> {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (peer reset before accept,
                // fd pressure) should not take the server down.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => continue,
                Err(e) => return Err(e),
            };
            let config = &self.shared.config;
            self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
            if self.conns.len() >= config.max_conn {
                self.shared
                    .stats
                    .rejected_conn
                    .fetch_add(1, Ordering::Relaxed);
                reject(
                    stream,
                    config,
                    "over_capacity",
                    "connection limit reached — try again later",
                );
                continue;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            let conn = Conn::new(Arc::clone(&self.shared.engine), config.max_line_bytes);
            if self.poller.register(id, stream, Interest::READ).is_err() {
                continue;
            }
            self.conns.insert(id, conn);
            // A fresh client usually sends its first statement within a
            // round trip: read it directly instead of waiting a sweep.
            self.hot.insert(id, Instant::now());
            self.shared.stats.active.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds worker completions into their connections' stashes,
    /// marking the touched connections dirty.
    fn drain_completions(&mut self, dirty: &mut Vec<u64>) {
        for completion in self.shared.pool.take_completions() {
            match completion {
                Completion::Done {
                    conn,
                    seq,
                    response,
                } => {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        let close = response.quit;
                        c.stash.insert(seq, Stashed { response, close });
                        dirty.push(conn);
                    }
                }
                Completion::Finished { conn, ctx } => {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.ctx = Some(ctx);
                        dirty.push(conn);
                    }
                }
                Completion::Panicked { conn } => {
                    self.shared
                        .stats
                        .conn_panics
                        .fetch_add(1, Ordering::Relaxed);
                    // The session died with the panic: the connection
                    // closes without a response, its siblings unaffected.
                    self.remove_conn(conn);
                }
            }
        }
    }

    /// Rejects every statement of queued jobs that out-waited
    /// `queue_timeout`, returning their sessions to their connections.
    fn expire_queued_jobs(&mut self, dirty: &mut Vec<u64>) {
        let timeout = self.shared.config.queue_timeout;
        for job in self.shared.pool.expire(timeout) {
            self.shared
                .stats
                .rejected_queue
                .fetch_add(job.statements.len() as u64, Ordering::Relaxed);
            if let Some(c) = self.conns.get_mut(&job.conn) {
                // solint: allow(governor-tick) statement seqs of one expired job — bounded by pipeline_depth
                for (seq, _) in &job.statements {
                    c.stash.insert(
                        *seq,
                        Stashed {
                            response: Response::err(
                                "over_capacity",
                                "no execution slot became free in time — try again later",
                            ),
                            close: false,
                        },
                    );
                }
                c.ctx = Some(Box::new(job.ctx));
                dirty.push(job.conn);
            }
        }
    }

    /// Reads and frames whatever `token`'s socket has ready. Returns
    /// whether anything advanced (bytes arrived, EOF, or a broken read).
    fn read_conn(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if conn.gone || conn.read_closed {
            return false;
        }
        let Some(stream) = self.poller.get(token) else {
            return false;
        };
        let pass = read_pass(stream, &mut conn.frames);
        if pass.bytes > 0 {
            conn.last_activity = Instant::now();
        }
        if pass.eof || pass.broken {
            // A partial line without its terminator is dropped — the
            // peer hung up before finishing the request.
            conn.gone = true;
        }
        pass.bytes > 0 || pass.eof || pass.broken
    }

    /// Services every open connection (the periodic timeout pass and
    /// every drain iteration).
    fn service_all(&mut self, shutting_down: bool, now: Instant) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        self.service_ids(&ids, shutting_down, now);
    }

    fn service_ids(&mut self, ids: &[u64], shutting_down: bool, now: Instant) {
        let mut dead: Vec<u64> = Vec::new();
        for &id in ids {
            self.service_conn(id, shutting_down, now, &mut dead);
        }
        for id in dead {
            self.remove_conn(id);
        }
    }

    /// Per-connection servicing: frame extraction, inline statements,
    /// job admission, response reordering, flushing, timeouts, interest.
    fn service_conn(&mut self, id: u64, shutting_down: bool, now: Instant, dead: &mut Vec<u64>) {
        let config = &self.config;
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };

            // 1. Frame extraction, bounded by the pipeline depth and the
            // write high-water mark (backpressure).
            while !conn.read_closed
                && conn.pending.len() < config.pipeline_depth
                && conn.out.len() < WRITE_HIGH_WATER
            {
                match conn.frames.next_frame() {
                    None => break,
                    Some(Frame::Line(line)) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        let statement = line.trim().to_owned();
                        if shutting_down {
                            conn.stash.insert(
                                seq,
                                Stashed {
                                    response: Response::err(
                                        "shutting_down",
                                        "server is shutting down",
                                    ),
                                    close: true,
                                },
                            );
                        } else if statement == ".server" {
                            // Answered inline by the event loop, outside
                            // the worker pool: observability must work
                            // even when every worker is saturated.
                            conn.stash.insert(
                                seq,
                                Stashed {
                                    response: Response::ok(self.shared.snapshot().render_text()),
                                    close: false,
                                },
                            );
                        } else {
                            conn.pending.push_back((seq, statement));
                        }
                    }
                    Some(Frame::TooLong) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.stash.insert(
                            seq,
                            Stashed {
                                response: Response::err(
                                    "too_large",
                                    format!("request exceeds {} bytes", config.max_line_bytes),
                                ),
                                close: true,
                            },
                        );
                        conn.read_closed = true;
                    }
                    Some(Frame::BadEncoding) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.stash.insert(
                            seq,
                            Stashed {
                                response: Response::err(
                                    "bad_request",
                                    "request is not valid UTF-8",
                                ),
                                close: false,
                            },
                        );
                    }
                }
            }
            conn.line_started = match (conn.frames.buffered() > 0, conn.line_started) {
                (true, None) => Some(now),
                (true, started) => started,
                (false, _) => None,
            };

            // 2. Batch admission: hand every contiguously pending
            // statement to the pool as one job.
            if !conn.pending.is_empty() && !conn.close_after_flush {
                if let Some(ctx) = conn.ctx.take() {
                    let statements: Vec<(u64, String)> = conn.pending.drain(..).collect();
                    self.shared.stats.batches.fetch_add(1, Ordering::Relaxed);
                    self.shared.pool.submit(Job {
                        conn: id,
                        ctx: *ctx,
                        statements,
                        enqueued: now,
                    });
                }
            }

            // 3. Disconnect: trip the cancel token exactly once so the
            // governor aborts in-flight work; the disconnect is *counted*
            // only when the cancelled job comes home (by then its
            // governor failure is observable, matching PR-5 ordering).
            // An idle disconnected connection is simply removed.
            if conn.gone && !conn.cancel_sent && conn.job_in_flight() {
                conn.cancel_sent = true;
                conn.cancel.cancel();
            }
            if conn.gone && !conn.job_in_flight() {
                if conn.cancel_sent {
                    self.shared
                        .stats
                        .cancelled_disconnect
                        .fetch_add(1, Ordering::Relaxed);
                }
                dead.push(id);
                return;
            }

            // 4. Reorder stash → write buffer, in sequence order.
            // solint: allow(governor-tick) response seqs, not engine data — bounded by pipeline_depth
            while let Some(stashed) = conn.stash.remove(&conn.flush_seq) {
                conn.flush_seq += 1;
                if !conn.gone {
                    if stashed.response.ok {
                        self.shared.stats.served_ok.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.shared.stats.served_err.fetch_add(1, Ordering::Relaxed);
                    }
                    conn.out.append(stashed.response.wire_line().as_bytes());
                    conn.last_activity = now;
                }
                if stashed.close {
                    conn.close_after_flush = true;
                    conn.pending.clear();
                    conn.stash.clear();
                    break;
                }
            }

            // 5. Flush as much as the socket accepts.
            if !conn.out.is_empty() {
                let Some(stream) = self.poller.get(id) else {
                    dead.push(id);
                    return;
                };
                let mut progressed = false;
                let mut broken = false;
                while !conn.out.is_empty() {
                    match (&*stream).write(conn.out.pending()) {
                        Ok(0) => {
                            broken = true;
                            break;
                        }
                        Ok(n) => {
                            conn.out.advance(n);
                            progressed = true;
                        }
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                            ) =>
                        {
                            break
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            broken = true;
                            break;
                        }
                    }
                }
                if broken {
                    // The peer is unreachable: treat like a disconnect so
                    // in-flight work gets cancelled (counted when the
                    // cancelled job comes home, as above).
                    conn.gone = true;
                    if !conn.cancel_sent && conn.job_in_flight() {
                        conn.cancel_sent = true;
                        conn.cancel.cancel();
                    }
                    if !conn.job_in_flight() {
                        dead.push(id);
                        return;
                    }
                } else if progressed {
                    conn.stalled_since = None;
                    // The peer just consumed responses; its next request
                    // usually lands within a round trip — keep it hot.
                    if !conn.gone && !conn.read_closed && !conn.close_after_flush {
                        self.hot.insert(id, now);
                    }
                } else if conn.stalled_since.is_none() {
                    conn.stalled_since = Some(now);
                }
            } else {
                conn.stalled_since = None;
            }

            // 6. Close-after-flush (quit / too_large / shutting_down).
            if conn.close_after_flush && conn.out.is_empty() && !conn.job_in_flight() {
                dead.push(id);
                return;
            }

            // 7. Timeouts: write stall, idle peer, stalled partial line.
            if let Some(stalled) = conn.stalled_since {
                if now.duration_since(stalled) > config.write_timeout {
                    dead.push(id);
                    return;
                }
            }
            let partial_stalled = conn
                .line_started
                .is_some_and(|t| now.duration_since(t) > config.read_timeout);
            if partial_stalled
                || (conn.is_idle() && now.duration_since(conn.last_activity) > config.read_timeout)
            {
                dead.push(id);
                return;
            }

            // 8. Drain: close idle connections once shutdown starts.
            if shutting_down && conn.is_idle() {
                dead.push(id);
                return;
            }

            // 9. Refresh poller interest.
            let read = !conn.gone
                && !conn.read_closed
                && !conn.close_after_flush
                && conn.pending.len() < config.pipeline_depth
                && conn.out.len() < WRITE_HIGH_WATER;
            let write = !conn.out.is_empty();
            self.poller.set_interest(id, Interest { read, write });
        }
    }

    /// Closes and forgets a connection (socket, buffers, session).
    fn remove_conn(&mut self, id: u64) {
        if self.conns.remove(&id).is_some() {
            self.shared.stats.active.fetch_sub(1, Ordering::Relaxed);
        }
        self.hot.remove(&id);
        if let Some(stream) = self.poller.deregister(id) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}
