//! Query resource governance: deadlines, cell budgets and cooperative
//! cancellation.
//!
//! A production engine must treat runaway queries as the common case: a
//! pattern template with explosive match counts, an APPEND chain that
//! inflates the pattern length, or a grouping that materialises millions of
//! cells can otherwise only be stopped by killing the process. The
//! [`QueryGovernor`] is created per query from the engine configuration and
//! threaded by reference through every construction hot loop (sequence
//! formation, occurrence enumeration, counter scans, index builds and the
//! parallel workers). Loops call [`QueryGovernor::tick`] once per unit of
//! work; the deadline and the cancel flag are actually consulted only every
//! [`CHECK_INTERVAL`] ticks, so an over-limit query aborts within a bounded
//! number of events scanned while the per-event cost stays an increment and
//! a branch.
//!
//! The cell budget is charged eagerly via [`QueryGovernor::charge_cells`]
//! whenever a loop materialises a new cell-like entry (an aggregation cell,
//! a sequence cluster, a dense counter block), so memory growth is bounded
//! even when time is not.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};
use crate::metrics::QueryRecorder;

/// How many [`QueryGovernor::tick`] calls elapse between two consultations
/// of the wall clock and the cancel flag. An over-limit query is therefore
/// detected after scanning at most `CHECK_INTERVAL` further events per
/// worker.
pub const CHECK_INTERVAL: u32 = 1024;

/// A cooperative cancellation flag, cheaply cloneable and sharable across
/// threads. Cancelling is a one-way latch until [`CancelToken::reset`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation of every query observing this token.
    pub fn cancel(&self) {
        // ord: standalone advisory flag — no other memory is published with it; cooperative checks tolerate a bounded-stale read
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Clears the flag so subsequent queries run normally.
    pub fn reset(&self) {
        // ord: see cancel() — advisory flag, no associated payload
        self.flag.store(false, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        // ord: a stale false only defers the abort to the next check interval; no data depends on this load
        self.flag.load(Ordering::Relaxed)
    }
}

/// Per-query resource limits plus consumption counters.
///
/// The governor is shared by reference across the parallel construction
/// workers of one query; all counters are atomic. A `None` limit means
/// unbounded, and with no limits and no cancel token every check is a
/// single relaxed atomic increment.
#[derive(Debug)]
pub struct QueryGovernor {
    deadline: Option<Instant>,
    timeout_ms: u64,
    budget_cells: Option<u64>,
    cancel: Option<CancelToken>,
    cells: AtomicU64,
    /// Ticks so far, shared across workers; every `CHECK_INTERVAL`th one
    /// consults the limits.
    events: AtomicU64,
    /// Observability recorder for this query, if profiling is enabled.
    /// Piggy-backs on the governor because the governor is already threaded
    /// by reference through every construction hot loop and worker.
    recorder: Option<Arc<QueryRecorder>>,
}

impl QueryGovernor {
    /// A governor enforcing the given limits. `timeout` starts counting
    /// immediately (construction time is query start time).
    pub fn new(
        timeout: Option<Duration>,
        budget_cells: Option<u64>,
        cancel: Option<CancelToken>,
    ) -> Self {
        QueryGovernor {
            deadline: timeout.map(|t| Instant::now() + t),
            timeout_ms: timeout.map_or(0, |t| t.as_millis() as u64),
            budget_cells,
            cancel,
            cells: AtomicU64::new(0),
            events: AtomicU64::new(0),
            recorder: None,
        }
    }

    /// Attaches a per-query observability recorder; construction loops
    /// reach it through [`QueryGovernor::recorder`].
    pub fn with_recorder(mut self, recorder: Arc<QueryRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The attached observability recorder, if profiling is enabled for
    /// this query.
    #[inline]
    pub fn recorder(&self) -> Option<&QueryRecorder> {
        self.recorder.as_deref()
    }

    /// A governor with no limits, for tests, benches and the ungoverned
    /// conveniences they call. Serving code may use it only where
    /// something else bounds the work (solint's `ungoverned` rule).
    pub fn unbounded() -> Self {
        QueryGovernor::new(None, None, None)
    }

    /// Whether any limit or token is configured at all.
    pub fn is_bounded(&self) -> bool {
        self.deadline.is_some() || self.budget_cells.is_some() || self.cancel.is_some()
    }

    /// Marks one unit of scan work (an event visited, a match-window
    /// attempted, a posting-list entry verified). The deadline and cancel
    /// flag are consulted every [`CHECK_INTERVAL`] ticks.
    #[inline]
    pub fn tick(&self) -> Result<()> {
        // ord: a pure work counter — workers only accumulate; totals are read after the query joins its workers, and fetch_add's atomicity alone guarantees exactly one thread sees each multiple of the interval
        let ticked = self.events.fetch_add(1, Ordering::Relaxed) + 1;
        if !ticked.is_multiple_of(CHECK_INTERVAL as u64) {
            return Ok(());
        }
        self.check_now()
    }

    /// Marks `n` units of scan work at once — a block-at-a-time kernel's
    /// [`QueryGovernor::tick`]. The deadline and cancel flag are consulted
    /// exactly when the running total crosses a multiple of
    /// [`CHECK_INTERVAL`] (once, however many it crosses), so the ticks
    /// counted and the check points match `n` single ticks.
    #[inline]
    pub fn tick_n(&self, n: u64) -> Result<()> {
        // ord: see tick() — a pure work counter
        let before = self.events.fetch_add(n, Ordering::Relaxed);
        let interval = u64::from(CHECK_INTERVAL);
        if before / interval == (before + n) / interval {
            return Ok(());
        }
        self.check_now()
    }

    /// Consults the deadline and the cancel flag immediately (used at loop
    /// boundaries — group starts, worker spawn/join — where a prompt check
    /// is cheap).
    pub fn check_now(&self) -> Result<()> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Err(Error::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            let now = Instant::now();
            if now >= d {
                let over = now.duration_since(d).as_millis() as u64;
                return Err(Error::ResourceExhausted {
                    resource: "time_ms",
                    limit: self.timeout_ms,
                    consumed: self.timeout_ms + over,
                });
            }
        }
        Ok(())
    }

    /// Charges `n` newly materialised cells against the budget. Cells are
    /// counted across all workers of the query; thread-local duplicates of
    /// the same logical cell may be charged more than once, so the budget
    /// bounds memory growth rather than the exact result cardinality.
    pub fn charge_cells(&self, n: u64) -> Result<()> {
        // ord: fetch_add's return value is exact for this thread's charge; the budget comparison needs no cross-variable ordering
        let total = self.cells.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(limit) = self.budget_cells {
            if total > limit {
                return Err(Error::ResourceExhausted {
                    resource: "cells",
                    limit,
                    consumed: total,
                });
            }
        }
        Ok(())
    }

    /// Cells charged so far.
    pub fn cells_consumed(&self) -> u64 {
        // ord: diagnostic read; exact totals are only read after worker join, which synchronizes
        self.cells.load(Ordering::Relaxed)
    }

    /// Scan-work units ticked so far.
    pub fn events_ticked(&self) -> u64 {
        // ord: see cells_consumed()
        self.events.load(Ordering::Relaxed)
    }
}

impl Default for QueryGovernor {
    fn default() -> Self {
        QueryGovernor::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_trips() {
        let g = QueryGovernor::unbounded();
        for _ in 0..(CHECK_INTERVAL * 3) {
            g.tick().unwrap();
        }
        g.charge_cells(u64::MAX / 2).unwrap();
        assert!(!g.is_bounded());
        assert_eq!(g.events_ticked(), (CHECK_INTERVAL * 3) as u64);
    }

    #[test]
    fn expired_deadline_trips_within_one_interval() {
        let g = QueryGovernor::new(Some(Duration::ZERO), None, None);
        let mut failed_at = None;
        for i in 0..=(CHECK_INTERVAL as usize) {
            if g.tick().is_err() {
                failed_at = Some(i);
                break;
            }
        }
        let at = failed_at.expect("deadline must trip within CHECK_INTERVAL ticks");
        assert!(at < CHECK_INTERVAL as usize + 1, "bounded overrun: {at}");
        // The error is typed.
        let err = g.check_now().unwrap_err();
        assert!(matches!(
            err,
            Error::ResourceExhausted {
                resource: "time_ms",
                ..
            }
        ));
    }

    #[test]
    fn tick_n_checks_where_single_ticks_would() {
        let interval = u64::from(CHECK_INTERVAL);
        // Below the first boundary: no check, even past a deadline.
        let g = QueryGovernor::new(Some(Duration::ZERO), None, None);
        g.tick_n(interval - 1).unwrap();
        g.tick_n(0).unwrap();
        // Reaching the boundary exactly checks, as the interval-th tick does.
        assert!(g.tick_n(1).is_err());
        assert_eq!(g.events_ticked(), interval);
        // One call crossing several boundaries at once checks (once).
        let g = QueryGovernor::new(Some(Duration::ZERO), None, None);
        g.tick_n(interval / 2).unwrap();
        assert!(g.tick_n(3 * interval).is_err());
        assert_eq!(g.events_ticked(), interval / 2 + 3 * interval);
        // Within one interval after a boundary: no check again.
        let g = QueryGovernor::new(Some(Duration::ZERO), None, None);
        assert!(g.tick_n(interval).is_err());
        g.tick_n(interval - 1).unwrap();
        assert!(g.tick_n(1).is_err());
        // Unbounded: crossing boundaries never trips, and counts add up.
        let g = QueryGovernor::unbounded();
        g.tick_n(5 * interval + 7).unwrap();
        g.tick().unwrap();
        assert_eq!(g.events_ticked(), 5 * interval + 8);
    }

    #[test]
    fn cell_budget_trips_exactly() {
        let g = QueryGovernor::new(None, Some(10), None);
        g.charge_cells(10).unwrap();
        let err = g.charge_cells(1).unwrap_err();
        assert_eq!(
            err,
            Error::ResourceExhausted {
                resource: "cells",
                limit: 10,
                consumed: 11
            }
        );
    }

    #[test]
    fn cancel_token_latches_and_resets() {
        let token = CancelToken::new();
        let g = QueryGovernor::new(None, None, Some(token.clone()));
        g.check_now().unwrap();
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(g.check_now().unwrap_err(), Error::Cancelled);
        token.reset();
        g.check_now().unwrap();
    }

    #[test]
    fn cancellation_observed_across_threads() {
        let token = CancelToken::new();
        let g = QueryGovernor::new(None, None, Some(token.clone()));
        std::thread::scope(|s| {
            s.spawn(|| token.cancel());
        });
        assert_eq!(g.check_now().unwrap_err(), Error::Cancelled);
        token.reset();
    }
}
