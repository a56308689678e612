//! # solap-server
//!
//! Concurrent query serving for the S-OLAP engine — the layer that turns
//! the single-process prototype of Figure 6 into a multi-client system.
//!
//! The paper's architecture puts a *query engine* behind user sessions
//! that navigate cuboids interactively (§5's Qa → Qb → Qc explorations).
//! This crate reproduces that shape as infrastructure:
//!
//! * [`dispatch`](mod@crate::dispatch) — the shared statement-dispatch layer. The REPL,
//!   `solap --eval` scripts and every server connection execute
//!   statements through the same [`dispatch::dispatch`] function over a
//!   [`dispatch::SessionCtx`], so the surfaces cannot drift.
//! * [`server`] — a zero-dependency (`std::net` + `std::thread`)
//!   readiness-driven TCP server: one event loop multiplexes every
//!   non-blocking accepted socket through the [`readiness`] shim, frames
//!   statements incrementally ([`conn`]), and hands batches to a bounded
//!   worker pool sharing one [`Engine`](solap_core::Engine) — with
//!   request pipelining, admission control, disconnect-triggered query
//!   cancellation, hostile-input guards, panic isolation and graceful
//!   shutdown.
//! * [`readiness`] — the zero-`unsafe` poll-style multiplexer (probe via
//!   non-blocking peeks, parked waits cut short by a [`readiness::Waker`]).
//! * [`conn`] — per-connection incremental line framing and the
//!   cursor-compacted write buffer.
//! * [`client`] — the protocol client library (used by `solap
//!   --connect` and the chaos, soak and framing suites), including the
//!   pipelined batch API.
//! * [`command`] — argument parsing for the `.op` sub-language, `k=v`
//!   option lists and the dataset generators.
//! * [`json`] — the minimal JSON encoder/parser behind the wire format
//!   (the build environment has no crates.io access).
//!
//! ## Protocol
//!
//! Requests are newline-terminated statements in the Figure-3 query
//! language or dot-command syntax — exactly what the REPL accepts, minus
//! the engine-lifecycle commands (`.gen`/`.save`/`.load`, which are
//! rejected with code `unsupported`). Responses are one JSON line each:
//!
//! ```text
//! {"ok":true,"body":"…rendered output…"}
//! {"ok":true,"body":"…","profile":{…}}          (with .profile on)
//! {"ok":false,"code":"resource_exhausted","error":"…"}
//! ```
//!
//! Error codes are stable and machine-readable: the engine's
//! [`Error::code`](solap_eventdb::Error::code) values plus the surface
//! codes `usage`, `unsupported`, `over_capacity`, `too_large`,
//! `bad_request` and `shutting_down`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod command;
pub mod conn;
pub mod dispatch;
pub mod json;
pub mod readiness;
pub mod server;

pub use client::{Client, WireResponse};
pub use dispatch::{dispatch, Response, SessionCtx};
pub use server::{Server, ServerConfig, ServerHandle, StatsSnapshot};
