//! # solap-core
//!
//! The S-OLAP engine — the primary contribution of "OLAP on Sequence Data"
//! (SIGMOD 2008), reproduced in Rust.
//!
//! S-OLAP extends OLAP to sequence data: a sequence can be characterised not
//! only by the attribute values of its constituting events but by the
//! substring/subsequence patterns it possesses, enabling **pattern-based
//! grouping and aggregation**. This crate implements:
//!
//! * [`spec::SCuboidSpec`] — the full S-cuboid specification (Figure 3):
//!   selection, clustering, sequence formation, sequence grouping, pattern
//!   grouping (template + cell restriction + matching predicate) and the
//!   aggregate function.
//! * [`cuboid::SCuboid`] — the computed sequence cuboid: cells keyed by
//!   global-dimension and pattern-dimension values.
//! * [`cb`] — the counter-based construction approach (§4.2.1, Figure 7).
//! * [`ii`] — the inverted-index approach (§4.2.2, Figures 9/15): on-demand
//!   index building, joins from the largest available prefix index,
//!   verification scans, and the P-ROLL-UP merge / P-DRILL-DOWN refinement
//!   fast paths.
//! * [`engine::Engine`] — the S-OLAP engine of Figure 6, wiring the
//!   sequence cache, index store and cuboid repository together. Every
//!   statement runs through one of its entries (`execute_configured`,
//!   `execute_op_configured`, `execute_regex_configured`,
//!   `append_events_configured`) under its session's
//!   [`QueryGovernor`](solap_eventdb::QueryGovernor).
//! * [`ops`] / [`session::Session`] — the six S-OLAP operations (APPEND,
//!   PREPEND, DE-TAIL, DE-HEAD, P-ROLL-UP, P-DRILL-DOWN) plus the classical
//!   roll-up/drill-down/slice on global dimensions, with interactive
//!   navigation state.
//! * [`lattice`] — the S-cube partial order (§3.4) and its
//!   non-summarizability.
//! * §6 extensions: [`iceberg`] (minimum-support cells).
//! * [`ingest`] — the store path (`STORE`): stage → carry → publish →
//!   retire, carrying cached sequence groups and inverted indices forward
//!   over a new day of events without a full rebuild (§6 "Incremental
//!   Update").
//! * [`plan`] — cost-based planning over the S-cube lattice: a calibrated
//!   [`plan::CostModel`], a [`plan::Planner`] that enumerates CB / II /
//!   ancestor-reuse alternatives, and the index-materialization advisor
//!   ([`plan::Planner::advise`], §4.2.2's open problem).
//! * Future-work prototypes the paper calls out: [`regexq`]
//!   (regular-expression pattern templates, §3.2), run through
//!   [`Engine::execute_regex_configured`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cb;
pub mod cuboid;
pub mod engine;
pub mod iceberg;
pub mod ii;
pub mod ingest;
pub mod lattice;
pub mod ops;
pub mod plan;
pub mod regexq;
pub mod repo;
pub mod session;
pub mod spec;
pub mod stats;

pub use cuboid::{CellKey, SCuboid};
pub use engine::{DbGuard, Engine, EngineBuilder, EngineConfig, QueryOutput, Strategy};
pub use ingest::StoreReport;
pub use ops::Op;
pub use plan::{
    CostEstimate, CostModel, PlanAlternative, PlanChoice, PlanContext, PlanReport, Planner,
    QueryPlan,
};
pub use repo::RepoStats;
pub use session::{HistoryEntry, Session, HISTORY_CAP};
pub use spec::SCuboidSpec;
pub use stats::ExecStats;
