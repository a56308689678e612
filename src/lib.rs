//! # s-olap
//!
//! A from-scratch Rust reproduction of **"OLAP on Sequence Data"** (Lo,
//! Kao, Ho, Lee, Chui, Cheung — SIGMOD 2008): an S-OLAP system supporting
//! *pattern-based grouping and aggregation* over sequence data.
//!
//! A sequence can be characterised not only by the attribute values of its
//! constituting events but by the substring/subsequence patterns it
//! possesses. An S-OLAP query such as the paper's Q1 — *"the number of
//! round-trip passengers and their distributions over all
//! origin-destination station pairs"* — groups sequences by the pattern
//! `(X, Y, Y, X)` and tabulates a **sequence cuboid** over the pattern
//! dimensions `X`, `Y` and any global dimensions.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`eventdb`] — the event database substrate: columnar store, concept
//!   hierarchies, the sequence query engine (steps 1–4 of S-cuboid
//!   formation), and the sequence cache.
//! * [`pattern`] — pattern templates, matching, cell restrictions and
//!   matching predicates (step 5), and aggregation (step 6).
//! * [`index`] — inverted indices: BUILDINDEX, joins, merges, bitmap sets.
//! * [`core`] — the S-OLAP engine: counter-based and inverted-index
//!   construction, the cuboid repository, the six S-OLAP operations,
//!   navigation sessions, the S-cube lattice, the §6 extensions (iceberg,
//!   incremental update) and regex-template queries, every statement
//!   under its session's governor.
//! * [`query`] — the Figure-3 query language (lexer + parser).
//! * [`datagen`] — seeded data generators: the §5.2 synthetic workload and
//!   the transit/clickstream substitutes for the paper's proprietary
//!   datasets.
//! * [`server`] — the multi-client serving layer: a TCP server sharing one
//!   engine across per-connection sessions, the wire-protocol client, and
//!   the statement-dispatch layer shared with the REPL.
//!
//! ## Quickstart
//!
//! ```
//! use s_olap::prelude::*;
//!
//! // A small transit dataset (Figure 1's schema, all hierarchies attached).
//! let db = s_olap::datagen::generate_transit(&Default::default()).unwrap();
//! let engine = Engine::new(db);
//!
//! // The paper's Q3: single-trip origin/destination distribution.
//! let spec = s_olap::query::parse_query(
//!     &engine.db(),
//!     r#"
//!     SELECT COUNT(*) FROM Event
//!     CLUSTER BY card-id AT individual, time AT day
//!     SEQUENCE BY time ASCENDING
//!     CUBOID BY SUBSTRING (X, Y)
//!       WITH X AS location AT station, Y AS location AT station
//!       LEFT-MAXIMALITY (x1, y1)
//!       WITH x1.action = "in" AND y1.action = "out"
//!     "#,
//! )
//! .unwrap();
//! let out = engine.execute(&spec).unwrap();
//! assert!(out.cuboid.len() > 0);
//! ```

#![forbid(unsafe_code)]

pub use solap_core as core;
pub use solap_datagen as datagen;
pub use solap_eventdb as eventdb;
pub use solap_index as index;
pub use solap_pattern as pattern;
pub use solap_query as query;
pub use solap_server as server;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use solap_core::{
        Engine, EngineConfig, Op, QueryOutput, SCuboid, SCuboidSpec, Session, Strategy,
    };
    pub use solap_eventdb::{
        AttrLevel, CancelToken, CmpOp, ColumnType, EventDb, EventDbBuilder, Pred, QueryGovernor,
        QueryProfile, SortKey, Value,
    };
    pub use solap_pattern::{
        AggFunc, CellRestriction, MatchPred, PatternKind, PatternTemplate, SumMode,
    };
    pub use solap_query::{parse_query, parse_statement, ExplainMode, Statement};
}
