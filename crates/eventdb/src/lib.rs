//! # solap-eventdb
//!
//! The event-database substrate of the S-OLAP system ("OLAP on Sequence
//! Data", SIGMOD 2008, §3.1 and §4.1).
//!
//! An S-OLAP system starts from an *event database*: a fact table of events,
//! each with dimension attributes (optionally organised in concept
//! hierarchies) and measure attributes. This crate provides:
//!
//! * [`Value`] / [`schema::Schema`] — the typed data model (integers,
//!   floats, strings, timestamps).
//! * [`store::EventDb`] — a dictionary-encoded, columnar, in-memory event
//!   store with an append API.
//! * [`hierarchy`] — concept hierarchies: explicit dictionary hierarchies
//!   (e.g. `station → district`), integer-keyed hierarchies (e.g.
//!   `individual → fare-group` over card ids) and functional time
//!   hierarchies (`time → hour → day → week → month → quarter`).
//! * [`pred`] — event-selection predicates (the `WHERE` clause).
//! * [`seqquery`] — the sequence query engine implementing steps 1–4 of
//!   S-cuboid formation (Figure 4 of the paper): event selection,
//!   clustering, sequence formation and sequence grouping.
//! * [`seqcache`] — the *Sequence Cache* of the prototype architecture
//!   (Figure 6), an LRU cache of constructed sequence groups.
//! * [`persist`] — warehouse persistence: save/load the whole event
//!   database (columns, dictionaries, hierarchies) in a compact binary
//!   format.
//! * [`govern`] — per-query resource governance: deadlines, cell budgets
//!   and cooperative cancellation, checked at bounded intervals in every
//!   construction hot loop.
//! * [`failpoint`] — a zero-cost-when-disabled fault-injection facility
//!   (`SOLAP_FAILPOINTS`) used by the chaos test suite.
//! * [`metrics`] — query-level observability, always on: per-stage
//!   counters and span timers aggregated into per-query [`QueryProfile`]s
//!   and process-wide [`EngineMetrics`].
//!
//! The paper offloads steps 1–4 to "an existing sequence database query
//! engine"; no such engine exists in the Rust ecosystem, so this crate *is*
//! that engine, built from scratch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dict;
pub mod error;
pub mod failpoint;
pub mod govern;
pub mod hierarchy;
pub mod log;
pub mod lru;
pub mod metrics;
pub mod persist;
pub mod pred;
pub mod schema;
pub mod seqcache;
pub mod seqquery;
pub mod store;
pub mod time;
pub mod value;
pub mod wal;

pub use dict::Dictionary;
pub use error::{panic_message, Error, Result};
pub use govern::{CancelToken, QueryGovernor, CHECK_INTERVAL};
pub use hierarchy::{DictHierarchy, Hierarchy, IntHierarchy, TimeGranularity, TimeHierarchy};
pub use log::{EventLog, RecoveryReport, SegmentMeta};
pub use metrics::{Counter, EngineMetrics, QueryProfile, QueryRecorder, Stage};
pub use pred::{CmpOp, Pred};
pub use schema::{AttrId, ColumnDef, ColumnType, Role, Schema};
pub use seqquery::{
    build_sequence_groups, build_sequence_groups_governed, form_sequences, AttrLevel, SeqQuerySpec,
    Sequence, SequenceGroup, SequenceGroups, SortKey,
};
pub use store::{EventDb, EventDbBuilder};
pub use value::{LevelValue, RowId, Sid, Value};
pub use wal::FsyncPolicy;
