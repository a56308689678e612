//! # solap-pattern
//!
//! Pattern-based grouping machinery for S-OLAP ("OLAP on Sequence Data",
//! SIGMOD 2008, §3.2 step 5): the biggest distinction of an S-OLAP system
//! from a traditional OLAP system is that a sequence can be characterised
//! not only by attribute values but by the substring/subsequence patterns it
//! possesses.
//!
//! This crate provides:
//!
//! * [`template::PatternTemplate`] — `SUBSTRING (X, Y, Y, X)`-style pattern
//!   templates: a list of symbols, each bound to a *pattern dimension*
//!   (an attribute at an abstraction level).
//! * [`template::CellRestriction`] — what content of a data sequence is
//!   assigned to a cell when it matches: *left-maximality-matched-go*,
//!   *left-maximality-data-go*, or *all-matched-go*.
//! * [`mpred::MatchPred`] — matching predicates over event placeholders
//!   (`x1.action = "in" AND y1.action = "out"` …).
//! * [`matcher`] — occurrence enumeration and per-sequence cell assignment
//!   for both substring and subsequence templates.
//! * [`code`] — packed cell codes: a cell as one integer laid out from the
//!   dictionary cardinalities, and the `cell → V` table built on it.
//! * [`agg`] — the aggregate functions applied to each S-cuboid cell
//!   (COUNT, and the SUM/AVG/MIN/MAX extensions the paper sketches).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod code;
pub mod matcher;
pub mod mpred;
pub mod regex;
pub mod template;

pub use agg::{AggFunc, AggState, AggValue, SumMode};
pub use code::{Cell, CellCodec, CellMap, CellMapBuilder, CellTable};
pub use matcher::{AssignedContent, Assignment, Content, Matcher, Occurrence};
pub use mpred::MatchPred;
pub use regex::{regex_counts, RegexElem, RegexMatcher, RegexOccurrence, RegexTemplate};
pub use template::{CellRestriction, PatternDim, PatternKind, PatternTemplate, TemplateSignature};
