//! # solap-query
//!
//! The S-cuboid specification language of Figure 3 — a lexer and
//! recursive-descent parser producing [`solap_core::SCuboidSpec`].
//!
//! The grammar (inspired by SQL-TS; the paper's full grammar lived in a
//! technical report that is no longer accessible, so this reconstruction
//! covers every construct shown in Figures 3, 5 and 11 plus the navigation
//! extensions this implementation adds):
//!
//! ```text
//! query      := SELECT agg FROM ident
//!               [WHERE pred]
//!               [CLUSTER BY attr-level ("," attr-level)*]
//!               [SEQUENCE BY ident [ASCENDING|DESCENDING] ("," …)*]
//!               [SEQUENCE GROUP BY attr-level ("," attr-level)*]
//!               CUBOID BY (SUBSTRING | SUBSEQUENCE) "(" sym ("," sym)* ")"
//!               WITH sym AS ident AT ident ("," …)*
//!               restriction "(" placeholder ("," placeholder)* ")"
//!               [WITH match-pred]
//!               (SLICE PATTERN sym "=" string)*
//!               (SLICE GROUP ident "=" string)*
//!               [HAVING COUNT ">=" integer]
//! agg        := COUNT "(" "*" ")" | (SUM|SUM-FIRST|AVG|AVG-FIRST|MIN|MAX) "(" ident ")"
//! attr-level := ident AT ident
//! restriction:= LEFT-MAXIMALITY | LEFT-MAXIMALITY-DATA | ALL-MATCHED
//! pred       := or over and over (NOT | "(" pred ")" | ident op literal | ident IN "(" literal,* ")")
//! match-pred := same shape, with placeholder "." ident op literal atoms
//! ```
//!
//! Keywords are case-insensitive; identifiers may contain hyphens
//! (`card-id`, `fare-group`), and string literals use double quotes.
//! [`solap_core::SCuboidSpec::render`] emits this language; parse ∘ render
//! is a fixpoint (property-tested).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod parser;
pub mod regex_parser;

pub use lexer::{tokenize, Token, TokenKind};
pub use parser::{
    parse_query, parse_statement, parse_store, ExplainMode, Statement, StoreStatement,
};
pub use regex_parser::{is_regex_query, parse_regex_query, RegexQuery};
