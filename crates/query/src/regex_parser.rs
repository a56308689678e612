//! Parsing for regex-template queries (the §3.2 extension).
//!
//! Grammar (sharing every clause with the main language except the
//! `CUBOID BY` head and the placeholder machinery, which regex templates
//! do not have):
//!
//! ```text
//! regex-query = "SELECT" "COUNT" "(" "*" ")" "FROM" ident
//!               [ "WHERE" pred ]
//!               [ "CLUSTER BY" attr-level {"," attr-level} ]
//!               [ "SEQUENCE BY" sort-key {"," sort-key} ]
//!               [ "SEQUENCE GROUP BY" attr-level {"," attr-level} ]
//!               "CUBOID BY" "REGEX" "(" elem {"," elem} ")"
//!               "WITH" binding {"," binding}
//!               [ "LEFT-MAXIMALITY" | "ALL-MATCHED" ]
//! elem        = symbol ["?" | "+" | "*"] | ".*"
//! ```
//!
//! `.*` is lexed as DOT-STAR; `X?`/`X+`/`X*` attach the quantifier to the
//! preceding symbol.

use solap_eventdb::{EventDb, Result, SeqQuerySpec};
use solap_pattern::{CellRestriction, PatternDim, RegexElem, RegexTemplate};

use crate::lexer::{tokenize, TokenKind};

/// A parsed regex query: the sequence-formation clauses, the regex
/// template and the cell restriction.
#[derive(Debug, Clone)]
pub struct RegexQuery {
    /// Steps 1–4.
    pub seq: SeqQuerySpec,
    /// The regex template.
    pub template: RegexTemplate,
    /// LEFT-MAXIMALITY (default) or ALL-MATCHED.
    pub restriction: CellRestriction,
}

/// Whether `src` is a regex-template query: its tokens hold `CUBOID BY
/// REGEX` in a row. Text inside a string literal is one token, so a
/// literal that spells the phrase does not count. Text that does not
/// tokenize is not a regex query (the main parser reports the error).
pub fn is_regex_query(src: &str) -> bool {
    let Ok(tokens) = tokenize(src) else {
        return false;
    };
    tokens
        .windows(3)
        .any(|w| w[0].is_kw("CUBOID") && w[1].is_kw("BY") && w[2].is_kw("REGEX"))
}

/// Parses a regex-template COUNT query.
pub fn parse_regex_query(db: &EventDb, src: &str) -> Result<RegexQuery> {
    let tokens = tokenize(src)?;
    let mut p = RegexParser {
        inner: crate::parser::ClauseParser::new(db, tokens),
    };
    p.query()
}

struct RegexParser<'a> {
    inner: crate::parser::ClauseParser<'a>,
}

impl<'a> RegexParser<'a> {
    fn query(&mut self) -> Result<RegexQuery> {
        let p = &mut self.inner;
        p.expect_kw("SELECT")?;
        p.expect_kw("COUNT")?;
        p.expect(&TokenKind::LParen, "`(`")?;
        p.expect(&TokenKind::Star, "`*`")?;
        p.expect(&TokenKind::RParen, "`)`")?;
        p.expect_kw("FROM")?;
        let _ = p.ident("a table name")?;
        let seq = p.sequence_clauses()?;
        p.expect_kw("CUBOID")?;
        p.expect_kw("BY")?;
        p.expect_kw("REGEX")?;
        p.expect(&TokenKind::LParen, "`(`")?;
        // Elements: names with optional quantifier, or `.` `*` for a gap.
        #[derive(Debug)]
        enum RawElem {
            Sym(String, Option<char>),
            Gap,
        }
        let mut raw = Vec::new();
        loop {
            match p.peek_kind() {
                Some(TokenKind::Dot) => {
                    p.bump();
                    p.expect(&TokenKind::Star, "`*` after `.`")?;
                    raw.push(RawElem::Gap);
                }
                Some(TokenKind::Ident(_)) => {
                    let name = p.ident("a symbol")?;
                    // Quantifier, if any: `*`, `+` or `?` tokens.
                    let q = match p.peek_kind() {
                        Some(TokenKind::Star) => {
                            p.bump();
                            Some('*')
                        }
                        _ if p.eat_plus() => Some('+'),
                        _ if p.eat_question() => Some('?'),
                        _ => None,
                    };
                    raw.push(RawElem::Sym(name, q));
                }
                _ => return Err(p.err("expected a regex element")),
            }
            if !p.eat_comma() {
                break;
            }
        }
        p.expect(&TokenKind::RParen, "`)`")?;
        p.expect_kw("WITH")?;
        let mut bindings: Vec<(String, u32, usize)> = Vec::new();
        loop {
            let sym = p.ident("a symbol")?;
            p.expect_kw("AS")?;
            let al = p.attr_level()?;
            bindings.push((sym, al.attr, al.level));
            if !p.eat_comma() {
                break;
            }
        }
        let restriction = if p.eat_kw("ALL-MATCHED") {
            CellRestriction::AllMatchedGo
        } else {
            let _ = p.eat_kw("LEFT-MAXIMALITY");
            CellRestriction::LeftMaximalityMatchedGo
        };
        p.finish()?;

        // Assemble the template: dims in first-appearance order.
        let mut dims: Vec<PatternDim> = Vec::new();
        let mut elems = Vec::new();
        for e in raw {
            match e {
                RawElem::Gap => elems.push(RegexElem::Gap),
                RawElem::Sym(name, q) => {
                    let idx = match dims.iter().position(|d| d.name == name) {
                        Some(i) => i,
                        None => {
                            let (_, attr, level) = bindings
                                .iter()
                                .find(|(n, _, _)| *n == name)
                                .ok_or_else(|| solap_eventdb::Error::Parse {
                                    message: format!("symbol `{name}` has no WITH binding"),
                                    offset: 0,
                                })?;
                            dims.push(PatternDim {
                                name: name.clone(),
                                attr: *attr,
                                level: *level,
                            });
                            dims.len() - 1
                        }
                    };
                    elems.push(match q {
                        None => RegexElem::One(idx),
                        Some('?') => RegexElem::Optional(idx),
                        Some('+') => RegexElem::Plus(idx),
                        Some('*') => RegexElem::Star(idx),
                        _ => unreachable!(),
                    });
                }
            }
        }
        let template = RegexTemplate::new(dims, elems)?;
        Ok(RegexQuery {
            seq,
            template,
            restriction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{ColumnType, EventDbBuilder, Value};

    fn db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("sid", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("location", ColumnType::Str)
            .build()
            .unwrap();
        db.push_row(&[Value::Int(0), Value::Int(0), Value::from("P")])
            .unwrap();
        db.set_base_level_name(2, "station");
        db
    }

    #[test]
    fn a_regex_query_is_told_by_its_tokens() {
        assert!(is_regex_query(
            "SELECT COUNT(*) FROM Event CUBOID by  regex (X, .*) WITH X AS a AT b"
        ));
        assert!(!is_regex_query(
            r#"SELECT COUNT(*) FROM Event WHERE location <> "cuboid by regex" CUBOID BY SUBSTRING (X) WITH X AS a AT b"#
        ));
        assert!(!is_regex_query(
            "SELECT COUNT(*) FROM Event CUBOID BY SUBSTRING (X)"
        ));
        assert!(!is_regex_query("CUBOID BY REGEX \"unterminated"));
    }

    #[test]
    fn parses_layover_round_trip() {
        let db = db();
        let q = parse_regex_query(
            &db,
            r#"
            SELECT COUNT(*) FROM Event
            CLUSTER BY sid AT raw
            SEQUENCE BY pos ASCENDING
            CUBOID BY REGEX (X, Y, .*, Y, X)
              WITH X AS location AT station, Y AS location AT station
              LEFT-MAXIMALITY
            "#,
        )
        .unwrap();
        assert_eq!(q.template.render(), "(X, Y, .*, Y, X)");
        assert_eq!(q.restriction, CellRestriction::LeftMaximalityMatchedGo);
        assert_eq!(q.seq.cluster_by.len(), 1);
    }

    #[test]
    fn parses_quantifiers() {
        let db = db();
        let q = parse_regex_query(
            &db,
            r#"
            SELECT COUNT(*) FROM Event
            CLUSTER BY sid AT raw
            SEQUENCE BY pos
            CUBOID BY REGEX (X, Y+, X*)
              WITH X AS location AT station, Y AS location AT station
              ALL-MATCHED
            "#,
        )
        .unwrap();
        assert_eq!(q.template.render(), "(X, Y+, X*)");
        assert_eq!(q.restriction, CellRestriction::AllMatchedGo);
    }

    #[test]
    fn rejects_unbound_symbols_and_bad_elems() {
        let db = db();
        assert!(parse_regex_query(
            &db,
            "SELECT COUNT(*) FROM Event CLUSTER BY sid AT raw SEQUENCE BY pos CUBOID BY REGEX (X) WITH Y AS location AT station",
        )
        .is_err());
        assert!(parse_regex_query(
            &db,
            "SELECT COUNT(*) FROM Event CLUSTER BY sid AT raw SEQUENCE BY pos CUBOID BY REGEX (.*) WITH X AS location AT station",
        )
        .is_err(), "gap-only template has no mandatory element");
    }
}
