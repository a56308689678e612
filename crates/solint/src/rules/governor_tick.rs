//! `governor-tick`: loops over events / sequences / postings in the
//! cataloged hot modules must contain a governor check.
//!
//! The governance contract (DESIGN.md §5) places a cooperative check in
//! every hot loop so over-limit queries abort within one check interval.
//! This rule re-derives "every hot loop" mechanically:
//!
//! * a **loop** is any `for` / `while` / `loop` in non-test code of a
//!   configured hot module;
//! * it is **hot** when its header (the `for PAT in EXPR` / `while COND`
//!   tokens) names hot data — an identifier whose last snake_case part,
//!   plural-folded, is one of [`crate::Config::hot_keywords`]
//!   (`event`, `row`, `seq`, `sid`, `posting`, `list`, `group`, …);
//! * it is **governed** when its body (nested loops included) mentions a
//!   [`crate::Config::governed_markers`] identifier — `tick`, `tick_n`,
//!   `check_now`, `charge_cells`, or any `*_governed` entry point.
//!
//! A hot, ungoverned loop is a finding unless escaped with a justified
//! `// solint: allow(governor-tick) <reason>` comment on the loop line or
//! the two lines above.

use crate::report::{Finding, Rule};
use crate::rules::last_name_part;
use crate::source::SourceFile;
use crate::Config;

/// Runs the rule over the configured hot modules.
pub fn check(config: &Config, files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for rel in &config.hot_modules {
        let Some(f) = crate::rules::file(files, rel) else {
            out.push(Finding::new(
                Rule::GovernorTick,
                rel,
                0,
                "cataloged hot module is missing from the scan",
            ));
            continue;
        };
        check_file(config, f, &mut out);
    }
    out
}

fn check_file(config: &Config, f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = f.tokens();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let Some(kw) = t.kind.ident() else {
            i += 1;
            continue;
        };
        if !matches!(kw, "for" | "while" | "loop") || f.is_test_line(t.line) {
            i += 1;
            continue;
        }
        let Some(lp) = parse_loop(f, i) else {
            i += 1;
            continue;
        };
        if header_is_hot(f, lp.header, &config.hot_keywords)
            && !body_is_governed(f, lp.body_open, lp.body_close, &config.governed_markers)
        {
            let finding = Finding::new(
                Rule::GovernorTick,
                &f.rel,
                t.line,
                format!(
                    "`{kw}` loop over hot data has no governor check \
                     (tick/check_now/charge_cells) in its body; govern it or \
                     escape with `// solint: allow(governor-tick) <reason>`"
                ),
            );
            out.push(if f.allowed(Rule::GovernorTick.id(), t.line) {
                finding.suppress()
            } else {
                finding
            });
        }
        // Continue scanning *inside* the body too (nested loops are
        // checked independently), so only advance past the header.
        i = lp.body_open + 1;
    }
}

struct Loop {
    /// Token range of the header (exclusive of the body `{`).
    header: (usize, usize),
    body_open: usize,
    body_close: usize,
}

/// Parses a loop starting at the keyword token `i`. Returns `None` for
/// non-loop uses of `for` (trait impls, HRTB `for<'a>`).
fn parse_loop(f: &SourceFile, i: usize) -> Option<Loop> {
    let toks = f.tokens();
    let kw = toks[i].kind.ident()?;
    match kw {
        "loop" => {
            let open = (i + 1 < toks.len() && toks[i + 1].kind.is_punct(b'{')).then_some(i + 1)?;
            let close = f.match_brace(open);
            Some(Loop {
                header: (i, open),
                body_open: open,
                body_close: close,
            })
        }
        "while" => {
            let open = find_body_open(toks, i + 1)?;
            let close = f.match_brace(open);
            Some(Loop {
                header: (i, open),
                body_open: open,
                body_close: close,
            })
        }
        "for" => {
            // HRTB `for<'a>` is not a loop.
            if i + 1 < toks.len() && toks[i + 1].kind.is_punct(b'<') {
                return None;
            }
            let open = find_body_open(toks, i + 1)?;
            // A loop-`for` has an `in` at bracket depth 0 before its body;
            // `impl Trait for Type {` does not.
            let mut depth = 0i32;
            let mut saw_in = false;
            for t in &toks[i + 1..open] {
                match &t.kind {
                    k if k.is_punct(b'(') || k.is_punct(b'[') => depth += 1,
                    k if k.is_punct(b')') || k.is_punct(b']') => depth -= 1,
                    k if depth == 0 && k.is_ident("in") => saw_in = true,
                    _ => {}
                }
            }
            if !saw_in {
                return None;
            }
            let close = f.match_brace(open);
            Some(Loop {
                header: (i, open),
                body_open: open,
                body_close: close,
            })
        }
        _ => None,
    }
}

/// First `{` at paren/bracket depth 0 after `from` (the loop body opener).
fn find_body_open(toks: &[crate::lexer::Token], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match &t.kind {
            k if k.is_punct(b'(') || k.is_punct(b'[') => depth += 1,
            k if k.is_punct(b')') || k.is_punct(b']') => depth -= 1,
            k if k.is_punct(b'{') && depth == 0 => return Some(j),
            k if k.is_punct(b';') && depth == 0 => return None,
            _ => {}
        }
    }
    None
}

fn header_is_hot(f: &SourceFile, header: (usize, usize), keywords: &[String]) -> bool {
    f.tokens()[header.0..header.1].iter().any(|t| {
        t.kind
            .ident()
            .is_some_and(|id| keywords.iter().any(|k| k == last_name_part(id)))
    })
}

fn body_is_governed(f: &SourceFile, open: usize, close: usize, markers: &[String]) -> bool {
    f.tokens()[open..=close].iter().any(|t| {
        t.kind.ident().is_some_and(|id| {
            markers.iter().any(|m| m == id) || id.ends_with("_governed") || id == "governed"
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run_on(src: &str) -> Vec<Finding> {
        let f = SourceFile::from_text("hot.rs", PathBuf::from("hot.rs"), src);
        let mut config = Config::bare(PathBuf::from("."));
        config.hot_modules = vec!["hot.rs".into()];
        let mut out = Vec::new();
        check_file(&config, &f, &mut out);
        out
    }

    #[test]
    fn ungoverned_hot_loop_fires() {
        let out =
            run_on("fn f() {\n    for seq in &group.sequences {\n        touch(seq);\n    }\n}\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn governed_loop_passes() {
        for marker in ["gov.tick()?", "gov.check_now()?", "gov.charge_cells(1)?"] {
            let src = format!("fn f() {{\n    for row in rows {{\n        {marker};\n    }}\n}}\n");
            assert!(run_on(&src).is_empty(), "{marker}");
        }
    }

    #[test]
    fn governed_entry_point_counts() {
        let out = run_on(
            "fn f() {\n    for seqs in chunks {\n        build_index_governed(db, seqs)?;\n    }\n}\n",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn nested_inner_check_governs_outer() {
        let out = run_on(
            "fn f() {\n    for group in groups {\n        for sid in sids {\n            gov.tick()?;\n        }\n    }\n}\n",
        );
        assert!(out.is_empty(), "outer body contains the inner tick");
    }

    #[test]
    fn nested_inner_loop_checked_independently() {
        let out = run_on(
            "fn f() {\n    for group in groups {\n        gov.check_now()?;\n        x();\n    }\n    for sid in sids {\n        nothing();\n    }\n}\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 6);
    }

    #[test]
    fn cold_loops_ignored() {
        let out = run_on(
            "fn f() {\n    for d in 0..n {\n        x();\n    }\n    for (cell, state) in states {\n        y();\n    }\n    while k < m {\n        z();\n    }\n}\n",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn escape_comment_suppresses() {
        let out = run_on(
            "fn f() {\n    // solint: allow(governor-tick) bounded by already-charged cells\n    for seq in seqs {\n        touch(seq);\n    }\n}\n",
        );
        // The finding is still produced (stale-escape proves escapes
        // against it) but marked suppressed.
        assert_eq!(out.len(), 1);
        assert!(out[0].suppressed);
    }

    #[test]
    fn escape_without_reason_rejected() {
        let out = run_on(
            "fn f() {\n    // solint: allow(governor-tick)\n    for seq in seqs {\n        touch(seq);\n    }\n}\n",
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let out = run_on("impl Iterator for EventList {\n    fn next(&mut self) {}\n}\n");
        assert!(out.is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let out = run_on(
            "#[cfg(test)]\nmod tests {\n    fn t() {\n        for seq in seqs {\n            x();\n        }\n    }\n}\n",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn while_let_over_postings_fires() {
        let out = run_on(
            "fn f() {\n    while let Some(p) = postings.next() {\n        x(p);\n    }\n}\n",
        );
        assert_eq!(out.len(), 1);
    }
}
