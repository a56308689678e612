//! `ungoverned`: serving code may not mint an unbounded governor or call
//! the ungoverned construction forms.
//!
//! Every statement a session sends runs under that session's
//! `QueryGovernor` (DESIGN.md §5): its deadline, its cell budget and the
//! cancel token a client disconnect trips. `QueryGovernor::unbounded()`
//! or a call to an ungoverned construction form (the conveniences tests
//! and benches keep, and the wrappers deleted with the last side door)
//! in serving code goes around all three. The rule is a local token
//! match, not a call-graph one: the side door is the call site itself.
//! A site bounded by something else (a STORE batch, an advisor sample)
//! escapes with `// solint: allow(ungoverned) <what bounds it>`.

use crate::report::{Finding, Rule};
use crate::rules::in_dirs;
use crate::source::SourceFile;
use crate::Config;

/// The ungoverned construction forms; each has a `*_governed` twin.
const UNGOVERNED_CALLS: [&str; 7] = [
    "build_sequence_groups",
    "counter_based",
    "build_index",
    "regex_cuboid",
    "counter_based_parallel",
    "get_or_build",
    "sequence_groups",
];

/// Runs the rule over non-test code under the configured directories.
pub fn check(config: &Config, files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !in_dirs(&f.rel, &config.ungoverned_dirs) || f.is_test_file() {
            continue;
        }
        check_file(f, &mut out);
    }
    out
}

fn check_file(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = f.tokens();
    for i in 0..toks.len() {
        let Some(id) = toks[i].kind.ident() else {
            continue;
        };
        let called = toks.get(i + 1).is_some_and(|t| t.kind.is_punct(b'('));
        let defined = i > 0 && toks[i - 1].kind.is_ident("fn");
        let what = if id == "QueryGovernor"
            && i + 3 < toks.len()
            && toks[i + 1].kind.is_punct(b':')
            && toks[i + 2].kind.is_punct(b':')
            && toks[i + 3].kind.is_ident("unbounded")
        {
            "`QueryGovernor::unbounded()`".to_string()
        } else if called && !defined && UNGOVERNED_CALLS.contains(&id) {
            format!("`{id}` (use its `_governed` form)")
        } else {
            continue;
        };
        let line = toks[i].line;
        if f.is_test_line(line) {
            continue;
        }
        let finding = Finding::new(
            Rule::Ungoverned,
            &f.rel,
            line,
            format!(
                "{what} runs outside the session's governor — pass the \
                 query's `QueryGovernor`, or escape with \
                 `// solint: allow(ungoverned) <what bounds it>`"
            ),
        );
        out.push(if f.allowed(Rule::Ungoverned.id(), line) {
            finding.suppress()
        } else {
            finding
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run_on(src: &str) -> Vec<Finding> {
        let f = SourceFile::from_text("x.rs", PathBuf::from("x.rs"), src);
        let mut out = Vec::new();
        check_file(&f, &mut out);
        out
    }

    #[test]
    fn governed_forms_imports_and_definitions_pass() {
        let out = run_on(
            "use solap_index::{build_index, build_index_governed};\n\
             pub fn counter_based(db: &Db) {}\n\
             fn f() { build_index_governed(db, q, t, gov); counter_based_governed(db); }\n",
        );
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn test_code_ignored() {
        let out = run_on(
            "#[cfg(test)]\nmod tests {\n    fn t() { let g = QueryGovernor::unbounded(); }\n}\n",
        );
        assert!(out.is_empty());
    }
}
