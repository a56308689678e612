//! `doc-knobs`: every `SOLAP_*` environment variable the workspace reads
//! must have a row in the README knob table, every `SOLAP_*` knob the
//! table documents must actually be read somewhere, and every `SOLAP_*`
//! variable the CI workflow sets must be read too — so a deleted knob
//! cannot linger as a CI setting that silently does nothing.
//!
//! Code side: `env::var("SOLAP_…")` / `env::var_os("SOLAP_…")` calls —
//! test files included, because test-only knobs (`SOLAP_BLESS`) are still
//! user-facing. Doc side: `SOLAP_…` names on the README's table lines
//! (lines starting with `|`). CI side: `SOLAP_…` names followed by `:` (a
//! YAML `env:` key) or `=` (a shell assignment) on the non-comment lines
//! of `.github/workflows/ci.yml`, when the tree has one.

use std::collections::BTreeMap;

use crate::report::{Finding, Rule};
use crate::source::SourceFile;
use crate::Config;

/// The CI workflow whose `SOLAP_*` settings are checked, relative to the
/// lint root.
const CI_WORKFLOW: &str = ".github/workflows/ci.yml";

/// Every `SOLAP_*` env read: name → occurrences (file, line).
pub fn code_reads(files: &[SourceFile]) -> BTreeMap<String, Vec<(String, usize)>> {
    let mut out: BTreeMap<String, Vec<(String, usize)>> = BTreeMap::new();
    for f in files {
        let toks = f.tokens();
        for i in 0..toks.len() {
            let is_read = toks[i]
                .kind
                .ident()
                .is_some_and(|id| id == "var" || id == "var_os");
            if !is_read || i + 2 >= toks.len() || !toks[i + 1].kind.is_punct(b'(') {
                continue;
            }
            let Some(lit) = toks[i + 2].kind.str_lit() else {
                continue;
            };
            if lit.starts_with("SOLAP_") {
                out.entry(lit.to_string())
                    .or_default()
                    .push((f.rel.clone(), toks[i].line));
            }
        }
    }
    out
}

/// `SOLAP_*` names on the README's table lines: name → 1-based line.
fn documented_knobs(lines: &[String]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for (idx, line) in lines.iter().enumerate() {
        if !line.trim_start().starts_with('|') {
            continue;
        }
        for name in solap_names(line) {
            out.entry(name).or_insert(idx + 1);
        }
    }
    out
}

/// Extracts every `SOLAP_[A-Z0-9_]+` substring of `text`.
fn solap_names(text: &str) -> Vec<String> {
    solap_names_followed(text)
        .into_iter()
        .map(|(name, _)| name.trim_end_matches('_').to_string())
        .collect()
}

/// Every `SOLAP_[A-Z0-9_]+` substring of `text`, with the character that
/// follows it.
fn solap_names_followed(text: &str) -> Vec<(&str, Option<char>)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("SOLAP_") {
        let tail = &rest[pos..];
        let end = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        out.push((&tail[..end], tail[end..].chars().next()));
        rest = &tail[end.max(6)..];
    }
    out
}

/// `SOLAP_*` names the CI workflow sets: name → 1-based line of the first
/// setting. Comment lines and trailing ` #` comments are ignored.
fn ci_settings(lines: &[String]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = line.split(" #").next().unwrap_or("");
        if code.trim_start().starts_with('#') {
            continue;
        }
        for (name, next) in solap_names_followed(code) {
            if matches!(next, Some(':' | '=')) {
                out.entry(name.to_string()).or_insert(idx + 1);
            }
        }
    }
    out
}

/// Compares env reads against the README knob table and the CI workflow.
pub fn check(config: &Config, files: &[SourceFile]) -> Vec<Finding> {
    let Some(rel) = &config.readme_md else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let Some(doc) = crate::rules::doc::load_doc(config, rel, Rule::DocKnobs, &mut out) else {
        return out;
    };
    let documented = documented_knobs(&doc);
    let reads = code_reads(files);
    for (name, occurrences) in &reads {
        if !documented.contains_key(name) {
            let (file, line) = &occurrences[0];
            out.push(Finding::new(
                Rule::DocKnobs,
                file,
                *line,
                format!("env knob `{name}` is read here but has no row in the {rel} knob table"),
            ));
        }
    }
    for (name, line) in &documented {
        if !reads.contains_key(name) {
            out.push(Finding::new(
                Rule::DocKnobs,
                rel,
                *line,
                format!("documented knob `{name}` is never read in the workspace"),
            ));
        }
    }
    if let Ok(text) = std::fs::read_to_string(config.root.join(CI_WORKFLOW)) {
        let lines: Vec<String> = text.lines().map(String::from).collect();
        for (name, line) in ci_settings(&lines) {
            if !reads.contains_key(&name) {
                out.push(Finding::new(
                    Rule::DocKnobs,
                    CI_WORKFLOW,
                    line,
                    format!("CI sets `{name}` but no code in the workspace reads it"),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn reads_collected() {
        let f = SourceFile::from_text(
            "src/a.rs",
            PathBuf::from("a.rs"),
            "fn f() {\n    let t = std::env::var(\"SOLAP_THREADS\");\n    let b = env::var_os(\"SOLAP_BLESS\");\n    let other = env::var(\"HOME\");\n}\n",
        );
        let reads = code_reads(&[f]);
        assert_eq!(reads.len(), 2);
        assert_eq!(reads["SOLAP_THREADS"][0].1, 2);
        assert_eq!(reads["SOLAP_BLESS"][0].1, 3);
    }

    #[test]
    fn table_lines_only() {
        let lines: Vec<String> = [
            "set `SOLAP_PROSE_ONLY` to taste",
            "| Worker threads | `.threads N` | `SOLAP_THREADS` |",
            "| Fault injection | — | `SOLAP_FAILPOINTS=site=error` |",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        let d = documented_knobs(&lines);
        assert_eq!(d.len(), 2);
        assert_eq!(d["SOLAP_THREADS"], 2);
        assert!(d.contains_key("SOLAP_FAILPOINTS"));
        assert!(!d.contains_key("SOLAP_PROSE_ONLY"));
    }

    #[test]
    fn ci_settings_are_keys_and_assignments_outside_comments() {
        let lines: Vec<String> = [
            "    env:",
            "      SOLAP_THREADS: ${{ matrix.threads }}",
            "  # SOLAP_COMMENTED=1 is prose",
            "        run: SOLAP_CRASH_ITERS=5 cargo test # SOLAP_TRAILING=1",
            "      - name: Tests (mentions SOLAP_PROSE only)",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        let s = ci_settings(&lines);
        assert_eq!(s.len(), 2, "{s:?}");
        assert_eq!(s["SOLAP_THREADS"], 2);
        assert_eq!(s["SOLAP_CRASH_ITERS"], 4);
    }

    #[test]
    fn name_extraction_stops_at_delimiters() {
        assert_eq!(
            solap_names("`SOLAP_FAILPOINTS=x` and SOLAP_THREADS=8"),
            vec!["SOLAP_FAILPOINTS", "SOLAP_THREADS"]
        );
    }
}
