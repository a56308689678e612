//! Findings and the human / JSON report renderers.

use std::fmt;

/// The rule catalog. Every finding carries exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hot-module loops over events/sequences/postings must tick the
    /// governor (or carry a justified escape comment).
    GovernorTick,
    /// Panic-capable sites in library code may not exceed the committed
    /// baseline (which may only shrink).
    NoPanicRatchet,
    /// Every `Ordering::…` use in the concurrency-core files needs an
    /// `// ord:` justification comment.
    AtomicOrdering,
    /// Engine code must use the poison-recovering `parking_lot` shim, not
    /// `std::sync::Mutex`/`RwLock`.
    NoBareMutex,
    /// Every workspace crate root must carry `#![forbid(unsafe_code)]`,
    /// and no `unsafe` may appear anywhere.
    ForbidUnsafe,
    /// Lock acquisitions must follow the `locks.toml` rank hierarchy:
    /// every lock declared and ranked, no rank inversion along any
    /// (inter-procedural) acquisition chain, no cycles.
    LockOrder,
    /// The readiness-loop thread may not block: no engine-lock
    /// acquisition, no blocking syscalls, on any function reachable from
    /// the configured event-loop entry points.
    NoBlockingInEventLoop,
    /// Serving code may not build with `QueryGovernor::unbounded()` or
    /// call the ungoverned construction forms outside a justified escape.
    Ungoverned,
    /// Every `// solint: allow(rule)` escape must still suppress a live
    /// finding; stale escapes are errors.
    StaleEscape,
    /// `fail_point!` sites in code ≡ the DESIGN.md §5 catalog.
    DocFailpoints,
    /// `Counter` enum variants ≡ the DESIGN.md §6 counter table.
    DocCounters,
    /// `SOLAP_*` env reads ≡ the README knob table.
    DocKnobs,
    /// `locks.toml` ≡ the shim's `rank` constants ≡ the DESIGN.md §14
    /// rank table.
    DocLocks,
    /// Every required architecture section (the config's
    /// `design_sections`) has a `## …` heading in DESIGN.md — a
    /// subsystem cannot ship with its design chapter deleted.
    DocSections,
}

impl Rule {
    /// The stable kebab-case rule id (used in reports and escape comments).
    pub fn id(self) -> &'static str {
        match self {
            Rule::GovernorTick => "governor-tick",
            Rule::NoPanicRatchet => "no-panic-ratchet",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::NoBareMutex => "no-bare-mutex",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::LockOrder => "lock-order",
            Rule::NoBlockingInEventLoop => "no-blocking-in-event-loop",
            Rule::Ungoverned => "ungoverned",
            Rule::StaleEscape => "stale-escape",
            Rule::DocFailpoints => "doc-failpoints",
            Rule::DocCounters => "doc-counters",
            Rule::DocKnobs => "doc-knobs",
            Rule::DocLocks => "doc-locks",
            Rule::DocSections => "doc-sections",
        }
    }

    /// All rules, in report order.
    pub const ALL: [Rule; 14] = [
        Rule::GovernorTick,
        Rule::NoPanicRatchet,
        Rule::AtomicOrdering,
        Rule::NoBareMutex,
        Rule::ForbidUnsafe,
        Rule::LockOrder,
        Rule::NoBlockingInEventLoop,
        Rule::Ungoverned,
        Rule::StaleEscape,
        Rule::DocFailpoints,
        Rule::DocCounters,
        Rule::DocKnobs,
        Rule::DocLocks,
        Rule::DocSections,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint finding, anchored to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Root-relative `/`-separated path.
    pub file: String,
    /// 1-based line (0 = whole file).
    pub line: usize,
    /// Human-readable description, including the other side's location for
    /// doc-drift findings.
    pub message: String,
    /// True when a justified `// solint: allow(rule)` escape covers the
    /// site. Suppressed findings are dropped from reports, but the
    /// `stale-escape` rule uses them to prove each escape is still live.
    pub suppressed: bool,
}

impl Finding {
    /// Shorthand constructor (not suppressed).
    pub fn new(rule: Rule, file: &str, line: usize, message: impl Into<String>) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: message.into(),
            suppressed: false,
        }
    }

    /// Marks the finding as escape-suppressed.
    pub fn suppress(mut self) -> Finding {
        self.suppressed = true;
        self
    }
}

/// Renders findings for humans, grouped by rule.
pub fn render_text(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    if findings.is_empty() {
        out.push_str(&format!(
            "solint: clean — 0 findings across {files_scanned} files\n"
        ));
        return out;
    }
    let mut sorted = findings.to_vec();
    sorted.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    let mut current: Option<Rule> = None;
    for f in &sorted {
        if current != Some(f.rule) {
            out.push_str(&format!("\n[{}]\n", f.rule.id()));
            current = Some(f.rule);
        }
        if f.line > 0 {
            out.push_str(&format!("  {}:{}: {}\n", f.file, f.line, f.message));
        } else {
            out.push_str(&format!("  {}: {}\n", f.file, f.message));
        }
    }
    out.push_str(&format!(
        "\nsolint: {} finding(s) across {files_scanned} files\n",
        findings.len()
    ));
    out
}

/// Renders findings as a JSON array (stable field order, no dependencies).
pub fn render_json(findings: &[Finding]) -> String {
    let mut sorted = findings.to_vec();
    sorted.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    let mut out = String::from("[");
    for (i, f) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.rule.id(),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push(']');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_groups_by_rule() {
        let fs = vec![
            Finding::new(Rule::DocKnobs, "b.rs", 2, "m2"),
            Finding::new(Rule::GovernorTick, "a.rs", 1, "m1"),
        ];
        let t = render_text(&fs, 3);
        let gpos = t.find("[governor-tick]").unwrap();
        let kpos = t.find("[doc-knobs]").unwrap();
        assert!(gpos < kpos, "rule order follows the catalog");
        assert!(t.contains("a.rs:1: m1"));
        assert!(t.contains("2 finding(s) across 3 files"));
    }

    #[test]
    fn clean_report() {
        assert!(render_text(&[], 10).contains("clean"));
    }

    #[test]
    fn json_is_escaped_and_balanced() {
        let fs = vec![Finding::new(Rule::NoBareMutex, "a.rs", 7, "say \"no\"")];
        let j = render_json(&fs);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\\\"no\\\""));
        assert!(j.contains("\"rule\":\"no-bare-mutex\""));
    }
}
