//! Spans recorded by the benchmark around calls into the program's
//! layers. Kept in memory, written out when the pass ends.
//!
//! A span is `{id, parent, stmt_id, name, start_ns, end_ns}`; the spans
//! of one statement share `stmt_id` and hang off one root span named
//! [`ROOT`]. A span's self time is its duration minus the part of it its
//! children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of the per-statement root span.
pub const ROOT: &str = "stmt";

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub stmt_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when `on`; with `on == false` every call returns at
/// once without reading the clock, which is what the traced-off replay
/// runs to price the tracing itself.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    stmt_id: u32,
}

/// Handle of an open span; `exit` closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stmt_id: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of the next statement.
    pub fn begin_stmt(&mut self) -> Open {
        self.stmt_id += 1;
        self.enter(ROOT)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            stmt_id: self.stmt_id,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Lays `parts` (name, nanoseconds) end to end as children of the
    /// innermost open span, starting where it starts. Used for stage
    /// times the program reports for a call instead of exposing the
    /// calls themselves: durations are the program's, positions are not.
    pub fn lay_out(&mut self, parts: &[(&'static str, u64)]) {
        let (true, Some(&parent)) = (self.on, self.open.last()) else {
            return;
        };
        let mut at = self.spans[parent as usize].start_ns;
        for &(name, nanos) in parts {
            if nanos == 0 {
                continue;
            }
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: Some(parent),
                stmt_id: self.stmt_id,
                name,
                start_ns: at,
                end_ns: at + nanos,
            });
            at += nanos;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"stmt_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.stmt_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What the spans of a pass add up to.
#[derive(Debug, Default)]
pub struct Summary {
    /// Root spans seen (= statements traced).
    pub statements: u64,
    /// Σ root durations, ns.
    pub root_ns: u64,
    /// Duration of every root span, ns, in statement order.
    pub root_each_ns: Vec<u64>,
    /// Σ over roots of (duration − Σ direct children), ns.
    pub unattributed_ns: u64,
    /// Σ self time per span name, ns (roots excluded).
    pub self_ns: BTreeMap<&'static str, u64>,
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut sum = Summary::default();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(children_ns[s.id as usize]);
        if s.parent.is_none() && s.name == ROOT {
            sum.statements += 1;
            sum.root_ns += dur;
            sum.root_each_ns.push(dur);
            sum.unattributed_ns += own;
        } else {
            *sum.self_ns.entry(s.name).or_default() += own;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let root = t.begin_stmt();
        let a = t.enter("a");
        t.lay_out(&[("a.x", 10), ("a.skip", 0), ("a.y", 5)]);
        t.exit(a);
        t.exit(root);
        let s = summarize(t.spans());
        assert_eq!(s.statements, 1);
        let a = &t.spans()[1];
        assert_eq!(a.name, "a");
        assert_eq!(s.self_ns["a.x"], 10);
        assert!(!s.self_ns.contains_key("a.skip"));
        assert_eq!(s.self_ns["a"], (a.end_ns - a.start_ns).saturating_sub(15));
        assert_eq!(s.unattributed_ns, s.root_ns - (a.end_ns - a.start_ns));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin_stmt();
        let a = t.enter("a");
        t.lay_out(&[("a.x", 10)]);
        t.exit(a);
        t.exit(root);
        assert!(t.spans().is_empty());
    }
}
