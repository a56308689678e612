//! What a client does with the statement surface: send a statement, read
//! the answer, and drive a navigation from the answers. The same driver
//! runs over the wire (timed pass), over the traced in-process replica
//! and over the reference engine, through [`Exec`].

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::util::fnv1a;
use crate::workload::{Nav, Step};

/// Anything that answers one statement with a response body.
pub trait Exec {
    /// `Err` carries the program's error text or a transport failure.
    fn exec(&mut self, stmt: &str) -> Result<String, String>;
}

/// A cuboid answer, as far as the client reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Cells of the cuboid (from the header line).
    pub cells: u64,
    /// The `via …` strategy of the header line: `CB`, `II`, `reuse`, `cache`.
    pub via: String,
    /// Cell count + the tabulated rows. The header line — timing and
    /// strategy — is left out, so equal cuboids digest equally however
    /// they were built.
    pub digest: u64,
    /// Pattern dimension names of the table, in column order.
    pub dims: Vec<String>,
    /// The top row's value per dimension (empty for an empty cuboid).
    pub top: Vec<String>,
}

impl Reply {
    /// Parses `[OP: ]N cells via S in T (…)\nheader\nrows…`.
    pub fn parse(body: &str) -> Option<Reply> {
        let (head, table) = body.split_once('\n')?;
        let (before, after) = head.split_once(" cells via ")?;
        let cells = before.rsplit(' ').next()?.parse().ok()?;
        let via = after.split(' ').next()?.to_owned();
        let mut lines = table.lines();
        let columns: Vec<&str> = lines.next()?.split(" | ").collect();
        let (_value, dims) = columns.split_last()?;
        let dims: Vec<String> = dims
            .iter()
            .map(|c| c.split('(').next().unwrap_or(c).to_owned())
            .collect();
        let top = match lines.next() {
            Some(row) if !row.starts_with('…') => row
                .split(" | ")
                .take(dims.len())
                .map(str::to_owned)
                .collect(),
            _ => Vec::new(),
        };
        Some(Reply {
            cells,
            via,
            digest: fnv1a(&[&cells.to_le_bytes(), table.as_bytes()]),
            dims,
            top,
        })
    }
}

/// One executed statement of a navigation.
#[derive(Debug)]
pub struct Done<'a> {
    pub stmt: &'a str,
    /// `Err` = failed, refused or unreadable: counts as a miss.
    pub reply: Result<Reply, String>,
    pub latency: Duration,
}

/// Runs `nav` on `exec`, reporting each statement to `each`. Stops at the
/// first failed statement (the rest of the navigation depends on it).
/// Returns whether every statement succeeded.
pub fn run_nav(nav: &Nav, exec: &mut dyn Exec, each: &mut dyn FnMut(Done<'_>)) -> bool {
    let mut last: Option<Reply> = None;
    let mut sliced: Vec<String> = Vec::new();
    for step in &nav.steps {
        match step {
            Step::Stmt(stmt) => {
                if stmt.starts_with("SELECT") {
                    sliced.clear();
                }
                last = cuboid(stmt, exec, each);
                if last.is_none() {
                    return false;
                }
            }
            Step::Set(setting) => {
                if let Err(e) = exec.exec(setting) {
                    each(Done {
                        stmt: setting,
                        reply: Err(e),
                        latency: Duration::ZERO,
                    });
                    return false;
                }
            }
            Step::SliceTop => {
                let table = last.clone().expect("a navigation slices after a SELECT");
                for (dim, value) in table.dims.iter().zip(&table.top) {
                    if sliced.contains(dim) {
                        continue;
                    }
                    sliced.push(dim.clone());
                    last = cuboid(&format!(".op slice-pattern {dim} {value}"), exec, each);
                    if last.is_none() {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// One cuboid-returning statement, timed as the client sees it: from the
/// send to the parsed answer. `None` if it failed.
fn cuboid(stmt: &str, exec: &mut dyn Exec, each: &mut dyn FnMut(Done<'_>)) -> Option<Reply> {
    let start = Instant::now();
    let reply = exec
        .exec(stmt)
        .and_then(|body| Reply::parse(&body).ok_or(format!("unreadable answer: {body:.120}")));
    let latency = start.elapsed();
    let answer = reply.as_ref().ok().cloned();
    each(Done {
        stmt,
        reply,
        latency,
    });
    answer
}

/// One closed-loop connection to the server: a statement goes out, the
/// client blocks until its one-line JSON answer is back.
pub struct Wire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Far above any statement of these workloads; turns a hung server
        // into a failed statement instead of a hung benchmark.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Wire {
            reader: BufReader::with_capacity(64 << 10, stream.try_clone()?),
            stream,
            line: String::new(),
        })
    }
}

impl Exec for Wire {
    fn exec(&mut self, stmt: &str) -> Result<String, String> {
        debug_assert!(
            !stmt.contains('\n'),
            "the protocol is one line per statement"
        );
        let mut frame = Vec::with_capacity(stmt.len() + 1);
        frame.extend_from_slice(stmt.as_bytes());
        frame.push(b'\n');
        self.stream.write_all(&frame).map_err(|e| e.to_string())?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => return Err("connection closed".into()),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        let v = Json::parse(self.line.trim_end())?;
        let text = |key| v.get(key).and_then(Json::as_str).unwrap_or_default();
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(text("body").to_owned())
        } else {
            Err(format!("{}: {}", text("code"), text("error")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_parsing_and_digest() {
        let a = "9947 cells via II in 174.6ms (20000 sequences scanned, 1295 KiB of indices built)\n\
                 X(symbol:symbol) | Y(symbol:symbol) | value\ns003 | s003 | 3816\n… (9946 more cells)\n";
        let b = "APPEND: 9947 cells via CB in 1s (7 sequences scanned)\n\
                 X(symbol:symbol) | Y(symbol:symbol) | value\ns003 | s003 | 3816\n… (9946 more cells)\n";
        let (ra, rb) = (Reply::parse(a).unwrap(), Reply::parse(b).unwrap());
        assert_eq!(ra.cells, 9947);
        assert_eq!((ra.via.as_str(), rb.via.as_str()), ("II", "CB"));
        assert_eq!(ra.dims, ["X", "Y"]);
        assert_eq!(ra.top, ["s003", "s003"]);
        assert_eq!(
            ra.digest, rb.digest,
            "the header line is not part of the digest"
        );
        let c = b.replace("3816", "3817");
        assert_ne!(Reply::parse(&c).unwrap().digest, ra.digest);
        let empty = "0 cells via CB in 1ms (0 sequences scanned)\nX(symbol:symbol) | value\n";
        assert!(Reply::parse(empty).unwrap().top.is_empty());
        assert!(Reply::parse("stored 3 events").is_none());
    }

    struct Script(Vec<String>);
    impl Exec for Script {
        fn exec(&mut self, stmt: &str) -> Result<String, String> {
            self.0.push(stmt.to_owned());
            if stmt.contains("append B") {
                return Err("boom".into());
            }
            Ok("2 cells via II in 1ms (1 sequences scanned)\n\
                X(symbol:symbol) | Y(symbol:symbol) | value\ns001 | s002 | 9\n"
                .into())
        }
    }

    #[test]
    fn slice_top_slices_each_dimension_once_and_failure_stops() {
        let nav = Nav {
            steps: vec![
                Step::Stmt("SELECT 1".into()),
                Step::SliceTop,
                Step::Stmt(".op append Z symbol symbol".into()),
                Step::SliceTop,
                Step::Stmt(".op append B symbol symbol".into()),
                Step::Stmt("never".into()),
            ],
        };
        let mut script = Script(Vec::new());
        let mut failed = 0;
        let ok = run_nav(&nav, &mut script, &mut |d| {
            failed += usize::from(d.reply.is_err())
        });
        assert!(!ok);
        assert_eq!(failed, 1);
        assert_eq!(
            script.0,
            [
                "SELECT 1",
                ".op slice-pattern X s001",
                ".op slice-pattern Y s002",
                ".op append Z symbol symbol",
                ".op append B symbol symbol"
            ]
        );
    }
}
