//! The write-ahead log: crash-safe, checksummed event framing.
//!
//! Streaming ingestion (§6 "Incremental Update") needs a durability story:
//! an acknowledged `STORE` must survive a crash of the serving process.
//! This module provides the record format and the single-file writer /
//! replayer the segmented [`crate::log`] is built from:
//!
//! ```text
//! file   := header record*
//! header := magic "SOLAPWAL" | u32 format-version (1)
//! record := u32 payload-len | payload | u64 fnv1a64(payload)
//! payload:= u8 kind (1 = event row) | u16 column-count
//!           | per value: u8 tag (0 int | 1 float | 2 str | 3 time) + data
//! ```
//!
//! All integers are little-endian; strings are `u32` length + UTF-8 bytes
//! (the same framing style as the index codec and persist formats, FNV-1a
//! 64-bit checksums included).
//!
//! A crash can leave a *torn tail*: a partially written final record, or
//! garbage past the last complete one. [`replay`] decodes every complete,
//! checksum-valid record and reports the tail state instead of failing;
//! [`replay_strict`] (used for sealed segments, which were fsynced before
//! being sealed) converts any tail damage into a typed [`Error::Corrupt`].
//! Neither path ever panics on arbitrary bytes.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::error::{Error, Result};
use crate::fail_point;
use crate::value::Value;

const MAGIC: &[u8; 8] = b"SOLAPWAL";
const FORMAT_VERSION: u32 = 1;
/// Byte length of the file header (magic + version).
pub const HEADER_LEN: u64 = 12;
/// Record payloads above this are rejected as corrupt (16 MiB).
const MAX_RECORD_LEN: usize = 1 << 24;
/// Column counts above this are rejected as corrupt.
const MAX_COLS: usize = 1 << 16;
/// Record kind tag: one event row.
const KIND_ROW: u8 = 1;

/// When the log forces written records to stable storage.
///
/// Chosen in code (`EngineBuilder::durable_with_policy`); the default is
/// `batch` — group commit, one fsync per acknowledged append batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every record — maximum durability, slowest.
    Always,
    /// fsync once per append batch (group commit) — the default.
    #[default]
    Batch,
    /// Never fsync; rely on the OS. An acknowledgement only promises the
    /// event reached the kernel, not the platter.
    Off,
}

/// FNV-1a 64-bit — the workspace's dependency-free checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::InvalidOperation(format!("wal {what} failed: {e}"))
}

fn corrupt(detail: impl Into<String>) -> Error {
    Error::Corrupt {
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes one event row as a record payload (kind + values).
pub fn encode_row(row: &[Value]) -> Result<Vec<u8>> {
    if row.len() > MAX_COLS {
        return Err(Error::InvalidOperation(format!(
            "row has {} values; the wal format caps columns at {MAX_COLS}",
            row.len()
        )));
    }
    let mut out = Vec::with_capacity(16 + row.len() * 9);
    out.push(KIND_ROW);
    put_u16(&mut out, row.len() as u16);
    // solint: allow(governor-tick) bounded by the schema arity; the engine
    // ticks per row during validation before the batch reaches the WAL
    for v in row {
        match v {
            Value::Int(i) => {
                out.push(0);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(1);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                if s.len() > MAX_RECORD_LEN {
                    return Err(Error::InvalidOperation(format!(
                        "string value of {} bytes exceeds the wal record cap",
                        s.len()
                    )));
                }
                out.push(2);
                put_u32(&mut out, s.len() as u32);
                out.extend_from_slice(s.as_bytes());
            }
            Value::Time(t) => {
                out.push(3);
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
    }
    Ok(out)
}

/// Wraps a payload in the length + checksum frame.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 12);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    put_u64(&mut out, fnv1a(payload));
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked slice reader (no indexing, no panics on bad input).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| {
            let mut b = [0u8; 2];
            b.copy_from_slice(s);
            u16::from_le_bytes(b)
        })
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| {
            let mut b = [0u8; 4];
            b.copy_from_slice(s);
            u32::from_le_bytes(b)
        })
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| {
            let mut b = [0u8; 8];
            b.copy_from_slice(s);
            u64::from_le_bytes(b)
        })
    }

    fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }
}

/// Decodes a record payload back into an event row.
pub fn decode_row(payload: &[u8]) -> Result<Vec<Value>> {
    let mut c = Cursor::new(payload);
    let kind = c.u8().ok_or_else(|| corrupt("empty record payload"))?;
    if kind != KIND_ROW {
        return Err(corrupt(format!("unknown record kind {kind}")));
    }
    let ncols = c.u16().ok_or_else(|| corrupt("truncated column count"))? as usize;
    let mut row = Vec::with_capacity(ncols.min(1 << 10));
    for i in 0..ncols {
        let tag = c
            .u8()
            .ok_or_else(|| corrupt(format!("truncated value tag at column {i}")))?;
        let v = match tag {
            0 => Value::Int(
                c.i64()
                    .ok_or_else(|| corrupt(format!("truncated int at column {i}")))?,
            ),
            1 => Value::Float(f64::from_bits(
                c.u64()
                    .ok_or_else(|| corrupt(format!("truncated float at column {i}")))?,
            )),
            2 => {
                let len = c
                    .u32()
                    .ok_or_else(|| corrupt(format!("truncated string length at column {i}")))?
                    as usize;
                if len > MAX_RECORD_LEN {
                    return Err(corrupt(format!("string length {len} exceeds record cap")));
                }
                let bytes = c
                    .take(len)
                    .ok_or_else(|| corrupt(format!("truncated string at column {i}")))?;
                Value::Str(
                    std::str::from_utf8(bytes)
                        .map_err(|e| corrupt(format!("invalid utf-8 at column {i}: {e}")))?
                        .to_string(),
                )
            }
            3 => Value::Time(
                c.i64()
                    .ok_or_else(|| corrupt(format!("truncated time at column {i}")))?,
            ),
            other => return Err(corrupt(format!("unknown value tag {other} at column {i}"))),
        };
        row.push(v);
    }
    if c.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the last column",
            c.remaining()
        )));
    }
    Ok(row)
}

/// What [`replay`] found at the end of a log file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tail {
    /// The file ends exactly after the last complete record.
    Clean,
    /// The file ends in a torn or corrupt record. `valid_len` is the byte
    /// offset of the last complete record's end — truncating the file there
    /// restores the clean-tail invariant.
    Torn {
        /// Offset to truncate the file to.
        valid_len: u64,
        /// What was wrong with the bytes past `valid_len`.
        detail: String,
    },
}

/// One replayed log file: the decoded rows plus the tail verdict.
#[derive(Debug)]
pub struct Replay {
    /// Every complete, checksum-valid event row, in append order.
    pub rows: Vec<Vec<Value>>,
    /// Whether the file ended cleanly or mid-record.
    pub tail: Tail,
}

/// Replays a log file leniently: decodes records until the first torn or
/// corrupt one, reporting (not failing on) tail damage. A missing file
/// replays as empty; a damaged *header* is real corruption (the header is
/// written and synced before any append is acknowledged) and errors.
pub fn replay(path: &Path) -> Result<Replay> {
    fail_point!("recover.replay");
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Replay {
                rows: Vec::new(),
                tail: Tail::Clean,
            })
        }
        Err(e) => return Err(io_err("open", e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err("read", e))?;
    let mut c = Cursor::new(&bytes);
    match c.take(MAGIC.len()) {
        Some(m) if m == MAGIC => {}
        _ => return Err(corrupt("bad wal magic")),
    }
    match c.u32() {
        Some(FORMAT_VERSION) => {}
        Some(v) => return Err(corrupt(format!("unsupported wal version {v}"))),
        None => return Err(corrupt("truncated wal header")),
    }
    let mut rows = Vec::new();
    loop {
        let record_start = c.pos as u64;
        if c.remaining() == 0 {
            return Ok(Replay {
                rows,
                tail: Tail::Clean,
            });
        }
        let torn = |detail: String| Tail::Torn {
            valid_len: record_start,
            detail,
        };
        let Some(len) = c.u32() else {
            return Ok(Replay {
                rows,
                tail: torn("torn record length".into()),
            });
        };
        if len as usize > MAX_RECORD_LEN {
            return Ok(Replay {
                rows,
                tail: torn(format!("record length {len} exceeds cap")),
            });
        }
        let Some(payload) = c.take(len as usize) else {
            return Ok(Replay {
                rows,
                tail: torn(format!("torn payload ({len} bytes promised)")),
            });
        };
        let Some(sum) = c.u64() else {
            return Ok(Replay {
                rows,
                tail: torn("torn checksum".into()),
            });
        };
        if fnv1a(payload) != sum {
            return Ok(Replay {
                rows,
                tail: torn("checksum mismatch".into()),
            });
        }
        match decode_row(payload) {
            Ok(row) => rows.push(row),
            Err(e) => {
                return Ok(Replay {
                    rows,
                    tail: torn(format!("undecodable record: {e}")),
                })
            }
        }
    }
}

/// Replays a *sealed* log file strictly: any tail damage is a typed
/// [`Error::Corrupt`] (sealed segments were fsynced before sealing, so a
/// torn tail there is real corruption, not an interrupted append).
pub fn replay_strict(path: &Path) -> Result<Vec<Vec<Value>>> {
    let replayed = replay(path)?;
    match replayed.tail {
        Tail::Clean => Ok(replayed.rows),
        Tail::Torn { valid_len, detail } => Err(corrupt(format!(
            "sealed segment {} damaged past byte {valid_len}: {detail}",
            path.display()
        ))),
    }
}

/// Truncates a torn tail off a log file, restoring the clean-tail
/// invariant reported by [`replay`].
pub fn truncate_to(path: &Path, valid_len: u64) -> Result<()> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err("open for truncate", e))?;
    file.set_len(valid_len.max(HEADER_LEN))
        .map_err(|e| io_err("truncate", e))?;
    file.sync_all()
        .map_err(|e| io_err("fsync after truncate", e))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// An append-only writer over one WAL file.
///
/// `append_batch` writes every record of the batch and then applies the
/// fsync policy **once** — group commit: a batch of events costs one fsync
/// under [`FsyncPolicy::Batch`] (and one per record under `Always`). The
/// append returns only after the policy's durability point, so a caller
/// acknowledging after `append_batch` acknowledges durable events.
pub struct WalWriter {
    path: PathBuf,
    writer: BufWriter<File>,
    policy: FsyncPolicy,
    bytes: u64,
    records: u64,
    syncs: u64,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .field("bytes", &self.bytes)
            .field("records", &self.records)
            .finish()
    }
}

impl WalWriter {
    /// Creates a new WAL file (header written and synced immediately) or
    /// opens an existing one for appending. `existing_len` must be the
    /// clean length established by [`replay`] (+ truncation if torn).
    pub fn create(path: &Path, policy: FsyncPolicy) -> Result<WalWriter> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("create", e))?;
        file.write_all(MAGIC)
            .map_err(|e| io_err("write header", e))?;
        file.write_all(&FORMAT_VERSION.to_le_bytes())
            .map_err(|e| io_err("write header", e))?;
        file.sync_all().map_err(|e| io_err("fsync header", e))?;
        Ok(WalWriter {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
            policy,
            bytes: HEADER_LEN,
            records: 0,
            syncs: 0,
        })
    }

    /// Opens an existing WAL for appending at its (clean) end.
    pub fn open(path: &Path, policy: FsyncPolicy, records: u64) -> Result<WalWriter> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        let bytes = file.metadata().map_err(|e| io_err("stat", e))?.len();
        Ok(WalWriter {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
            policy,
            bytes,
            records,
            syncs: 0,
        })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes written so far, header included (rotation threshold input).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended over the writer's lifetime (replayed ones included).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The active fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// fsync calls issued over the writer's lifetime (observability).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Appends a batch of event rows; returns after the batch is durable
    /// per the fsync policy (the acknowledgement point).
    pub fn append_batch(&mut self, rows: &[Vec<Value>]) -> Result<()> {
        // solint: allow(governor-tick) the engine ticks per row during
        // validation (under the read lock) before the batch reaches the WAL
        for row in rows {
            fail_point!("wal.append");
            let payload = encode_row(row)?;
            let framed = frame(&payload);
            self.writer
                .write_all(&framed)
                .map_err(|e| io_err("append", e))?;
            self.bytes += framed.len() as u64;
            self.records += 1;
            if self.policy == FsyncPolicy::Always {
                self.sync()?;
            }
        }
        match self.policy {
            FsyncPolicy::Always => Ok(()), // already synced per record
            FsyncPolicy::Batch => self.sync(),
            FsyncPolicy::Off => self.flush(),
        }
    }

    /// Flushes buffered bytes to the OS without fsync.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush().map_err(|e| io_err("flush", e))
    }

    /// Flushes and fsyncs the file.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        fail_point!("wal.fsync");
        self.writer
            .get_ref()
            .sync_all()
            .map_err(|e| io_err("fsync", e))?;
        self.syncs += 1;
        Ok(())
    }

    /// Flushes, fsyncs and closes the writer, returning the final length —
    /// the sealing point of the segmented log.
    pub fn seal(mut self) -> Result<u64> {
        self.sync()?;
        Ok(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "solap-wal-{tag}-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Int(1), Value::from("in"), Value::Float(2.5)],
            vec![Value::Int(2), Value::from("out"), Value::Float(-0.5)],
            vec![Value::Time(1_190_000_000), Value::from(""), Value::Int(0)],
        ]
    }

    #[test]
    fn roundtrip_all_value_kinds() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.open");
        let mut w = WalWriter::create(&path, FsyncPolicy::Batch).unwrap();
        w.append_batch(&rows()).unwrap();
        w.append_batch(&[vec![Value::Int(9), Value::from("x"), Value::Int(9)]])
            .unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.tail, Tail::Clean);
        assert_eq!(replayed.rows.len(), 4);
        assert_eq!(replayed.rows[..3], rows()[..]);
        assert_eq!(replay_strict(&path).unwrap().len(), 4);
    }

    #[test]
    fn missing_file_replays_empty() {
        let dir = tmpdir("missing");
        let r = replay(&dir.join("nope.open")).unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.tail, Tail::Clean);
    }

    #[test]
    fn every_truncation_point_is_torn_not_panic() {
        let dir = tmpdir("trunc");
        let path = dir.join("wal.open");
        let mut w = WalWriter::create(&path, FsyncPolicy::Off).unwrap();
        w.append_batch(&rows()).unwrap();
        w.flush().unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            let p = dir.join("cut.open");
            std::fs::write(&p, &full[..cut]).unwrap();
            if cut < HEADER_LEN as usize {
                // Header damage is corruption, not a torn tail.
                assert!(replay(&p).is_err(), "cut at {cut}");
                continue;
            }
            let r = replay(&p).unwrap();
            if cut == full.len() {
                assert_eq!(r.tail, Tail::Clean);
            }
            // Truncating to the reported clean length must replay cleanly.
            if let Tail::Torn { valid_len, .. } = r.tail {
                assert!(valid_len <= cut as u64);
                truncate_to(&p, valid_len).unwrap();
                let again = replay(&p).unwrap();
                assert_eq!(again.tail, Tail::Clean, "cut at {cut}");
                assert_eq!(again.rows, r.rows);
                assert!(replay_strict(&p).is_ok());
            }
        }
    }

    #[test]
    fn byte_flips_never_panic_and_strict_errors() {
        let dir = tmpdir("flip");
        let path = dir.join("wal.open");
        let mut w = WalWriter::create(&path, FsyncPolicy::Off).unwrap();
        w.append_batch(&rows()).unwrap();
        w.flush().unwrap();
        let full = std::fs::read(&path).unwrap();
        for at in 0..full.len() {
            let mut bad = full.clone();
            bad[at] ^= 0xff;
            let p = dir.join("flip.open");
            std::fs::write(&p, &bad).unwrap();
            // Lenient replay returns a prefix of the true rows (tail torn),
            // strict replay errors; neither panics.
            match replay(&p) {
                Ok(r) => {
                    assert!(r.rows.len() <= 3);
                    if r.tail != Tail::Clean {
                        let err = replay_strict(&p).unwrap_err();
                        assert_eq!(err.code(), "corrupt");
                    }
                }
                Err(e) => assert_eq!(e.code(), "corrupt"),
            }
        }
    }

    #[test]
    fn garbage_past_clean_records_is_reported_and_truncated() {
        let dir = tmpdir("garbage");
        let path = dir.join("wal.open");
        let mut w = WalWriter::create(&path, FsyncPolicy::Batch).unwrap();
        w.append_batch(&rows()).unwrap();
        let clean_len = w.bytes();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe]);
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.rows.len(), 3);
        let Tail::Torn { valid_len, .. } = r.tail else {
            panic!("tail must be torn");
        };
        assert_eq!(valid_len, clean_len);
        truncate_to(&path, valid_len).unwrap();
        assert_eq!(replay_strict(&path).unwrap().len(), 3);
    }

    #[test]
    fn fsync_policy_defaults_to_batch() {
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::Batch);
    }

    // Failpoint-armed behaviour (wal.append / wal.fsync) is exercised in
    // tests/chaos.rs — failpoint state is process-global, so arming inside
    // parallel unit tests would race the other wal/log tests.
}
