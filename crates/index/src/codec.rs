//! Block-compressed posting lists and seekable (galloping) iteration.
//!
//! The paper's inverted lists are plain sorted sid vectors; at
//! millions-of-sequences scale the index dominates memory and every
//! QUERYINDICES prefix-join scans whole lists. This module stores a list
//! as fixed-size **blocks** of up to [`BLOCK`] sids, each independently
//! encoded and fronted by a [`SkipEntry`] recording the block's first and
//! max sid, so intersection can *skip* whole blocks instead of walking
//! entries ("Compact Representations of Event Sequences" motivates exactly
//! this delta+varint / bitpacked block shape).
//!
//! Per-block encodings, chosen by whichever is smaller:
//!
//! * [`BlockFormat::Varint`] — the block's first sid lives in the skip
//!   entry; the payload is the `count - 1` successive gaps, each encoded
//!   as LEB128 varint of `delta - 1` (deltas are ≥ 1 on a strictly
//!   increasing list);
//! * [`BlockFormat::Bitpack`] — for dense runs: a little-endian bit vector
//!   of `(last - first) / 8 + 1` bytes where bit `i` means `first + i` is
//!   present.
//!
//! Skip-entry invariants (checked exhaustively by [`CompressedSidSet::
//! from_bytes`], relied on everywhere else): entries are sorted,
//! non-overlapping (`entry[i].first > entry[i-1].last`), `first ≤ last`,
//! `1 ≤ count ≤ BLOCK`, payloads are contiguous (`offset` of entry `i`
//! is the end of entry `i-1`'s payload), and each payload decodes to
//! exactly `count` strictly increasing sids from `first` to `last`.
//!
//! [`SeekingIterator`] is the consumption contract: `next_seek(target)`
//! returns the first not-yet-consumed sid `≥ target`, galloping over the
//! skip table (exponential probe + binary search) rather than scanning.
//! [`gallop_intersect`] leapfrogs two seeking iterators — the join kernel
//! used by `SidSet::intersect` whenever a compressed side is involved.

use solap_eventdb::{fail_point, Error, Result, Sid};

use crate::sidset::Bitmap;

/// Maximum number of sids per encoded block.
pub const BLOCK: usize = 128;

/// Serialized bytes per [`SkipEntry`] (`first + last + offset + count +
/// format`).
const SKIP_WIRE_BYTES: usize = 4 + 4 + 4 + 2 + 1;

/// Serialized header: magic, version, block count, payload length, tail
/// length.
const HEADER_BYTES: usize = 4 + 1 + 4 + 4 + 4;

/// Magic prefix of the serialized form.
const MAGIC: &[u8; 4] = b"SIDC";

/// Serialization format version.
const VERSION: u8 = 1;

/// How one block's payload is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockFormat {
    /// LEB128 varints of the successive gaps minus one.
    Varint,
    /// A bit vector of offsets from the block's first sid.
    Bitpack,
}

impl BlockFormat {
    fn to_byte(self) -> u8 {
        match self {
            BlockFormat::Varint => 0,
            BlockFormat::Bitpack => 1,
        }
    }

    fn from_byte(b: u8) -> Option<BlockFormat> {
        match b {
            0 => Some(BlockFormat::Varint),
            1 => Some(BlockFormat::Bitpack),
            _ => None,
        }
    }
}

/// Per-block directory entry: the seek structure of a compressed list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipEntry {
    /// Smallest sid in the block.
    pub first: Sid,
    /// Largest sid in the block — the key `next_seek` gallops on.
    pub last: Sid,
    /// Byte offset of the block's payload in the data buffer.
    pub offset: u32,
    /// Number of sids in the block (`1..=BLOCK`).
    pub count: u16,
    /// Payload encoding.
    pub format: BlockFormat,
}

/// A sorted sid set stored as compressed blocks plus a skip table.
///
/// Building is push-based like the other encodings: sids accumulate in a
/// small `tail` staging vector and every [`BLOCK`] entries are sealed into
/// an encoded block. [`CompressedSidSet::seal`] flushes the final partial
/// block, after which push-built and [`CompressedSidSet::from_sorted`]-built
/// sets are byte-identical (both cut blocks greedily every `BLOCK` sids).
///
/// `heap_bytes()` is **exact by construction**: encoded payload bytes plus
/// the in-memory skip table plus any unsealed tail — never the decoded
/// size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompressedSidSet {
    /// Concatenated block payloads.
    data: Vec<u8>,
    /// One entry per sealed block, sorted by `first`.
    skips: Vec<SkipEntry>,
    /// Total sids across sealed blocks.
    sealed_len: usize,
    /// Staging buffer for the not-yet-sealed final block (`< BLOCK` after
    /// every `push`; empty once sealed).
    tail: Vec<Sid>,
}

impl CompressedSidSet {
    /// An empty compressed set.
    pub fn new() -> Self {
        CompressedSidSet::default()
    }

    /// Builds from a sorted, deduplicated vec and seals every block.
    pub fn from_sorted(v: Vec<Sid>) -> Self {
        Self::from_sorted_slice(&v)
    }

    /// [`CompressedSidSet::from_sorted`] over a borrowed slice.
    pub fn from_sorted_slice(v: &[Sid]) -> Self {
        debug_assert!(v.windows(2).all(|w| w[0] < w[1]), "sids must be sorted");
        let mut c = CompressedSidSet::new();
        for chunk in v.chunks(BLOCK) {
            c.seal_block(chunk);
        }
        c.shrink();
        c
    }

    /// Appends a sid; requires nondecreasing insertion order (duplicates
    /// are ignored), same contract as the list encoding.
    pub fn push(&mut self, sid: Sid) {
        if self.tail.last() == Some(&sid) {
            return;
        }
        debug_assert!(
            self.tail.last().is_none_or(|&l| l < sid) && self.max_sealed().is_none_or(|m| m < sid),
            "sids must be pushed in increasing order"
        );
        self.tail.push(sid);
        if self.tail.len() == BLOCK {
            let full = std::mem::take(&mut self.tail);
            self.seal_block(&full);
        }
    }

    /// Flushes the staged tail into a final encoded block. Idempotent;
    /// after sealing, the set is byte-identical to a `from_sorted` build
    /// of the same content.
    pub fn seal(&mut self) {
        if !self.tail.is_empty() {
            let t = std::mem::take(&mut self.tail);
            self.seal_block(&t);
        }
        self.shrink();
    }

    fn shrink(&mut self) {
        self.data.shrink_to_fit();
        self.skips.shrink_to_fit();
        self.tail.shrink_to_fit();
    }

    /// The largest sid: the staged tail's last, else the last block's
    /// maximum from the skip table — nothing is decoded.
    pub fn max(&self) -> Option<Sid> {
        self.tail.last().copied().or_else(|| self.max_sealed())
    }

    /// Largest sid in any sealed block.
    fn max_sealed(&self) -> Option<Sid> {
        self.skips.last().map(|e| e.last)
    }

    /// Encodes `sids` (sorted, non-empty, ≤ `BLOCK`) as one block.
    fn seal_block(&mut self, sids: &[Sid]) {
        debug_assert!(!sids.is_empty() && sids.len() <= BLOCK);
        let (first, last) = (sids[0], sids[sids.len() - 1]);
        // Varint candidate: gaps minus one, LEB128.
        let mut varint = Vec::with_capacity(sids.len());
        // solint: allow(governor-tick) bounded at BLOCK=128 sids; callers tick per posting
        for w in sids.windows(2) {
            write_varint(&mut varint, w[1] - w[0] - 1);
        }
        // Bitpack candidate size: one bit per sid in [first, last].
        let span_bytes = (last - first) as usize / 8 + 1;
        let format = if span_bytes < varint.len() {
            BlockFormat::Bitpack
        } else {
            BlockFormat::Varint
        };
        let offset = self.data.len() as u32;
        match format {
            BlockFormat::Varint => self.data.extend_from_slice(&varint),
            BlockFormat::Bitpack => {
                let start = self.data.len();
                self.data.resize(start + span_bytes, 0);
                // solint: allow(governor-tick) bounded at BLOCK=128 sids; callers tick per posting
                for &s in sids {
                    let bit = (s - first) as usize;
                    self.data[start + bit / 8] |= 1 << (bit % 8);
                }
            }
        }
        self.skips.push(SkipEntry {
            first,
            last,
            offset,
            count: sids.len() as u16,
            format,
        });
        self.sealed_len += sids.len();
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.sealed_len + self.tail.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the final partial block is still staged decoded.
    pub fn is_sealed(&self) -> bool {
        self.tail.is_empty()
    }

    /// Membership test: binary-search the skip table, decode one block.
    pub fn contains(&self, sid: Sid) -> bool {
        if self.tail.first().is_some_and(|&f| sid >= f) {
            return self.tail.binary_search(&sid).is_ok();
        }
        let b = self.skips.partition_point(|e| e.last < sid);
        let Some(entry) = self.skips.get(b) else {
            return false;
        };
        if sid < entry.first {
            return false;
        }
        self.decode_block(b).binary_search(&sid).is_ok()
    }

    /// Decodes sealed block `b` into a fresh vec. Infallible on sets built
    /// by `push`/`from_sorted`/validated `from_bytes` — every constructor
    /// establishes the skip-entry invariants.
    fn decode_block(&self, b: usize) -> Vec<Sid> {
        let entry = self.skips[b];
        let end = self
            .skips
            .get(b + 1)
            .map(|n| n.offset as usize)
            .unwrap_or(self.data.len());
        decode_block_checked(entry, &self.data[entry.offset as usize..end])
            .expect("sealed block satisfies codec invariants")
    }

    /// Number of sealed blocks.
    pub fn block_count(&self) -> usize {
        self.skips.len()
    }

    /// Per-block formats, for tests asserting both codecs are exercised.
    pub fn block_formats(&self) -> Vec<BlockFormat> {
        self.skips.iter().map(|e| e.format).collect()
    }

    /// Encoded payload bytes (excluding the skip table).
    pub fn encoded_data_len(&self) -> usize {
        self.data.len()
    }

    /// In-memory bytes of the skip table.
    pub fn skip_table_bytes(&self) -> usize {
        self.skips.len() * std::mem::size_of::<SkipEntry>()
    }

    /// Exact heap bytes: encoded payloads + skip table + staged tail.
    pub fn heap_bytes(&self) -> usize {
        self.encoded_data_len() + self.skip_table_bytes() + self.tail.len() * 4
    }

    /// Iterates sids in increasing order.
    pub fn iter(&self) -> CompressedSeeker<'_> {
        CompressedSeeker::new(self)
    }

    /// Collects into a sorted vec.
    pub fn to_vec(&self) -> Vec<Sid> {
        let mut out = Vec::with_capacity(self.len());
        for b in 0..self.skips.len() {
            out.extend(self.decode_block(b));
        }
        out.extend_from_slice(&self.tail);
        out
    }

    /// Serializes to a self-validating byte string (magic, version, skip
    /// table, payloads, staged tail, FNV-1a checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(HEADER_BYTES + self.skips.len() * SKIP_WIRE_BYTES + self.data.len());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&(self.skips.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.tail.len() as u32).to_le_bytes());
        for e in &self.skips {
            out.extend_from_slice(&e.first.to_le_bytes());
            out.extend_from_slice(&e.last.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.count.to_le_bytes());
            out.push(e.format.to_byte());
        }
        out.extend_from_slice(&self.data);
        for &s in &self.tail {
            out.extend_from_slice(&s.to_le_bytes());
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes and fully validates a serialized set. Every truncation,
    /// bit flip or invariant violation yields [`Error::Corrupt`] — never a
    /// panic, never silently wrong sids. Iteration of the returned set is
    /// infallible because everything is checked here.
    pub fn from_bytes(bytes: &[u8]) -> Result<CompressedSidSet> {
        fail_point!("index.decode");
        let corrupt = |detail: &str| Error::Corrupt {
            detail: format!("compressed sid set: {detail}"),
        };
        if bytes.len() < HEADER_BYTES + 8 {
            return Err(corrupt("truncated header"));
        }
        if &bytes[..4] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if bytes[4] != VERSION {
            return Err(corrupt("unsupported version"));
        }
        let n_blocks = read_u32(bytes, 5) as usize;
        let data_len = read_u32(bytes, 9) as usize;
        let tail_len = read_u32(bytes, 13) as usize;
        let expected = (HEADER_BYTES as u64)
            + (n_blocks as u64) * (SKIP_WIRE_BYTES as u64)
            + (data_len as u64)
            + (tail_len as u64) * 4
            + 8;
        if expected != bytes.len() as u64 {
            return Err(corrupt("length mismatch"));
        }
        let body = &bytes[..bytes.len() - 8];
        let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
        if fnv1a(body) != sum {
            return Err(corrupt("checksum mismatch"));
        }
        if n_blocks == 0 && data_len != 0 {
            return Err(corrupt("payload bytes without blocks"));
        }
        let mut skips = Vec::with_capacity(n_blocks);
        let mut pos = HEADER_BYTES;
        let mut prev_last: Option<Sid> = None;
        for i in 0..n_blocks {
            let first = read_u32(bytes, pos);
            let last = read_u32(bytes, pos + 4);
            let offset = read_u32(bytes, pos + 8);
            let count = u16::from_le_bytes(bytes[pos + 12..pos + 14].try_into().expect("2 bytes"));
            let format =
                BlockFormat::from_byte(bytes[pos + 14]).ok_or_else(|| corrupt("bad format"))?;
            pos += SKIP_WIRE_BYTES;
            if first > last || count == 0 || count as usize > BLOCK {
                return Err(corrupt("invalid skip entry"));
            }
            if prev_last.is_some_and(|p| first <= p) {
                return Err(corrupt("blocks out of order"));
            }
            if i == 0 && offset != 0 {
                return Err(corrupt("first payload not at offset 0"));
            }
            prev_last = Some(last);
            skips.push(SkipEntry {
                first,
                last,
                offset,
                count,
                format,
            });
        }
        // Decode-validate every payload and advance the running offset.
        let data = &bytes[pos..pos + data_len];
        let mut sealed_len = 0usize;
        for (i, e) in skips.iter().enumerate() {
            let start = e.offset as usize;
            if start > data.len() {
                return Err(corrupt("payload offset out of range"));
            }
            let end = match e.format {
                BlockFormat::Bitpack => start + (e.last - e.first) as usize / 8 + 1,
                // Varint payloads self-delimit; measure by decoding.
                BlockFormat::Varint => start + varint_payload_len(&data[start..], e)?,
            };
            if end > data.len() {
                return Err(corrupt("payload past end of data"));
            }
            let decoded = decode_block_checked(*e, &data[start..end])?;
            debug_assert_eq!(decoded.len(), e.count as usize);
            sealed_len += decoded.len();
            // Contiguity with the next block (or the end of the payload).
            let next = skips
                .get(i + 1)
                .map(|n| n.offset as usize)
                .unwrap_or(data.len());
            if end != next {
                return Err(corrupt("payload length mismatch"));
            }
        }
        let mut tail = Vec::with_capacity(tail_len);
        let mut tpos = pos + data_len;
        for _ in 0..tail_len {
            let s = read_u32(bytes, tpos);
            tpos += 4;
            if tail.last().is_some_and(|&p: &Sid| s <= p) || prev_last.is_some_and(|p| s <= p) {
                return Err(corrupt("tail out of order"));
            }
            tail.push(s);
        }
        Ok(CompressedSidSet {
            data: data.to_vec(),
            skips,
            sealed_len,
            tail,
        })
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// FNV-1a 64-bit, the same dependency-free checksum family persist uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 u32; returns `(value, bytes_consumed)`.
fn read_varint(bytes: &[u8]) -> Result<(u32, usize)> {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().enumerate().take(5) {
        v |= ((b & 0x7f) as u64) << (7 * i);
        if b & 0x80 == 0 {
            if v > u32::MAX as u64 {
                return Err(Error::Corrupt {
                    detail: "compressed sid set: varint overflows u32".into(),
                });
            }
            return Ok((v as u32, i + 1));
        }
    }
    Err(Error::Corrupt {
        detail: "compressed sid set: unterminated varint".into(),
    })
}

/// Byte length of a varint payload holding `count - 1` gaps.
fn varint_payload_len(data: &[u8], e: &SkipEntry) -> Result<usize> {
    let mut at = 0usize;
    for _ in 1..e.count {
        let (_, n) = read_varint(&data[at.min(data.len())..])?;
        at += n;
    }
    Ok(at)
}

/// Decodes one block payload, checking every invariant: exact `count`
/// strictly increasing sids running from `first` to `last`, consuming the
/// payload exactly.
fn decode_block_checked(e: SkipEntry, payload: &[u8]) -> Result<Vec<Sid>> {
    let corrupt = |detail: &str| Error::Corrupt {
        detail: format!("compressed sid set: {detail}"),
    };
    let mut out = Vec::with_capacity(e.count as usize);
    match e.format {
        BlockFormat::Varint => {
            let mut cur = e.first;
            out.push(cur);
            let mut at = 0usize;
            for _ in 1..e.count {
                let (gap, n) = read_varint(&payload[at..])?;
                at += n;
                cur = cur
                    .checked_add(gap)
                    .and_then(|c| c.checked_add(1))
                    .ok_or_else(|| corrupt("sid overflow"))?;
                out.push(cur);
            }
            if at != payload.len() {
                return Err(corrupt("trailing bytes in varint block"));
            }
            if cur != e.last {
                return Err(corrupt("block last-sid mismatch"));
            }
        }
        BlockFormat::Bitpack => {
            let span_bytes = (e.last - e.first) as usize / 8 + 1;
            if payload.len() != span_bytes {
                return Err(corrupt("bitpack payload size mismatch"));
            }
            for (i, &byte) in payload.iter().enumerate() {
                let mut w = byte;
                while w != 0 {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let off = (i * 8 + bit) as u32;
                    if off > e.last - e.first {
                        return Err(corrupt("bit set past block span"));
                    }
                    out.push(e.first + off);
                }
            }
            if out.first() != Some(&e.first) || out.last() != Some(&e.last) {
                return Err(corrupt("block bounds not present"));
            }
        }
    }
    if out.len() != e.count as usize {
        return Err(corrupt("block count mismatch"));
    }
    Ok(out)
}

/// An ordered sid stream supporting forward skips.
///
/// Contract: `next_sid` yields sids strictly increasing; `next_seek(t)`
/// consumes and returns the first not-yet-consumed sid `≥ t` (for `t` at
/// or below the current position it behaves like `next_sid`). Both return
/// `None` once exhausted, and stay exhausted.
pub trait SeekingIterator {
    /// The next sid in increasing order.
    fn next_sid(&mut self) -> Option<Sid>;

    /// The first not-yet-consumed sid `≥ target`, skipping ahead by
    /// galloping rather than scanning.
    fn next_seek(&mut self, target: Sid) -> Option<Sid>;
}

/// Seeking iterator over a sorted slice: gallops (exponential probe +
/// binary search) instead of scanning.
pub struct SliceSeeker<'a> {
    sids: &'a [Sid],
    pos: usize,
}

impl<'a> SliceSeeker<'a> {
    /// Iterates `sids` (sorted strictly increasing).
    pub fn new(sids: &'a [Sid]) -> Self {
        SliceSeeker { sids, pos: 0 }
    }
}

impl SeekingIterator for SliceSeeker<'_> {
    fn next_sid(&mut self) -> Option<Sid> {
        let s = self.sids.get(self.pos).copied();
        self.pos += (s.is_some()) as usize;
        s
    }

    fn next_seek(&mut self, target: Sid) -> Option<Sid> {
        let rest = &self.sids[self.pos.min(self.sids.len())..];
        self.pos += gallop_partition(rest, target);
        self.next_sid()
    }
}

/// Index of the first element `≥ target` in sorted `s`, found by
/// exponential probing then binary search — O(log distance), the skip
/// behavior the prefix-join ladder relies on for asymmetric lists.
fn gallop_partition(s: &[Sid], target: Sid) -> usize {
    let mut lo = 0usize;
    let mut step = 1usize;
    while lo + step < s.len() && s[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(s.len());
    lo + s[lo..hi].partition_point(|&x| x < target)
}

/// Seeking iterator over a [`Bitmap`]: seeks jump straight to the target's
/// word.
pub struct BitmapSeeker<'a> {
    words: &'a [u64],
    /// Current word index.
    w: usize,
    /// Remaining bits of the current word.
    cur: u64,
}

impl<'a> BitmapSeeker<'a> {
    /// Iterates the set bits of `bitmap`.
    pub fn new(bitmap: &'a Bitmap) -> Self {
        let words = bitmap.words();
        BitmapSeeker {
            words,
            w: 0,
            cur: words.first().copied().unwrap_or(0),
        }
    }

    fn advance_word(&mut self) -> bool {
        while self.cur == 0 {
            self.w += 1;
            match self.words.get(self.w) {
                Some(&next) => self.cur = next,
                None => return false,
            }
        }
        true
    }
}

impl SeekingIterator for BitmapSeeker<'_> {
    fn next_sid(&mut self) -> Option<Sid> {
        if !self.advance_word() {
            return None;
        }
        let b = self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        Some((self.w as u32) * 64 + b)
    }

    fn next_seek(&mut self, target: Sid) -> Option<Sid> {
        let tw = (target / 64) as usize;
        if tw > self.w {
            self.w = tw;
            self.cur = self.words.get(tw).copied().unwrap_or(0);
        }
        if self.w == tw {
            // Clear bits below the target within its word.
            self.cur &= u64::MAX.checked_shl(target % 64).unwrap_or(0);
        }
        self.next_sid()
    }
}

/// Seeking iterator over a [`CompressedSidSet`]: seeks gallop the skip
/// table on `last` sids, decode one block, and binary-search within it.
pub struct CompressedSeeker<'a> {
    set: &'a CompressedSidSet,
    /// Decoded sids of the current block.
    buf: Vec<Sid>,
    /// Cursor into `buf`.
    pos: usize,
    /// Index of the next sealed block to decode.
    next_block: usize,
    /// Cursor into the staged tail.
    tail_pos: usize,
}

impl<'a> CompressedSeeker<'a> {
    fn new(set: &'a CompressedSidSet) -> Self {
        CompressedSeeker {
            set,
            buf: Vec::new(),
            pos: 0,
            next_block: 0,
            tail_pos: 0,
        }
    }

    /// Loads sealed block `b` and positions the cursor at its start.
    fn load_block(&mut self, b: usize) {
        self.buf = self.set.decode_block(b);
        self.pos = 0;
        self.next_block = b + 1;
    }
}

impl SeekingIterator for CompressedSeeker<'_> {
    fn next_sid(&mut self) -> Option<Sid> {
        if self.pos < self.buf.len() {
            let s = self.buf[self.pos];
            self.pos += 1;
            return Some(s);
        }
        if self.next_block < self.set.skips.len() {
            self.load_block(self.next_block);
            return self.next_sid();
        }
        let s = self.set.tail.get(self.tail_pos).copied();
        self.tail_pos += (s.is_some()) as usize;
        s
    }

    fn next_seek(&mut self, target: Sid) -> Option<Sid> {
        // Within the already-decoded block?
        if self.pos < self.buf.len() && target <= *self.buf.last().expect("non-empty block") {
            let rest = &self.buf[self.pos..];
            self.pos += gallop_partition(rest, target);
            return self.next_sid();
        }
        if self.pos < self.buf.len() || self.next_block < self.set.skips.len() {
            // Gallop the skip table (from the next undecoded block) for the
            // first block whose max sid reaches the target.
            let sk = &self.set.skips;
            let mut lo = self.next_block;
            let mut step = 1usize;
            while lo + step < sk.len() && sk[lo + step].last < target {
                lo += step;
                step <<= 1;
            }
            let hi = (lo + step + 1).min(sk.len());
            let b = lo + sk[lo..hi].partition_point(|e| e.last < target);
            if b < sk.len() {
                self.load_block(b);
                self.pos = gallop_partition(&self.buf, target);
                return self.next_sid();
            }
            // Past every sealed block: fall through to the tail.
            self.pos = self.buf.len();
            self.next_block = sk.len();
        }
        let rest = &self.set.tail[self.tail_pos.min(self.set.tail.len())..];
        self.tail_pos += gallop_partition(rest, target);
        self.next_sid()
    }
}

impl Iterator for CompressedSeeker<'_> {
    type Item = Sid;

    fn next(&mut self) -> Option<Sid> {
        self.next_sid()
    }
}

/// A seeking iterator over any [`crate::sidset::SidSet`] encoding.
pub enum SidSetSeeker<'a> {
    /// Over a sorted list.
    List(SliceSeeker<'a>),
    /// Over a bitmap.
    Bitmap(BitmapSeeker<'a>),
    /// Over a compressed set.
    Compressed(CompressedSeeker<'a>),
}

impl SeekingIterator for SidSetSeeker<'_> {
    fn next_sid(&mut self) -> Option<Sid> {
        match self {
            SidSetSeeker::List(s) => s.next_sid(),
            SidSetSeeker::Bitmap(s) => s.next_sid(),
            SidSetSeeker::Compressed(s) => s.next_sid(),
        }
    }

    fn next_seek(&mut self, target: Sid) -> Option<Sid> {
        match self {
            SidSetSeeker::List(s) => s.next_seek(target),
            SidSetSeeker::Bitmap(s) => s.next_seek(target),
            SidSetSeeker::Compressed(s) => s.next_seek(target),
        }
    }
}

impl Iterator for SidSetSeeker<'_> {
    type Item = Sid;

    fn next(&mut self) -> Option<Sid> {
        self.next_sid()
    }
}

/// Leapfrog intersection of two seeking iterators: each side repeatedly
/// seeks to the other's cursor, so runs with no overlap are skipped at
/// block granularity instead of scanned.
pub fn gallop_intersect<A: SeekingIterator, B: SeekingIterator>(mut a: A, mut b: B) -> Vec<Sid> {
    let mut out = Vec::new();
    let Some(mut x) = a.next_sid() else {
        return out;
    };
    loop {
        let Some(y) = b.next_seek(x) else {
            return out;
        };
        if y == x {
            out.push(x);
            match a.next_sid() {
                Some(nx) => x = nx,
                None => return out,
            }
        } else {
            match a.next_seek(y) {
                Some(nx) => x = nx,
                None => return out,
            }
            if x == y {
                out.push(x);
                match a.next_sid() {
                    Some(nx) => x = nx,
                    None => return out,
                }
                // `y` is consumed on both sides; the next round seeks `b`
                // past it.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compressed(v: &[Sid]) -> CompressedSidSet {
        CompressedSidSet::from_sorted(v.to_vec())
    }

    #[test]
    fn round_trips_small_and_blocky() {
        for v in [
            vec![],
            vec![0],
            vec![u32::MAX],
            (0..1000).collect::<Vec<_>>(),
            (0..1000).map(|i| i * 3001).collect(),
        ] {
            let c = compressed(&v);
            assert_eq!(c.to_vec(), v, "decode mismatch");
            assert_eq!(c.len(), v.len());
            for &s in &v {
                assert!(c.contains(s));
            }
        }
    }

    #[test]
    fn push_then_seal_matches_from_sorted() {
        let v: Vec<Sid> = (0..777).map(|i| i * 7 + (i % 3)).collect();
        let mut p = CompressedSidSet::new();
        for &s in &v {
            p.push(s);
        }
        p.seal();
        assert_eq!(p, compressed(&v), "push+seal must be canonical");
    }

    #[test]
    fn dense_runs_bitpack_sparse_runs_varint() {
        let dense = compressed(&(0..256).collect::<Vec<_>>());
        assert!(dense
            .block_formats()
            .iter()
            .all(|f| *f == BlockFormat::Bitpack));
        let sparse = compressed(&(0..256).map(|i| i * 100_000).collect::<Vec<_>>());
        assert!(sparse
            .block_formats()
            .iter()
            .all(|f| *f == BlockFormat::Varint));
    }

    #[test]
    fn heap_bytes_is_encoded_not_decoded() {
        let v: Vec<Sid> = (0..10_000).map(|i| i * 5).collect();
        let c = compressed(&v);
        assert_eq!(
            c.heap_bytes(),
            c.encoded_data_len() + c.skip_table_bytes(),
            "sealed sets count payload + skip table only"
        );
        assert!(c.heap_bytes() < v.len() * 4, "must beat the list encoding");
    }

    #[test]
    fn seek_contract() {
        let v: Vec<Sid> = vec![2, 5, 8, 130, 260, 10_000, 10_001];
        let c = compressed(&v);
        let mut it = c.iter();
        assert_eq!(it.next_seek(0), Some(2));
        assert_eq!(it.next_seek(5), Some(5));
        assert_eq!(it.next_seek(1), Some(8), "never goes backwards");
        assert_eq!(it.next_seek(200), Some(260));
        assert_eq!(it.next_sid(), Some(10_000));
        assert_eq!(it.next_seek(10_001), Some(10_001));
        assert_eq!(it.next_seek(1), None);
        assert_eq!(it.next_sid(), None, "stays exhausted");
    }

    #[test]
    fn gallop_matches_scan() {
        let a: Vec<Sid> = (0..4000).map(|i| i * 3).collect();
        let b: Vec<Sid> = (0..400).map(|i| i * 31).collect();
        let scan: Vec<Sid> = a.iter().copied().filter(|s| b.contains(s)).collect();
        let ca = compressed(&a);
        let cb = compressed(&b);
        assert_eq!(gallop_intersect(ca.iter(), cb.iter()), scan);
        assert_eq!(gallop_intersect(cb.iter(), ca.iter()), scan);
        assert_eq!(
            gallop_intersect(SliceSeeker::new(&a), cb.iter()),
            scan,
            "mixed slice × compressed"
        );
    }

    #[test]
    fn serialized_round_trip_and_truncation() {
        let c = compressed(&(0..500).map(|i| i * 17).collect::<Vec<_>>());
        let bytes = c.to_bytes();
        assert_eq!(CompressedSidSet::from_bytes(&bytes).unwrap(), c);
        for cut in 0..bytes.len() {
            assert!(
                CompressedSidSet::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }
}
