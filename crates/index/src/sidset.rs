//! Sid collections: sorted lists, bitmaps, and compressed blocks.
//!
//! The paper's inverted lists are sid lists; §6 suggests that "if the domain
//! of a pattern dimension is small, we can encode … the inverted indices as
//! bitmap indices. Consequently, the intersection operation … can be
//! performed much faster using the bitwise-AND operation." Both encodings
//! are implemented here behind [`SidSet`], along with a third — the
//! block-compressed, skip-indexed form of [`crate::codec`]. Which one a
//! stored list uses follows from its content alone ([`choose_encoding`]).
//!
//! Whenever a compressed side is involved, set algebra runs on
//! [`SeekingIterator`]s (leapfrog [`gallop_intersect`] instead of a linear
//! merge); the result always keeps `self`'s encoding, as before.

use solap_eventdb::Sid;

use crate::codec::{
    gallop_intersect, BitmapSeeker, CompressedSidSet, SeekingIterator, SidSetSeeker, SliceSeeker,
};

/// A fixed-universe bitmap of sids (64-bit blocks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// Sets a bit. Bits may be set in any order.
    pub fn insert(&mut self, sid: Sid) {
        let w = (sid / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << (sid % 64);
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.len += 1;
        }
    }

    /// Membership test.
    pub fn contains(&self, sid: Sid) -> bool {
        self.words
            .get((sid / 64) as usize)
            .is_some_and(|w| w & (1u64 << (sid % 64)) != 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bits are set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bitwise-AND intersection.
    pub fn intersect(&self, other: &Bitmap) -> Bitmap {
        let n = self.words.len().min(other.words.len());
        let mut words = Vec::with_capacity(n);
        let mut len = 0;
        for i in 0..n {
            let w = self.words[i] & other.words[i];
            len += w.count_ones() as usize;
            words.push(w);
        }
        Bitmap { words, len }
    }

    /// Bitwise-OR union.
    pub fn union(&self, other: &Bitmap) -> Bitmap {
        let n = self.words.len().max(other.words.len());
        let mut words = vec![0u64; n];
        let mut len = 0;
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.words.get(i).copied().unwrap_or(0) | other.words.get(i).copied().unwrap_or(0);
            len += w.count_ones() as usize;
        }
        Bitmap { words, len }
    }

    /// Iterates set bits in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Sid> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    Some((i as u32) * 64 + b)
                }
            })
        })
    }

    /// Heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The raw 64-bit words, for the codec's seeking iterator.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

impl FromIterator<Sid> for Bitmap {
    fn from_iter<T: IntoIterator<Item = Sid>>(iter: T) -> Self {
        let mut b = Bitmap::new();
        for s in iter {
            b.insert(s);
        }
        b
    }
}

/// The format of one sid list. [`SidSet::sealed`] picks it from the
/// list's final content.
///
/// Shared by every construction path (bulk `from_sorted_auto`,
/// end-of-build sealing) so they all agree — the density rule lives in
/// exactly one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Plain sorted vec — cheapest for tiny sets.
    List,
    /// Bitmap — smallest and fastest above 1-in-8 density.
    Bitmap,
    /// Block-compressed — wins on everything sparse but non-tiny.
    Compressed,
}

/// Below this cardinality a plain list is smaller than a compressed set
/// (one skip entry alone costs four sids' worth of bytes).
const COMPRESS_MIN_LEN: usize = 16;

/// The density rule: the canonical [`Encoding`] for
/// a set of `len` sids whose maximum is `max`.
pub fn choose_encoding(len: usize, max: Sid) -> Encoding {
    if len >= COMPRESS_MIN_LEN && (max as u64) < (len as u64) * 8 {
        // Bitmap bytes = (max+1)/8 < len, beating both other forms.
        Encoding::Bitmap
    } else if len >= COMPRESS_MIN_LEN {
        Encoding::Compressed
    } else {
        Encoding::List
    }
}

/// A set of sids in one of three encodings.
///
/// An index holds one per inverted list, most of them a handful of sids
/// long, so the two heavy encodings sit behind a `Box`: the enum stays the
/// size of the plain list it usually is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SidSet {
    /// A strictly increasing sorted list (the paper's inverted list).
    List(Vec<Sid>),
    /// A bitmap (§6 optimisation).
    Bitmap(Box<Bitmap>),
    /// Delta+varint / bitpacked blocks behind a skip table
    /// ([`crate::codec`]).
    Compressed(Box<CompressedSidSet>),
}

impl From<Bitmap> for SidSet {
    fn from(b: Bitmap) -> Self {
        SidSet::Bitmap(Box::new(b))
    }
}

impl From<CompressedSidSet> for SidSet {
    fn from(c: CompressedSidSet) -> Self {
        SidSet::Compressed(Box::new(c))
    }
}

impl SidSet {
    /// An empty set in the list encoding.
    pub fn empty_list() -> Self {
        SidSet::List(Vec::new())
    }

    /// Builds from a sorted, deduplicated vec.
    pub fn from_sorted(v: Vec<Sid>) -> Self {
        debug_assert!(v.windows(2).all(|w| w[0] < w[1]), "sids must be sorted");
        SidSet::List(v)
    }

    /// Builds from a sorted, deduplicated vec in the canonical encoding
    /// for its density — the same [`choose_encoding`] rule
    /// [`SidSet::sealed`] applies, so every construction path lands on
    /// identical bytes.
    pub fn from_sorted_auto(v: Vec<Sid>) -> Self {
        let encoding = choose_encoding(v.len(), v.last().copied().unwrap_or(0));
        SidSet::List(v).encoded(encoding)
    }

    /// Appends a sid; list and compressed encodings require nondecreasing
    /// insertion order (BUILDINDEX scans sequences in sid order, so this
    /// holds naturally).
    pub fn push(&mut self, sid: Sid) {
        match self {
            SidSet::List(v) => {
                if v.last() != Some(&sid) {
                    debug_assert!(v.last().is_none_or(|&l| l < sid));
                    v.push(sid);
                }
            }
            SidSet::Bitmap(b) => b.insert(sid),
            SidSet::Compressed(c) => c.push(sid),
        }
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        match self {
            SidSet::List(v) => v.len(),
            SidSet::Bitmap(b) => b.len(),
            SidSet::Compressed(c) => c.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, sid: Sid) -> bool {
        match self {
            SidSet::List(v) => v.binary_search(&sid).is_ok(),
            SidSet::Bitmap(b) => b.contains(sid),
            SidSet::Compressed(c) => c.contains(sid),
        }
    }

    /// Iterates sids in increasing order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = Sid> + '_> {
        match self {
            SidSet::List(v) => Box::new(v.iter().copied()),
            SidSet::Bitmap(b) => Box::new(b.iter()),
            SidSet::Compressed(c) => Box::new(c.iter()),
        }
    }

    /// A [`SeekingIterator`] over the set, whatever its encoding — the
    /// join ladder's consumption interface.
    pub fn seeker(&self) -> SidSetSeeker<'_> {
        match self {
            SidSet::List(v) => SidSetSeeker::List(SliceSeeker::new(v)),
            SidSet::Bitmap(b) => SidSetSeeker::Bitmap(BitmapSeeker::new(b)),
            SidSet::Compressed(c) => SidSetSeeker::Compressed(c.iter()),
        }
    }

    /// Collects into a sorted vec.
    pub fn to_vec(&self) -> Vec<Sid> {
        self.iter().collect()
    }

    /// Re-wraps a sorted vec in the same encoding as `self`.
    fn encode_like(&self, v: Vec<Sid>) -> SidSet {
        match self {
            SidSet::List(_) => SidSet::List(v),
            SidSet::Bitmap(_) => v.into_iter().collect::<Bitmap>().into(),
            SidSet::Compressed(_) => CompressedSidSet::from_sorted(v).into(),
        }
    }

    /// Re-encodes the set as `encoding`, keeping its content; a compressed
    /// set's staged tail is flushed.
    pub fn encoded(self, encoding: Encoding) -> SidSet {
        match (encoding, self) {
            (Encoding::List, SidSet::List(v)) => SidSet::List(v),
            (Encoding::List, other) => SidSet::List(other.to_vec()),
            (Encoding::Bitmap, SidSet::Bitmap(b)) => SidSet::Bitmap(b),
            (Encoding::Bitmap, SidSet::List(v)) => v.into_iter().collect::<Bitmap>().into(),
            (Encoding::Bitmap, other) => other.iter().collect::<Bitmap>().into(),
            (Encoding::Compressed, SidSet::Compressed(mut c)) => {
                c.seal();
                SidSet::Compressed(c)
            }
            (Encoding::Compressed, SidSet::List(v)) => CompressedSidSet::from_sorted(v).into(),
            (Encoding::Compressed, other) => CompressedSidSet::from_sorted(other.to_vec()).into(),
        }
    }

    /// Canonicalizes the set for long-term storage: re-encodes it as the
    /// [`choose_encoding`] form for its final content. Applied by
    /// `InvertedIndex::seal` before an index is cached, so `heap_bytes`
    /// accounting always sees the final form.
    pub fn sealed(self) -> SidSet {
        let max = match &self {
            SidSet::List(v) => v.last().copied(),
            other => other.iter().last(),
        };
        let encoding = choose_encoding(self.len(), max.unwrap_or(0));
        self.encoded(encoding)
    }

    /// Intersection; the result keeps `self`'s encoding. Mixed encodings
    /// are supported (the bitmap side is probed per element); whenever a
    /// compressed side is involved the leapfrog [`gallop_intersect`]
    /// kernel skips non-overlapping blocks via the skip table.
    pub fn intersect(&self, other: &SidSet) -> SidSet {
        match (self, other) {
            (SidSet::Compressed(_), _) | (_, SidSet::Compressed(_)) => {
                self.encode_like(gallop_intersect(self.seeker(), other.seeker()))
            }
            (SidSet::List(a), SidSet::List(b)) => {
                let mut out = Vec::new();
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                SidSet::List(out)
            }
            (SidSet::Bitmap(a), SidSet::Bitmap(b)) => a.intersect(b).into(),
            (SidSet::List(a), SidSet::Bitmap(b)) => {
                SidSet::List(a.iter().copied().filter(|&s| b.contains(s)).collect())
            }
            (SidSet::Bitmap(a), SidSet::List(b)) => (b.iter().copied().filter(|&s| a.contains(s)))
                .collect::<Bitmap>()
                .into(),
        }
    }

    /// Union; the result keeps `self`'s encoding.
    pub fn union(&self, other: &SidSet) -> SidSet {
        match (self, other) {
            (SidSet::Compressed(_), _) | (_, SidSet::Compressed(_)) => {
                let (mut a, mut b) = (self.seeker(), other.seeker());
                let mut out = Vec::new();
                let (mut x, mut y) = (a.next_sid(), b.next_sid());
                loop {
                    match (x, y) {
                        (Some(sa), Some(sb)) => match sa.cmp(&sb) {
                            std::cmp::Ordering::Less => {
                                out.push(sa);
                                x = a.next_sid();
                            }
                            std::cmp::Ordering::Greater => {
                                out.push(sb);
                                y = b.next_sid();
                            }
                            std::cmp::Ordering::Equal => {
                                out.push(sa);
                                x = a.next_sid();
                                y = b.next_sid();
                            }
                        },
                        (Some(sa), None) => {
                            out.push(sa);
                            x = a.next_sid();
                        }
                        (None, Some(sb)) => {
                            out.push(sb);
                            y = b.next_sid();
                        }
                        (None, None) => break,
                    }
                }
                self.encode_like(out)
            }
            (SidSet::List(a), SidSet::List(b)) => {
                let mut out = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => {
                            out.push(a[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            out.push(b[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                out.extend_from_slice(&a[i..]);
                out.extend_from_slice(&b[j..]);
                SidSet::List(out)
            }
            (SidSet::Bitmap(a), SidSet::Bitmap(b)) => a.union(b).into(),
            (SidSet::List(_), SidSet::Bitmap(b)) => {
                let mut merged: Bitmap = self.iter().collect();
                for s in b.iter() {
                    merged.insert(s);
                }
                SidSet::List(merged.iter().collect())
            }
            (SidSet::Bitmap(a), SidSet::List(b)) => {
                let mut out = a.clone();
                for &s in b {
                    out.insert(s);
                }
                SidSet::Bitmap(out)
            }
        }
    }

    /// Heap bytes (for index size accounting, Table 1's "Size of II").
    /// For the compressed form this is exact — encoded payload plus skip
    /// table, never the decoded size.
    pub fn heap_bytes(&self) -> usize {
        match self {
            SidSet::List(v) => v.len() * 4,
            SidSet::Bitmap(b) => b.heap_bytes(),
            SidSet::Compressed(c) => c.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(v: &[Sid]) -> SidSet {
        SidSet::from_sorted(v.to_vec())
    }

    fn bitmap(v: &[Sid]) -> SidSet {
        v.iter().copied().collect::<Bitmap>().into()
    }

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::new();
        for s in [5, 64, 1, 200, 64] {
            b.insert(s);
        }
        assert_eq!(b.len(), 4);
        assert!(b.contains(64));
        assert!(!b.contains(63));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![1, 5, 64, 200]);
        assert!(b.heap_bytes() >= 4 * 8);
    }

    #[test]
    fn list_intersection() {
        let a = list(&[1, 3, 5, 7, 200]);
        let b = list(&[3, 4, 5, 200, 300]);
        assert_eq!(a.intersect(&b).to_vec(), vec![3, 5, 200]);
        assert_eq!(b.intersect(&a).to_vec(), vec![3, 5, 200]);
        assert!(a.intersect(&SidSet::empty_list()).is_empty());
    }

    #[test]
    fn list_union() {
        let a = list(&[1, 5]);
        let b = list(&[2, 5, 9]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 5, 9]);
    }

    #[test]
    fn bitmap_set_algebra_matches_lists() {
        let xs = [1u32, 3, 64, 65, 128, 500];
        let ys = [3u32, 64, 400, 500];
        let (la, lb) = (list(&xs), list(&ys));
        let (ba, bb) = (bitmap(&xs), bitmap(&ys));
        assert_eq!(la.intersect(&lb).to_vec(), ba.intersect(&bb).to_vec());
        assert_eq!(la.union(&lb).to_vec(), ba.union(&bb).to_vec());
    }

    #[test]
    fn mixed_encodings() {
        let a = list(&[1, 2, 3, 100]);
        let b = bitmap(&[2, 100, 101]);
        assert_eq!(a.intersect(&b).to_vec(), vec![2, 100]);
        assert_eq!(b.intersect(&a).to_vec(), vec![2, 100]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 100, 101]);
        assert_eq!(b.union(&a).to_vec(), vec![1, 2, 3, 100, 101]);
    }

    #[test]
    fn push_dedupes_in_order() {
        let mut s = SidSet::empty_list();
        for sid in [1, 1, 2, 2, 2, 9] {
            s.push(sid);
        }
        assert_eq!(s.to_vec(), vec![1, 2, 9]);
        let mut b = SidSet::from(Bitmap::new());
        for sid in [9, 1, 1] {
            b.push(sid);
        }
        assert_eq!(b.to_vec(), vec![1, 9]);
    }

    fn compressed(v: &[Sid]) -> SidSet {
        CompressedSidSet::from_sorted(v.to_vec()).into()
    }

    #[test]
    fn compressed_set_algebra_matches_lists() {
        let xs: Vec<Sid> = (0..500).map(|i| i * 3).collect();
        let ys: Vec<Sid> = (0..300).map(|i| i * 5 + 1).collect();
        let (la, lb) = (list(&xs), list(&ys));
        let want_int = la.intersect(&lb).to_vec();
        let want_uni = la.union(&lb).to_vec();
        for a in [list(&xs), bitmap(&xs), compressed(&xs)] {
            for b in [list(&ys), bitmap(&ys), compressed(&ys)] {
                if matches!(a, SidSet::Compressed(_)) || matches!(b, SidSet::Compressed(_)) {
                    assert_eq!(a.intersect(&b).to_vec(), want_int);
                    assert_eq!(a.union(&b).to_vec(), want_uni);
                }
            }
        }
        // The result keeps self's encoding.
        assert!(matches!(
            compressed(&xs).intersect(&lb),
            SidSet::Compressed(_)
        ));
        assert!(matches!(la.intersect(&compressed(&ys)), SidSet::List(_)));
    }

    /// The density boundary: pushed-then-`sealed` sets and bulk
    /// `from_sorted_auto` must settle on the same encoding (and bytes) at,
    /// below, and above the density threshold, whatever encoding the
    /// pushes were staged in.
    #[test]
    fn promotion_boundary_is_consistent() {
        // Dense (max < len*8 ⇒ bitmap), sparse-compressed, and tiny sets,
        // straddling the COMPRESS_MIN_LEN = 16 cardinality gate.
        let cases: Vec<Vec<Sid>> = vec![
            (0..15).collect(),                    // just below the gate → List
            (0..16).collect(),                    // at the gate, dense → Bitmap
            (0..16).map(|i| i * 9).collect(),     // at the gate, max ≥ len*8 → Compressed
            (0..16).map(|i| i * 7).collect(),     // just inside density → Bitmap
            (0..100).map(|i| i * 1000).collect(), // sparse → Compressed
        ];
        for v in cases {
            let bulk = SidSet::from_sorted_auto(v.clone());
            let mut pushed = SidSet::empty_list();
            for &s in &v {
                pushed.push(s);
            }
            let sealed = pushed.sealed();
            assert_eq!(sealed, bulk, "push ∘ seal ≠ from_sorted_auto for {v:?}");
            let expect = choose_encoding(v.len(), v.last().copied().unwrap_or(0));
            let got = match &sealed {
                SidSet::List(_) => Encoding::List,
                SidSet::Bitmap(_) => Encoding::Bitmap,
                SidSet::Compressed(_) => Encoding::Compressed,
            };
            assert_eq!(got, expect, "sealed encoding for {v:?}");
            // Bitmap-staged pushes seal to the same canonical form.
            let mut via_bitmap = SidSet::from(Bitmap::new());
            for &s in &v {
                via_bitmap.push(s);
            }
            assert_eq!(via_bitmap.sealed(), bulk);
        }
    }

    #[test]
    fn encoding_as_compressed_flushes_the_tail() {
        let mut c = SidSet::from(CompressedSidSet::default());
        for s in 0..200u32 {
            c.push(s * 9);
        }
        let SidSet::Compressed(inner) = &c else {
            unreachable!()
        };
        assert!(!inner.is_sealed(), "200 % 128 sids must be staged");
        let sealed = c.encoded(Encoding::Compressed);
        let SidSet::Compressed(inner) = &sealed else {
            panic!("seal must keep the compressed encoding")
        };
        assert!(inner.is_sealed());
        assert_eq!(
            sealed,
            SidSet::from(CompressedSidSet::from_sorted(
                (0..200u32).map(|s| s * 9).collect()
            ))
        );
    }

    #[test]
    fn contains_and_len() {
        let s = list(&[2, 4, 6]);
        assert!(s.contains(4));
        assert!(!s.contains(5));
        assert_eq!(s.len(), 3);
        let b = bitmap(&[2, 4, 6]);
        assert!(b.contains(6));
        assert_eq!(b.len(), 3);
    }
}
