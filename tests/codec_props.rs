//! Codec property battery (DESIGN.md §12): every sid-set encoding
//! round-trips arbitrary sorted sets, the block-compressed serialized form
//! survives adversarial corruption with a typed error — never a panic,
//! never silently wrong sids — and the `SeekingIterator` contract holds on
//! all three seeker implementations.
//!
//! The corruption half reuses the persistence fuzz recipe (DESIGN.md §10):
//! every prefix truncation and every single-bit flip of a valid buffer is
//! fed back to the decoder under `catch_unwind`.

use std::panic::catch_unwind;

use proptest::prelude::*;

use s_olap::eventdb::Error;
use s_olap::index::{Bitmap, BlockFormat, CompressedSidSet, SeekingIterator, SidSet, BLOCK};

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

/// The edge-case corpus: the sets most likely to break block cutting,
/// gap encoding, or the bitpack span arithmetic.
fn edge_cases() -> Vec<Vec<u32>> {
    let mut cases: Vec<Vec<u32>> = vec![
        vec![],
        vec![0],
        vec![u32::MAX],
        vec![0, u32::MAX],
        (0..1_000).collect(),                  // dense run, many blocks
        (0..BLOCK as u32).collect(),           // exactly one full block
        (0..BLOCK as u32 + 1).collect(),       // one block + 1-sid tail
        (0..5_000).step_by(7).collect(),       // regular sparse
        (u32::MAX - 600..=u32::MAX).collect(), // dense at the top of Sid
    ];
    // Adversarial gaps: alternate 1-gaps with huge gaps so varint lengths
    // flip between 1 and 5 bytes inside one block.
    let mut adversarial = Vec::new();
    let mut s: u32 = 0;
    for i in 0..400u32 {
        adversarial.push(s);
        s = s.saturating_add(if i % 2 == 0 { 1 } else { 9_999_991 });
        if s == u32::MAX {
            break;
        }
    }
    cases.push(sorted(adversarial));
    cases
}

/// Every encoding round-trips every edge case, and the compressed form
/// also survives serialization.
#[test]
fn edge_cases_round_trip_every_codec() {
    for v in edge_cases() {
        let list = SidSet::from_sorted(v.clone());
        assert_eq!(list.to_vec(), v, "list round-trip");
        let bitmap = SidSet::from(v.iter().copied().collect::<Bitmap>());
        assert_eq!(bitmap.to_vec(), v, "bitmap round-trip");
        let comp = CompressedSidSet::from_sorted(v.clone());
        assert_eq!(comp.to_vec(), v, "compressed round-trip");
        assert_eq!(comp.len(), v.len());
        for &s in v.iter().take(300) {
            assert!(comp.contains(s));
        }
        let bytes = comp.to_bytes();
        let back = CompressedSidSet::from_bytes(&bytes).expect("valid buffer decodes");
        assert_eq!(back, comp, "serialized round-trip is exact");
        assert_eq!(back.to_vec(), v);
    }
}

/// The dense edge cases actually exercise the bitpack arm and the sparse
/// ones the varint arm — otherwise the corpus proves less than it claims.
#[test]
fn edge_corpus_covers_both_block_formats() {
    let dense = CompressedSidSet::from_sorted((0..1_000).collect());
    assert!(dense
        .block_formats()
        .iter()
        .all(|f| *f == BlockFormat::Bitpack));
    let sparse = CompressedSidSet::from_sorted((0..50_000).step_by(97).collect());
    assert!(sparse
        .block_formats()
        .iter()
        .all(|f| *f == BlockFormat::Varint));
}

proptest! {
    /// Arbitrary sorted sets round-trip through every encoding and the
    /// serialized compressed form; push-building equals bulk-building.
    #[test]
    fn round_trips_arbitrary_sets(
        raw in prop::collection::vec(0u32..2_000_000, 0..600),
    ) {
        let v = sorted(raw);
        prop_assert_eq!(SidSet::from_sorted(v.clone()).to_vec(), v.clone());
        prop_assert_eq!(
            SidSet::from(v.iter().copied().collect::<Bitmap>()).to_vec(),
            v.clone()
        );
        let bulk = CompressedSidSet::from_sorted(v.clone());
        prop_assert_eq!(bulk.to_vec(), v.clone());
        let mut pushed = CompressedSidSet::new();
        for &s in &v {
            pushed.push(s);
        }
        pushed.seal();
        let mut sealed_bulk = bulk.clone();
        sealed_bulk.seal();
        prop_assert_eq!(&pushed, &sealed_bulk);
        let back = CompressedSidSet::from_bytes(&pushed.to_bytes()).unwrap();
        prop_assert_eq!(back.to_vec(), v);
    }

    /// `next_seek` returns the first not-yet-consumed sid ≥ target on all
    /// three seekers, interleaved with plain `next_sid` calls.
    #[test]
    fn seek_contract_holds_on_every_seeker(
        raw in prop::collection::vec(0u32..3_000, 1..200),
        probes in prop::collection::vec((0u32..3_200, any::<bool>()), 1..40),
    ) {
        let v = sorted(raw);
        let list = SidSet::from_sorted(v.clone());
        let bitmap = SidSet::from(v.iter().copied().collect::<Bitmap>());
        let comp = SidSet::from(CompressedSidSet::from_sorted(v.clone()));
        for set in [&list, &bitmap, &comp] {
            let mut seeker = set.seeker();
            // Model: the cursor is an index into v that only moves forward.
            let mut cursor = 0usize;
            for &(p, advance) in &probes {
                if advance {
                    let expect = v.get(cursor).copied();
                    prop_assert_eq!(seeker.next_sid(), expect);
                    cursor = (cursor + 1).min(v.len());
                } else {
                    let at = cursor + v[cursor..].partition_point(|&s| s < p);
                    prop_assert_eq!(seeker.next_seek(p), v.get(at).copied());
                    cursor = (at + 1).min(v.len());
                }
            }
        }
    }
}

/// Every prefix truncation of a serialized set fails typed — never panics,
/// never decodes.
#[test]
fn every_prefix_truncation_errors() {
    for v in [
        (0..700).step_by(3).collect::<Vec<u32>>(),
        (0..300).collect(),
        vec![5],
    ] {
        let buf = CompressedSidSet::from_sorted(v).to_bytes();
        for cut in 0..buf.len() {
            let res = catch_unwind(|| CompressedSidSet::from_bytes(&buf[..cut]));
            match res {
                Ok(Ok(_)) => panic!("truncation at {cut}/{} decoded", buf.len()),
                Ok(Err(Error::Corrupt { .. })) => {}
                Ok(Err(e)) => panic!("truncation at {cut} returned non-Corrupt {e:?}"),
                Err(_) => panic!("truncation at {cut}/{} panicked", buf.len()),
            }
        }
    }
}

/// Every single-bit flip anywhere in the buffer is caught by the checksum
/// (or an inner validity check) — typed error, never a panic, and never a
/// silently different set.
#[test]
fn every_single_bit_flip_errors() {
    let original: Vec<u32> = (0..900).step_by(2).collect();
    let buf = CompressedSidSet::from_sorted(original).to_bytes();
    for pos in 0..buf.len() {
        for bit in 0..8u8 {
            let mut bad = buf.clone();
            bad[pos] ^= 1 << bit;
            match catch_unwind(|| CompressedSidSet::from_bytes(&bad)) {
                Ok(Ok(_)) => panic!("flip bit {bit} of byte {pos} decoded successfully"),
                Ok(Err(Error::Corrupt { .. })) => {}
                Ok(Err(e)) => panic!("flip bit {bit} of byte {pos} returned {e:?}"),
                Err(_) => panic!("flip bit {bit} of byte {pos} panicked"),
            }
        }
    }
}

/// Random multi-byte garbage (seeded xorshift, fixed corpus) never panics
/// the decoder, whatever it decodes to.
#[test]
fn arbitrary_garbage_never_panics() {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in [0usize, 1, 4, 16, 17, 32, 64, 256, 1024] {
        for _ in 0..50 {
            let garbage: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let res = catch_unwind(|| CompressedSidSet::from_bytes(&garbage));
            match res {
                Ok(Ok(set)) => {
                    // Astronomically unlikely, but if garbage checksums it
                    // must still be a well-formed set.
                    let v = set.to_vec();
                    assert!(v.windows(2).all(|w| w[0] < w[1]));
                }
                Ok(Err(_)) => {}
                Err(_) => panic!("garbage of len {len} panicked the decoder"),
            }
        }
    }
}
