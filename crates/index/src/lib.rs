//! # solap-index
//!
//! Inverted indices over sequence groups — the auxiliary data structure of
//! the paper's second S-cuboid construction approach (§4.2.2).
//!
//! A size-`m` inverted index `L_m` maps each length-`m` pattern (a string of
//! pattern-dimension values) to the list of sids of the sequences containing
//! it. This crate provides:
//!
//! * [`sidset::SidSet`] — sid collections in three encodings: sorted
//!   lists (the paper's inverted lists), bitmaps (the §6 "bitmap index"
//!   optimisation, where intersection becomes bitwise AND), and
//!   block-compressed lists — each stored list in the one its density
//!   calls for ([`sidset::choose_encoding`]);
//! * [`codec`] — the compressed form: delta+varint / bitpacked blocks of
//!   ≤ 128 sids behind a per-block max-sid skip table, the
//!   [`codec::SeekingIterator`] `next_seek` contract, and the leapfrog
//!   [`codec::gallop_intersect`] join kernel;
//! * [`inverted::InvertedIndex`] and [`inverted::build_index`] — the
//!   BUILDINDEX algorithm of Figure 9;
//! * [`join`] — the index-join algebra of Figure 15
//!   (`L_{i+1} = L_i ⋈ L_2`), plus the list-union merge that answers
//!   P-ROLL-UP without touching the data (§4.2.2 item 4);
//! * [`store::IndexStore`] — the cache of precomputed and query-by-product
//!   indices, keyed by sequence-group fingerprint and template signature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod inverted;
pub mod join;
pub mod sidset;
pub mod store;

pub use codec::{
    gallop_intersect, BlockFormat, CompressedSidSet, SeekingIterator, SidSetSeeker, BLOCK,
};
pub use inverted::{build_index, build_index_governed, InvertedIndex};
pub use sidset::{choose_encoding, Bitmap, Encoding, SidSet};
pub use store::{IndexKey, IndexStore, PosSlice};
