//! Packed cell codes: a cell (or a pattern) as one integer.
//!
//! Pattern-dimension values are dictionary ids from small domains, so a cell
//! `(v1, …, vn)` is a *position* in Figure 7's `C[v1, …, vn]`, not a key to
//! hash. Its code is that position: mixed radix over the dictionary
//! cardinality of each dimension at its abstraction level, first dimension
//! most significant (so code order is cell order and the code space is
//! exactly the cell space). A dimension without a finite domain (raw
//! integers, time buckets), or cardinalities whose product overflows 64
//! bits, leave the cell in its `Vec` form — decided by the data alone.
//!
//! [`CellTable`] is the one `cell → V` map the construction kernels share:
//! an array indexed by code when the code space is small, a hash map keyed
//! by the code when it is not, a hash map keyed by the `Vec` as the fallback.
//! Keys are materialised once per non-empty cell, by
//! [`CellTable::into_cells`].

use std::collections::HashMap;

use solap_eventdb::{EventDb, LevelValue};

use crate::template::PatternDim;

/// The packed-code layout of a template's cells.
#[derive(Debug, Clone)]
pub struct CellCodec {
    /// Per dimension: its cardinality and the product of those after it.
    radix: Vec<(u64, u64)>,
    space: Option<u64>,
}

impl CellCodec {
    /// Derives the layout from the dictionary cardinality of every
    /// dimension at its level.
    pub fn new(db: &EventDb, dims: &[PatternDim]) -> Self {
        let mut radix = Vec::with_capacity(dims.len());
        let mut space = Some(1u64);
        for d in dims.iter().rev() {
            let size = db.level_domain_size(d.attr, d.level).map(|n| n as u64);
            radix.push((size.unwrap_or(0), space.unwrap_or(0)));
            space = space.zip(size).and_then(|(below, n)| below.checked_mul(n));
        }
        radix.reverse();
        CellCodec { radix, space }
    }

    /// Number of distinct codes — the size of the cell space — when every
    /// dimension is finite and a cell fits one `u64`.
    pub fn space(&self) -> Option<u64> {
        self.space
    }

    /// The code of `cell`. Only meaningful when [`CellCodec::space`] is
    /// `Some`.
    #[inline]
    pub fn pack(&self, cell: &[LevelValue]) -> u64 {
        let mut code = 0;
        for (&(size, stride), &v) in self.radix.iter().zip(cell) {
            debug_assert!(v < size, "value {v} outside its dictionary of {size}");
            code += v * stride;
        }
        code
    }

    /// The cell of `code` (inverse of [`CellCodec::pack`]).
    pub fn unpack(&self, code: u64) -> Vec<LevelValue> {
        self.radix
            .iter()
            .map(|&(size, stride)| (code / stride) % size)
            .collect()
    }
}

enum Slots<V> {
    Dense(Vec<V>),
    Packed(HashMap<u64, V>),
    Wide(HashMap<Vec<LevelValue>, V>),
}

/// A `cell → V` map in the layout the cells' codes allow.
pub struct CellTable<V> {
    codec: CellCodec,
    fill: V,
    slots: Slots<V>,
}

impl<V: Clone + PartialEq> CellTable<V> {
    /// An empty table. Slots start as `fill`; the array layout is taken
    /// when the code space has at most `dense_slots` codes.
    pub fn new(codec: CellCodec, dense_slots: u64, fill: V) -> Self {
        let slots = match codec.space() {
            Some(n) if n <= dense_slots => Slots::Dense(vec![fill.clone(); n as usize]),
            Some(_) => Slots::Packed(HashMap::new()),
            None => Slots::Wide(HashMap::new()),
        };
        CellTable { codec, fill, slots }
    }

    /// The slot of `cell`, and whether it is fresh: absent before this
    /// call, or — in the array layout, where every slot exists — still
    /// equal to `fill`. A caller that counts fresh slots must therefore
    /// move each one off `fill`.
    #[inline]
    pub fn slot(&mut self, cell: &[LevelValue]) -> (&mut V, bool) {
        match &mut self.slots {
            Slots::Dense(slots) => {
                let slot = &mut slots[self.codec.pack(cell) as usize];
                let fresh = *slot == self.fill;
                (slot, fresh)
            }
            Slots::Packed(map) => {
                let mut fresh = false;
                let slot = map.entry(self.codec.pack(cell)).or_insert_with(|| {
                    fresh = true;
                    self.fill.clone()
                });
                (slot, fresh)
            }
            Slots::Wide(map) => {
                // Look up by slice first: the key is cloned once per cell,
                // not once per visit.
                let fresh = !map.contains_key(cell);
                if fresh {
                    map.insert(cell.to_vec(), self.fill.clone());
                }
                (map.get_mut(cell).expect("present or just inserted"), fresh)
            }
        }
    }

    /// The non-empty cells with their keys materialised, in no particular
    /// order.
    pub fn into_cells(self) -> Vec<(Vec<LevelValue>, V)> {
        let CellTable { codec, fill, slots } = self;
        match slots {
            Slots::Dense(slots) => slots
                .into_iter()
                .enumerate()
                .filter(|(_, v)| *v != fill)
                .map(|(code, v)| (codec.unpack(code as u64), v))
                .collect(),
            Slots::Packed(map) => map
                .into_iter()
                .map(|(code, v)| (codec.unpack(code), v))
                .collect(),
            Slots::Wide(map) => map.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{ColumnType, EventDbBuilder, Value};

    /// `sym` has 5 values, `n` is a raw integer (no finite domain).
    fn db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("sym", ColumnType::Str)
            .dimension("n", ColumnType::Int)
            .build()
            .unwrap();
        for (i, s) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            db.push_row(&[Value::from(*s), Value::Int(i as i64)])
                .unwrap();
        }
        db
    }

    fn dims(attrs: &[u32]) -> Vec<PatternDim> {
        attrs
            .iter()
            .enumerate()
            .map(|(i, &attr)| PatternDim {
                name: format!("D{i}"),
                attr,
                level: 0,
            })
            .collect()
    }

    #[test]
    fn the_code_is_the_position_in_the_cell_space() {
        let db = db();
        let c = CellCodec::new(&db, &dims(&[0, 0, 0]));
        assert_eq!(c.space(), Some(125));
        let cell = vec![4, 0, 3];
        assert_eq!(c.pack(&cell), 4 * 25 + 3);
        assert_eq!(c.unpack(c.pack(&cell)), cell);
        // Code order is cell order.
        assert!(c.pack(&[1, 0, 0]) > c.pack(&[0, 4, 4]));
        assert_eq!(CellCodec::new(&db, &[]).space(), Some(1));
    }

    #[test]
    fn unbounded_or_overflowing_domains_keep_the_vec_form() {
        let db = db();
        assert_eq!(CellCodec::new(&db, &dims(&[1])).space(), None);
        assert_eq!(CellCodec::new(&db, &dims(&[0, 1, 0])).space(), None);
        // 5^27 < 2^64 < 5^28.
        assert!(CellCodec::new(&db, &dims(&[0; 27])).space().is_some());
        assert_eq!(CellCodec::new(&db, &dims(&[0; 28])).space(), None);
    }

    #[test]
    fn every_layout_is_the_same_map() {
        let db = db();
        let cells: [&[u64]; 4] = [&[1, 2], &[4, 4], &[1, 2], &[0, 0]];
        for (attrs, dense_slots) in [([0, 0], u64::MAX), ([0, 0], 0), ([1, 1], 0)] {
            let mut t = CellTable::new(CellCodec::new(&db, &dims(&attrs)), dense_slots, 0u32);
            let mut fresh = 0;
            for cell in cells {
                let (slot, new) = t.slot(cell);
                fresh += u32::from(new);
                *slot += 1;
            }
            assert_eq!(fresh, 3);
            let mut out = t.into_cells();
            out.sort();
            assert_eq!(
                out,
                vec![(vec![0, 0], 1), (vec![1, 2], 2), (vec![4, 4], 1)],
                "{attrs:?} dense_slots={dense_slots}"
            );
        }
    }
}
