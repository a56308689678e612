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
//! Two maps share the layout:
//!
//! * [`CellTable`] — the scratch `cell → V` table a construction kernel
//!   fills while it scans: an array indexed by code when the code space is
//!   small, a hash map keyed by the code when it is not, a hash map keyed by
//!   the `Vec` as the fallback. [`CellTable::into_map`] hands its non-empty
//!   cells over as a [`CellMap`] without unpacking one of them.
//! * [`CellMap`] — the stored form of inverted lists and cuboid cells:
//!   sparse, sorted by code, keyed by the code (heap `Vec` keys only in the
//!   no-finite-space fallback). Each map carries the [`CellCodec`] it was
//!   keyed with; a `STORE` that grows a dictionary grows the radix, and a
//!   map combined with one keyed under another codec is re-keyed, never
//!   recounted.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::convert::Infallible;

use solap_eventdb::{EventDb, LevelValue};

use crate::template::{PatternDim, PatternTemplate};

/// The packed-code layout of a template's cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellCodec {
    /// Per dimension: its cardinality, `None` without a finite domain.
    sizes: Vec<Option<u64>>,
    /// Per dimension: the product of the cardinalities after it (only
    /// meaningful when `space` is `Some`).
    strides: Vec<u64>,
    space: Option<u64>,
}

impl CellCodec {
    /// Derives the layout from the dictionary cardinality of every
    /// dimension at its level.
    pub fn new(db: &EventDb, dims: &[PatternDim]) -> Self {
        Self::from_sizes(
            dims.iter()
                .map(|d| db.level_domain_size(d.attr, d.level).map(|n| n as u64)),
        )
    }

    /// The layout of a template's *patterns*: one dimension per position
    /// (a repeated symbol repeats its dimension), as inverted lists are
    /// keyed.
    pub fn positions(db: &EventDb, template: &PatternTemplate) -> Self {
        Self::new(db, &template.dims).select(&template.symbols)
    }

    /// The layout of cells whose dimension `p` has `sizes[p]` values
    /// (`None`: no finite domain).
    pub fn from_sizes(sizes: impl IntoIterator<Item = Option<u64>>) -> Self {
        let sizes: Vec<Option<u64>> = sizes.into_iter().collect();
        let mut strides = vec![0; sizes.len()];
        let mut space = Some(1u64);
        for (stride, size) in strides.iter_mut().zip(&sizes).rev() {
            *stride = space.unwrap_or(0);
            space = space.zip(*size).and_then(|(below, n)| below.checked_mul(n));
        }
        CellCodec {
            sizes,
            strides,
            space,
        }
    }

    /// The `Vec`-form layout of `arity`-dimensional cells.
    pub fn wide(arity: usize) -> Self {
        Self::from_sizes(std::iter::repeat_n(None, arity))
    }

    /// The layout of the cells `(c[positions[0]], c[positions[1]], …)` of
    /// this layout's cells `c`.
    pub fn select(&self, positions: &[usize]) -> Self {
        Self::from_sizes(positions.iter().map(|&p| self.sizes[p]))
    }

    /// The layout of `self`'s cells followed by `other`'s cells without
    /// their first `skip` dimensions (an index join's overlap).
    pub fn concat(&self, other: &CellCodec, skip: usize) -> Self {
        Self::from_sizes(self.sizes.iter().chain(&other.sizes[skip..]).copied())
    }

    /// The smallest layout holding every cell of both (equal arity): the
    /// larger cardinality per dimension. A dictionary only grows, so this
    /// is the newer of two layouts of the same dimensions.
    pub fn covering(&self, other: &CellCodec) -> Self {
        debug_assert_eq!(self.arity(), other.arity());
        Self::from_sizes(
            self.sizes
                .iter()
                .zip(&other.sizes)
                .map(|(a, b)| a.zip(*b).map(|(a, b)| a.max(b))),
        )
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.sizes.len()
    }

    /// Number of distinct codes — the size of the cell space — when every
    /// dimension is finite and a cell fits one `u64`.
    pub fn space(&self) -> Option<u64> {
        self.space
    }

    /// Heap bytes of the layout itself.
    pub fn heap_bytes(&self) -> usize {
        self.sizes.capacity() * std::mem::size_of::<Option<u64>>() + self.strides.capacity() * 8
    }

    /// The code of `cell`. Only meaningful when [`CellCodec::space`] is
    /// `Some` and every value lies inside its dictionary.
    #[inline]
    pub fn pack(&self, cell: &[LevelValue]) -> u64 {
        let mut code = 0;
        for (&stride, &v) in self.strides.iter().zip(cell) {
            code += v * stride;
        }
        code
    }

    /// The code of `cell`, or `None` when the layout has no codes or a
    /// value lies outside its dimension's dictionary.
    #[inline]
    pub fn try_pack(&self, cell: &[LevelValue]) -> Option<u64> {
        self.space?;
        if cell.len() != self.arity() {
            return None;
        }
        let mut code = 0;
        for ((&stride, size), &v) in self.strides.iter().zip(&self.sizes).zip(cell) {
            if v >= (*size)? {
                return None;
            }
            code += v * stride;
        }
        Some(code)
    }

    /// The value of dimension `p` in the cell of `code`.
    #[inline]
    pub fn value_at(&self, code: u64, p: usize) -> LevelValue {
        let size = self.sizes[p].unwrap_or(u64::MAX);
        (code / self.strides[p]) % size
    }

    /// The cell of `code` (inverse of [`CellCodec::pack`]).
    pub fn unpack(&self, code: u64) -> Vec<LevelValue> {
        let mut cell = Vec::with_capacity(self.arity());
        self.unpack_into(code, &mut cell);
        cell
    }

    /// Writes the cell of `code` into `out`, replacing its contents.
    #[inline]
    pub fn unpack_into(&self, code: u64, out: &mut Vec<LevelValue>) {
        out.clear();
        out.extend((0..self.arity()).map(|p| self.value_at(code, p)));
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

    /// The non-empty cells as a [`CellMap`] under the table's codec: the
    /// array layout is already in code order, the hash layouts are sorted
    /// once. No key is unpacked.
    pub fn into_map(self) -> CellMap<V> {
        let CellTable { codec, fill, slots } = self;
        let (keys, values) = match slots {
            Slots::Dense(slots) => {
                let mut codes = Vec::new();
                let mut values = Vec::new();
                for (code, v) in slots.into_iter().enumerate() {
                    if v != fill {
                        codes.push(code as u64);
                        values.push(v);
                    }
                }
                codes.shrink_to_fit();
                values.shrink_to_fit();
                (Keys::Packed(codes), values)
            }
            Slots::Packed(map) => {
                let mut cells: Vec<(u64, V)> = map.into_iter().collect();
                cells.sort_unstable_by_key(|&(code, _)| code);
                let (codes, values) = cells.into_iter().unzip();
                (Keys::Packed(codes), values)
            }
            Slots::Wide(map) => {
                let mut cells: Vec<(Vec<LevelValue>, V)> = map.into_iter().collect();
                cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                let (cells, values) = cells.into_iter().unzip();
                (Keys::Wide(cells), values)
            }
        };
        CellMap {
            codec,
            keys,
            values,
        }
    }
}

/// The keys of a [`CellMap`], strictly increasing.
#[derive(Debug, Clone)]
enum Keys {
    /// Packed codes, when the codec has a finite space.
    Packed(Vec<u64>),
    /// The fallback: cells in their `Vec` form, in lexicographic order.
    Wide(Vec<Vec<LevelValue>>),
}

impl Keys {
    fn for_codec(codec: &CellCodec) -> Keys {
        match codec.space() {
            Some(_) => Keys::Packed(Vec::new()),
            None => Keys::Wide(Vec::new()),
        }
    }

    /// The keys in their `Vec` form, unpacked under `codec`.
    fn into_cells(self, codec: &CellCodec) -> Vec<Vec<LevelValue>> {
        match self {
            Keys::Packed(codes) => codes.into_iter().map(|code| codec.unpack(code)).collect(),
            Keys::Wide(cells) => cells,
        }
    }
}

/// One key of a [`CellMap`], read through its codec without being
/// materialised.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    codec: &'a CellCodec,
    key: Key<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Key<'a> {
    Code(u64),
    Wide(&'a [LevelValue]),
}

impl Cell<'_> {
    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.codec.arity()
    }

    /// Whether the cell has no dimensions (the empty template's one cell).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of dimension `p`.
    #[inline]
    pub fn get(&self, p: usize) -> LevelValue {
        match self.key {
            Key::Code(code) => self.codec.value_at(code, p),
            Key::Wide(cell) => cell[p],
        }
    }

    /// The packed code, unless the map is in the `Vec` fallback.
    pub fn code(&self) -> Option<u64> {
        match self.key {
            Key::Code(code) => Some(code),
            Key::Wide(_) => None,
        }
    }

    /// The values in dimension order.
    pub fn values(&self) -> impl Iterator<Item = LevelValue> + '_ {
        (0..self.len()).map(|p| self.get(p))
    }

    /// Writes the values into `out`, replacing its contents.
    pub fn write_into(&self, out: &mut Vec<LevelValue>) {
        match self.key {
            Key::Code(code) => self.codec.unpack_into(code, out),
            Key::Wide(cell) => {
                out.clear();
                out.extend_from_slice(cell);
            }
        }
    }

    /// The values as a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<LevelValue> {
        let mut out = Vec::with_capacity(self.len());
        self.write_into(&mut out);
        out
    }
}

/// A sparse `cell → V` map sorted by cell, keyed by the cell's packed code
/// under the [`CellCodec`] it carries — the stored form of inverted lists
/// and cuboid cells. Code order is cell order, so iteration is in key order
/// for free; lookups are binary searches.
///
/// Equality compares cells and values, not layouts: two maps over the same
/// cells are equal whichever codec keyed them.
#[derive(Debug, Clone)]
pub struct CellMap<V> {
    codec: CellCodec,
    keys: Keys,
    values: Vec<V>,
}

impl<V> CellMap<V> {
    /// An empty map keyed under `codec`.
    pub fn new(codec: CellCodec) -> Self {
        CellMap {
            keys: Keys::for_codec(&codec),
            codec,
            values: Vec::new(),
        }
    }

    /// The layout the map is keyed with.
    pub fn codec(&self) -> &CellCodec {
        &self.codec
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the map has no cells.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Where `cell` is (`Ok`) or would go (`Err`); `None` when it cannot be
    /// keyed under this codec (a value outside its dictionary).
    fn search(&self, cell: &[LevelValue]) -> Option<Result<usize, usize>> {
        match &self.keys {
            Keys::Packed(codes) => {
                let code = self.codec.try_pack(cell)?;
                Some(codes.binary_search(&code))
            }
            Keys::Wide(cells) => Some(cells.binary_search_by(|k| k.as_slice().cmp(cell))),
        }
    }

    /// The value of `cell`, if present.
    pub fn get(&self, cell: &[LevelValue]) -> Option<&V> {
        let i = self.search(cell)?.ok()?;
        self.values.get(i)
    }

    /// Sets the value of `cell`, returning the one it replaces. A cell the
    /// codec cannot key moves the map to the `Vec` fallback first.
    pub fn insert(&mut self, cell: &[LevelValue], value: V) -> Option<V> {
        let at = match self.search(cell) {
            Some(at) => at,
            None => {
                self.widen();
                self.search(cell).unwrap_or(Err(0))
            }
        };
        match at {
            Ok(i) => Some(std::mem::replace(&mut self.values[i], value)),
            Err(i) => {
                match &mut self.keys {
                    Keys::Packed(codes) => codes.insert(i, self.codec.pack(cell)),
                    Keys::Wide(cells) => cells.insert(i, cell.to_vec()),
                }
                self.values.insert(i, value);
                None
            }
        }
    }

    /// Moves the map to the `Vec` fallback.
    fn widen(&mut self) {
        let keys = std::mem::replace(&mut self.keys, Keys::Wide(Vec::new()));
        self.keys = Keys::Wide(keys.into_cells(&self.codec));
        self.codec = CellCodec::wide(self.codec.arity());
    }

    fn cell(&self, i: usize) -> Cell<'_> {
        let key = match &self.keys {
            Keys::Packed(codes) => Key::Code(codes[i]),
            Keys::Wide(cells) => Key::Wide(&cells[i]),
        };
        Cell {
            codec: &self.codec,
            key,
        }
    }

    /// The `i`-th cell in cell order, with its value.
    pub fn entry_at(&self, i: usize) -> Option<(Cell<'_>, &V)> {
        let v = self.values.get(i)?;
        Some((self.cell(i), v))
    }

    /// The cells with their values, in cell order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Cell<'_>, &V)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (self.cell(i), v))
    }

    /// The values, in cell order.
    pub fn values(&self) -> std::slice::Iter<'_, V> {
        self.values.iter()
    }

    /// Keeps the cells for which `keep` holds, and gives back the room of
    /// the rest.
    pub fn retain(&mut self, mut keep: impl FnMut(Cell<'_>, &V) -> bool) {
        let kept: Vec<bool> = self.iter().map(|(cell, v)| keep(cell, v)).collect();
        let mut flags = kept.iter();
        self.values.retain(|_| *flags.next().unwrap_or(&true));
        self.values.shrink_to_fit();
        let mut flags = kept.iter();
        match &mut self.keys {
            Keys::Packed(codes) => {
                codes.retain(|_| *flags.next().unwrap_or(&true));
                codes.shrink_to_fit();
            }
            Keys::Wide(cells) => {
                cells.retain(|_| *flags.next().unwrap_or(&true));
                cells.shrink_to_fit();
            }
        }
    }

    /// The same cells with each value mapped from a borrow by `f`.
    pub fn map_ref<W>(&self, f: impl FnMut(&V) -> W) -> CellMap<W> {
        CellMap {
            codec: self.codec.clone(),
            keys: self.keys.clone(),
            values: self.values.iter().map(f).collect(),
        }
    }

    /// A copy of the cells for which `keep` holds.
    pub fn filtered(&self, mut keep: impl FnMut(Cell<'_>, &V) -> bool) -> CellMap<V>
    where
        V: Clone,
    {
        let kept: Vec<usize> = self
            .iter()
            .enumerate()
            .filter(|(_, (cell, v))| keep(*cell, v))
            .map(|(i, _)| i)
            .collect();
        let keys = match &self.keys {
            Keys::Packed(codes) => Keys::Packed(kept.iter().map(|&i| codes[i]).collect()),
            Keys::Wide(cells) => Keys::Wide(kept.iter().map(|&i| cells[i].clone()).collect()),
        };
        CellMap {
            codec: self.codec.clone(),
            keys,
            values: kept.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// The same cells with each value mapped by `f`.
    pub fn map_values<W>(self, f: impl FnMut(V) -> W) -> CellMap<W> {
        let mut values: Vec<W> = self.values.into_iter().map(f).collect();
        // A collect in place keeps the old capacity.
        values.shrink_to_fit();
        CellMap {
            codec: self.codec,
            keys: self.keys,
            values,
        }
    }

    /// Re-keys every cell: `f` writes the new cell of each old one into its
    /// buffer, keyed under `codec`; cells that land together are combined
    /// by `merge`, in the old cell order.
    pub fn map_cells(
        self,
        codec: CellCodec,
        mut f: impl FnMut(Cell<'_>, &mut Vec<LevelValue>),
        merge: impl FnMut(&mut V, V),
    ) -> CellMap<V> {
        let CellMap {
            codec: old,
            keys,
            values,
        } = self;
        let mut out = CellMapBuilder::new(codec);
        out.reserve(values.len());
        let mut buf = Vec::with_capacity(out.codec.arity());
        for (i, v) in values.into_iter().enumerate() {
            let key = match &keys {
                Keys::Packed(codes) => Key::Code(codes[i]),
                Keys::Wide(cells) => Key::Wide(&cells[i]),
            };
            f(Cell { codec: &old, key }, &mut buf);
            out.push(&buf, v);
        }
        out.build(merge)
    }

    /// The same cells keyed under `codec` — the newer layout after a
    /// dictionary grew. Cell order does not change, so nothing is sorted.
    fn rekey(self, codec: &CellCodec) -> CellMap<V> {
        if self.codec == *codec {
            return self;
        }
        self.map_cells(
            codec.clone(),
            |cell, buf| cell.write_into(buf),
            // Re-keying is injective: no two cells land together.
            |_, _| {},
        )
    }

    /// The union of two maps; a cell in both is combined by `merge(mine,
    /// theirs)`. Maps keyed under different codecs are first re-keyed
    /// under the codec covering both.
    pub fn merge(self, other: CellMap<V>, merge: impl FnMut(&mut V, V)) -> CellMap<V> {
        let (a, b) = if self.codec == other.codec {
            (self, other)
        } else {
            let codec = self.codec.covering(&other.codec);
            (self.rekey(&codec), other.rekey(&codec))
        };
        if b.is_empty() {
            return a;
        }
        let (codec, keys, values) = match (a.keys, b.keys) {
            (Keys::Packed(x), Keys::Packed(y)) => {
                let (keys, values) = merge_sorted(x, a.values, y, b.values, merge);
                (a.codec, Keys::Packed(keys), values)
            }
            // `Vec` keys on either side — the codec has no finite space, or
            // a side could not be keyed under it — make `Vec` keys for both.
            (x, y) => {
                let codec = match a.codec.space() {
                    None => a.codec.clone(),
                    Some(_) => CellCodec::wide(a.codec.arity()),
                };
                let (x, y) = (x.into_cells(&a.codec), y.into_cells(&b.codec));
                let (keys, values) = merge_sorted(x, a.values, y, b.values, merge);
                (codec, Keys::Wide(keys), values)
            }
        };
        CellMap {
            codec,
            keys,
            values,
        }
    }

    /// Exact heap bytes: the key array, the value array and, per value,
    /// `value_bytes` (what the value owns on the heap), plus the codec.
    pub fn heap_bytes(&self, value_bytes: impl Fn(&V) -> usize) -> usize {
        let keys = match &self.keys {
            Keys::Packed(codes) => codes.capacity() * 8,
            Keys::Wide(cells) => {
                cells.capacity() * std::mem::size_of::<Vec<LevelValue>>()
                    + cells.iter().map(|c| c.capacity() * 8).sum::<usize>()
            }
        };
        keys + self.values.capacity() * std::mem::size_of::<V>()
            + self.values.iter().map(value_bytes).sum::<usize>()
            + self.codec.heap_bytes()
    }
}

/// Merges two strictly increasing key runs with their values; a key in
/// both keeps `x`'s value combined with `y`'s by `merge`.
fn merge_sorted<K: Ord, V>(
    x: Vec<K>,
    xv: Vec<V>,
    y: Vec<K>,
    yv: Vec<V>,
    mut merge: impl FnMut(&mut V, V),
) -> (Vec<K>, Vec<V>) {
    let mut keys = Vec::with_capacity(x.len() + y.len());
    let mut values = Vec::with_capacity(x.len() + y.len());
    let mut xs = x.into_iter().zip(xv).peekable();
    let mut ys = y.into_iter().zip(yv).peekable();
    loop {
        let order = match (xs.peek(), ys.peek()) {
            (Some(a), Some(b)) => a.0.cmp(&b.0),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        let next = match order {
            Ordering::Less => xs.next(),
            Ordering::Greater => ys.next(),
            Ordering::Equal => xs.next().zip(ys.next()).map(|((k, mut v), (_, w))| {
                merge(&mut v, w);
                (k, v)
            }),
        };
        if let Some((k, v)) = next {
            keys.push(k);
            values.push(v);
        }
    }
    keys.shrink_to_fit();
    values.shrink_to_fit();
    (keys, values)
}

impl<V: PartialEq> PartialEq for CellMap<V> {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() || self.values != other.values {
            return false;
        }
        match (&self.keys, &other.keys) {
            (Keys::Packed(a), Keys::Packed(b)) if self.codec == other.codec => a == b,
            _ => self
                .iter()
                .zip(other.iter())
                .all(|((a, _), (b, _))| a.values().eq(b.values())),
        }
    }
}

impl<V: Eq> Eq for CellMap<V> {}

/// Collects cells in any order, with repeats, into a [`CellMap`].
pub struct CellMapBuilder<V> {
    codec: CellCodec,
    keys: Keys,
    values: Vec<V>,
    sorted: bool,
}

impl<V> CellMapBuilder<V> {
    /// An empty builder keyed under `codec`.
    pub fn new(codec: CellCodec) -> Self {
        CellMapBuilder {
            keys: Keys::for_codec(&codec),
            codec,
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Reserves room for `n` more cells.
    pub fn reserve(&mut self, n: usize) {
        match &mut self.keys {
            Keys::Packed(codes) => codes.reserve(n),
            Keys::Wide(cells) => cells.reserve(n),
        }
        self.values.reserve(n);
    }

    /// Adds a cell. One the codec cannot key moves the builder to the
    /// `Vec` fallback.
    pub fn push(&mut self, cell: &[LevelValue], value: V) {
        if let Keys::Packed(codes) = &mut self.keys {
            if let Some(code) = self.codec.try_pack(cell) {
                self.sorted &= codes.last().is_none_or(|&last| last < code);
                codes.push(code);
                self.values.push(value);
                return;
            }
            let keys = std::mem::replace(&mut self.keys, Keys::Wide(Vec::new()));
            self.keys = Keys::Wide(keys.into_cells(&self.codec));
            self.codec = CellCodec::wide(self.codec.arity());
        }
        if let Keys::Wide(cells) = &mut self.keys {
            self.sorted &= cells.last().is_none_or(|last| last.as_slice() < cell);
            cells.push(cell.to_vec());
            self.values.push(value);
        }
    }

    /// The map; repeated cells are combined by `merge` in push order.
    pub fn build(self, mut merge: impl FnMut(&mut V, V)) -> CellMap<V> {
        let merged: Result<_, Infallible> = self.try_build(|a, b| {
            merge(a, b);
            Ok(())
        });
        merged.unwrap_or_else(|never| match never {})
    }

    /// [`CellMapBuilder::build`] with a fallible `merge`.
    pub fn try_build<E>(
        self,
        mut merge: impl FnMut(&mut V, V) -> Result<(), E>,
    ) -> Result<CellMap<V>, E> {
        let CellMapBuilder {
            codec,
            keys,
            values,
            sorted,
        } = self;
        let (keys, values) = match keys {
            Keys::Packed(codes) => {
                let (codes, values) = sort_and_merge(codes, values, sorted, &mut merge)?;
                (Keys::Packed(codes), values)
            }
            Keys::Wide(cells) => {
                let (cells, values) = sort_and_merge(cells, values, sorted, &mut merge)?;
                (Keys::Wide(cells), values)
            }
        };
        Ok(CellMap {
            codec,
            keys,
            values,
        })
    }
}

/// Sorts `(key, value)` pairs by key, stably, and combines equal keys.
fn sort_and_merge<K: Ord, V, E>(
    keys: Vec<K>,
    values: Vec<V>,
    sorted: bool,
    merge: &mut impl FnMut(&mut V, V) -> Result<(), E>,
) -> Result<(Vec<K>, Vec<V>), E> {
    if sorted {
        let (mut keys, mut values) = (keys, values);
        keys.shrink_to_fit();
        values.shrink_to_fit();
        return Ok((keys, values));
    }
    let mut pairs: Vec<(K, V)> = keys.into_iter().zip(values).collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut keys: Vec<K> = Vec::with_capacity(pairs.len());
    let mut values: Vec<V> = Vec::with_capacity(pairs.len());
    for (k, v) in pairs {
        match (keys.last(), values.last_mut()) {
            (Some(last), Some(acc)) if *last == k => merge(acc, v)?,
            _ => {
                keys.push(k);
                values.push(v);
            }
        }
    }
    keys.shrink_to_fit();
    values.shrink_to_fit();
    Ok((keys, values))
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
            let out: Vec<_> = t.into_map().iter().map(|(c, v)| (c.to_vec(), *v)).collect();
            assert_eq!(
                out,
                vec![(vec![0, 0], 1), (vec![1, 2], 2), (vec![4, 4], 1)],
                "{attrs:?} dense_slots={dense_slots}"
            );
        }
    }

    fn entries<V: Copy>(map: &CellMap<V>) -> Vec<(Vec<u64>, V)> {
        map.iter().map(|(c, v)| (c.to_vec(), *v)).collect()
    }

    #[test]
    fn a_cell_map_is_sorted_and_searchable_in_both_forms() {
        let db = db();
        for attrs in [[0, 0], [1, 1]] {
            let codec = CellCodec::new(&db, &dims(&attrs));
            let mut b = CellMapBuilder::new(codec.clone());
            for (cell, v) in [([4, 0], 1u32), ([0, 3], 2), ([4, 0], 3), ([1, 1], 4)] {
                b.push(&cell, v);
            }
            let map = b.build(|acc, v| *acc += v);
            assert_eq!(
                entries(&map),
                vec![(vec![0, 3], 2), (vec![1, 1], 4), (vec![4, 0], 4)],
                "{attrs:?}"
            );
            assert_eq!(map.get(&[1, 1]), Some(&4));
            assert_eq!(map.get(&[1, 2]), None);
            // A value outside the dictionary is simply absent.
            assert_eq!(map.get(&[9, 0]), None);
            let packed = codec.space().is_some();
            assert_eq!(map.iter().all(|(c, _)| c.code().is_some()), packed);
        }
    }

    #[test]
    fn a_cell_outside_the_codec_moves_the_map_to_vec_keys() {
        let codec = CellCodec::from_sizes([Some(3), Some(3)]);
        let mut map = CellMap::new(codec);
        assert_eq!(map.insert(&[2, 1], 'a'), None);
        assert_eq!(map.insert(&[0, 0], 'b'), None);
        assert_eq!(map.insert(&[2, 1], 'c'), Some('a'));
        assert!(map.codec().space().is_some());
        map.insert(&[7, 0], 'd');
        assert_eq!(map.codec().space(), None);
        assert_eq!(
            entries(&map),
            vec![(vec![0, 0], 'b'), (vec![2, 1], 'c'), (vec![7, 0], 'd')]
        );
    }

    /// A dictionary grew between two builds: merging re-keys the older
    /// map under the covering codec, keeps cell order, and equals a map
    /// built under the new codec outright.
    #[test]
    fn merging_across_codecs_re_keys_the_older_side() {
        let old = CellCodec::from_sizes([Some(2), Some(3)]);
        let new = CellCodec::from_sizes([Some(4), Some(3)]);
        let build = |codec: &CellCodec, cells: &[([u64; 2], u32)]| {
            let mut b = CellMapBuilder::new(codec.clone());
            for (c, v) in cells {
                b.push(c, *v);
            }
            b.build(|a, v| *a += v)
        };
        let a = build(&old, &[([0, 2], 1), ([1, 0], 1)]);
        let b = build(&new, &[([1, 0], 5), ([3, 1], 1)]);
        let merged = a.clone().merge(b, |x, y| *x += y);
        assert_eq!(merged.codec(), &new);
        let fresh = build(&new, &[([0, 2], 1), ([1, 0], 6), ([3, 1], 1)]);
        assert_eq!(merged, fresh);
        assert_eq!(entries(&merged), entries(&fresh));
        let rekeyed = a.clone().rekey(&new);
        assert_eq!(rekeyed, a, "equality is by cells, not by layout");
        assert_eq!(rekeyed.codec(), &new);
        assert_eq!(rekeyed.get(&[1, 0]), Some(&1));
    }

    #[test]
    fn heap_bytes_count_codes_values_and_the_codec() {
        let codec = CellCodec::from_sizes([Some(5), Some(5)]);
        let mut b = CellMapBuilder::new(codec.clone());
        for c in [[0, 1], [3, 3], [4, 0]] {
            b.push(&c, 7u64);
        }
        let map = b.build(|_, _| {});
        assert_eq!(
            map.heap_bytes(|_| 2),
            3 * 8 + 3 * 8 + 3 * 2 + codec.heap_bytes()
        );
    }
}
