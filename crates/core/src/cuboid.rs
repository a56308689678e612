//! The sequence cuboid: the tabulated result of an S-OLAP query.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::OnceLock;

use solap_eventdb::{AttrLevel, EventDb, LevelValue};
use solap_pattern::{AggFunc, AggValue, PatternDim};

/// How many ranked cells a cuboid keeps once it has been ranked: every row
/// count a serving surface asks for (`.op` 10, `SELECT` 15, `.show` 20).
/// A larger [`SCuboid::top_k`] selects from the cells afresh.
pub const HEAD_ROWS: usize = 20;

/// A borrowed cell.
type CellRef<'a> = (&'a CellKey, &'a AggValue);

/// The ranking order: value descending by `f64::total_cmp`, then key
/// ascending. Keys are unique, so no two cells compare equal.
fn rank(a: &CellRef, b: &CellRef) -> Ordering {
    b.1.as_f64()
        .total_cmp(&a.1.as_f64())
        .then_with(|| a.0.cmp(b.0))
}

/// Key order.
fn by_key(a: &CellRef, b: &CellRef) -> Ordering {
    a.0.cmp(b.0)
}

/// A cell key: global-dimension values followed by pattern-dimension values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    /// Values of the global dimensions.
    pub global: Vec<LevelValue>,
    /// Values of the pattern dimensions.
    pub pattern: Vec<LevelValue>,
}

/// A computed S-cuboid: a `(q + n)`-dimensional view with `q` global
/// dimensions and `n` pattern dimensions (Figure 4's shaded result).
///
/// Cells with no assigned sequences are omitted (S-cuboid spaces are sparse
/// — §6 notes "many S-cuboid cells are often sparsely distributed").
#[derive(Debug, Clone)]
pub struct SCuboid {
    /// The global dimensions.
    pub global_dims: Vec<AttrLevel>,
    /// The pattern dimensions.
    pub pattern_dims: Vec<PatternDim>,
    /// The aggregate function computed.
    pub agg: AggFunc,
    /// The non-empty cells. Private so that every mutation passes through
    /// [`SCuboid::cells_mut`], which drops `head`.
    cells: HashMap<CellKey, AggValue>,
    /// The first [`HEAD_ROWS`] cells in rank order, filled by the first
    /// [`SCuboid::top_k`]; a repository hit tabulates by copying from it.
    head: OnceLock<Vec<(CellKey, AggValue)>>,
}

impl SCuboid {
    /// An empty cuboid shell.
    pub fn new(global_dims: Vec<AttrLevel>, pattern_dims: Vec<PatternDim>, agg: AggFunc) -> Self {
        SCuboid {
            global_dims,
            pattern_dims,
            agg,
            cells: HashMap::new(),
            head: OnceLock::new(),
        }
    }

    /// The non-empty cells.
    pub fn cells(&self) -> &HashMap<CellKey, AggValue> {
        &self.cells
    }

    /// Mutable access to the cells. Drops the ranked head, so it is rebuilt
    /// from the mutated cells on the next [`SCuboid::top_k`].
    pub fn cells_mut(&mut self) -> &mut HashMap<CellKey, AggValue> {
        self.head.take();
        &mut self.cells
    }

    /// Number of non-empty cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the cuboid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The value of a cell, if non-empty.
    pub fn get(&self, global: &[LevelValue], pattern: &[LevelValue]) -> Option<&AggValue> {
        self.cells.get(&CellKey {
            global: global.to_vec(),
            pattern: pattern.to_vec(),
        })
    }

    /// Cells in deterministic (key-sorted) order.
    pub fn iter_sorted(&self) -> Vec<(&CellKey, &AggValue)> {
        self.first_k(self.cells.len(), by_key)
    }

    /// The first `k` cells in `order`: a partial selection, then a sort of
    /// the selected `k` only.
    fn first_k(&self, k: usize, order: fn(&CellRef, &CellRef) -> Ordering) -> Vec<CellRef<'_>> {
        if k == 0 {
            return Vec::new();
        }
        let mut v: Vec<_> = self.cells.iter().collect();
        if k < v.len() {
            v.select_nth_unstable_by(k - 1, order);
            v.truncate(k);
        }
        // `order` never ties two distinct keys, so unstable is exact.
        v.sort_unstable_by(order);
        v
    }

    /// The `k` largest cells by aggregate value, ties broken by key. Values
    /// are ranked by `f64::total_cmp` — a total order even when an AVG or
    /// SUM over float measures is NaN, which then ranks above +∞.
    ///
    /// For `k ≤` [`HEAD_ROWS`] the answer is copied from the cuboid's
    /// ranked head, selected once per cuboid; a larger `k` selects afresh.
    pub fn top_k(&self, k: usize) -> Vec<(&CellKey, &AggValue)> {
        if k > HEAD_ROWS {
            return self.first_k(k, rank);
        }
        let head = self.head.get_or_init(|| {
            self.first_k(HEAD_ROWS, rank)
                .into_iter()
                .map(|(key, value)| (key.clone(), *value))
                .collect()
        });
        head.iter()
            .take(k)
            .map(|(key, value)| (key, value))
            .collect()
    }

    /// Sum of cell counts (only meaningful for COUNT cuboids).
    pub fn total_count(&self) -> u64 {
        self.cells.values().filter_map(AggValue::as_count).sum()
    }

    /// Renders a cell key human-readably, e.g.
    /// `[2007-12-25, regular | Pentagon, Wheaton]`.
    pub fn render_key(&self, db: &EventDb, key: &CellKey) -> String {
        let globals: Vec<String> = key
            .global
            .iter()
            .zip(&self.global_dims)
            .map(|(&v, al)| db.render_level(al.attr, al.level, v))
            .collect();
        let patterns: Vec<String> = key
            .pattern
            .iter()
            .zip(&self.pattern_dims)
            .map(|(&v, d)| db.render_level(d.attr, d.level, v))
            .collect();
        if globals.is_empty() {
            format!("({})", patterns.join(", "))
        } else {
            format!("[{} | {}]", globals.join(", "), patterns.join(", "))
        }
    }

    /// Tabulates the cuboid in the style of Figure 2, largest-first when
    /// `by_count`, else key order; at most `limit` rows.
    pub fn tabulate(&self, db: &EventDb, limit: usize, by_count: bool) -> String {
        let header: Vec<String> = self
            .global_dims
            .iter()
            .map(|al| {
                format!(
                    "{}:{}",
                    db.schema().column(al.attr).name,
                    db.level_name(al.attr, al.level)
                )
            })
            .chain(self.pattern_dims.iter().map(|d| {
                format!("{}({}:{})", d.name, db.schema().column(d.attr).name, {
                    db.level_name(d.attr, d.level)
                })
            }))
            .collect();
        let mut out = String::new();
        out.push_str(&header.join(" | "));
        out.push_str(" | value\n");
        let rows = if by_count {
            self.top_k(limit)
        } else {
            self.first_k(limit, by_key)
        };
        for (key, value) in rows {
            let cols: Vec<String> = key
                .global
                .iter()
                .zip(&self.global_dims)
                .map(|(&v, al)| db.render_level(al.attr, al.level, v))
                .chain(
                    key.pattern
                        .iter()
                        .zip(&self.pattern_dims)
                        .map(|(&v, d)| db.render_level(d.attr, d.level, v)),
                )
                .collect();
            out.push_str(&cols.join(" | "));
            out.push_str(&format!(" | {value}\n"));
        }
        if self.len() > limit {
            out.push_str(&format!("… ({} more cells)\n", self.len() - limit));
        }
        out
    }

    /// Approximate heap bytes (cuboid-repository weight) of the cells. The
    /// ranked head (at most [`HEAD_ROWS`] cloned cells) is not charged.
    pub fn heap_bytes(&self) -> usize {
        self.cells
            .keys()
            .map(|k| (k.global.len() + k.pattern.len()) * 8 + 64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use solap_eventdb::{ColumnType, EventDbBuilder, Value};
    use solap_pattern::{PatternKind, PatternTemplate};

    fn fixture() -> (EventDb, SCuboid) {
        let mut db = EventDbBuilder::new()
            .dimension("location", ColumnType::Str)
            .build()
            .unwrap();
        for s in ["Pentagon", "Wheaton", "Glenmont"] {
            db.push_row(&[Value::from(s)]).unwrap();
        }
        let t = PatternTemplate::new(
            PatternKind::Substring,
            &["X", "Y"],
            &[("X", 0, 0), ("Y", 0, 0)],
        )
        .unwrap();
        let mut c = SCuboid::new(vec![], t.dims.clone(), AggFunc::Count);
        let key = |p: &[u64]| CellKey {
            global: vec![],
            pattern: p.to_vec(),
        };
        c.cells_mut().insert(key(&[0, 1]), AggValue::Count(7));
        c.cells_mut().insert(key(&[1, 0]), AggValue::Count(3));
        c.cells_mut().insert(key(&[2, 0]), AggValue::Count(9));
        (db, c)
    }

    /// A cuboid over one `Int` dimension, so every key renders distinctly.
    fn int_cuboid(cells: &[((u64, u64), AggValue)]) -> (EventDb, SCuboid) {
        let db = EventDbBuilder::new()
            .dimension("n", ColumnType::Int)
            .build()
            .unwrap();
        let t = PatternTemplate::new(
            PatternKind::Substring,
            &["X", "Y"],
            &[("X", 0, 0), ("Y", 0, 0)],
        )
        .unwrap();
        let mut c = SCuboid::new(vec![], t.dims.clone(), AggFunc::Count);
        for ((x, y), v) in cells {
            let key = CellKey {
                global: vec![],
                pattern: vec![*x, *y],
            };
            c.cells_mut().insert(key, *v);
        }
        (db, c)
    }

    /// The first `k` cells by sorting every cell, as `top_k` and
    /// `tabulate` did before partial selection.
    fn reference(c: &SCuboid, k: usize, by_count: bool) -> Vec<(&CellKey, &AggValue)> {
        let mut v: Vec<_> = c.cells().iter().collect();
        if by_count {
            v.sort_by(|a, b| {
                b.1.as_f64()
                    .total_cmp(&a.1.as_f64())
                    .then_with(|| a.0.cmp(b.0))
            });
        } else {
            v.sort_by(|a, b| a.0.cmp(b.0));
        }
        v.truncate(k);
        v
    }

    /// `tabulate`'s output for an `int_cuboid`, rows from `reference`.
    fn reference_table(db: &EventDb, c: &SCuboid, limit: usize, by_count: bool) -> String {
        let header = c.tabulate(db, 0, by_count);
        let mut out = format!("{}\n", header.lines().next().unwrap());
        for (key, value) in reference(c, limit, by_count) {
            out.push_str(&format!(
                "{} | {} | {value}\n",
                key.pattern[0], key.pattern[1]
            ));
        }
        if c.len() > limit {
            out.push_str(&format!("… ({} more cells)\n", c.len() - limit));
        }
        out
    }

    /// Bit-exact view of ranked cells (NaN ≠ NaN under `PartialEq`).
    fn bits(cells: Vec<(&CellKey, &AggValue)>) -> Vec<(CellKey, u64)> {
        cells
            .into_iter()
            .map(|(k, v)| (k.clone(), v.as_f64().to_bits()))
            .collect()
    }

    /// A tie-heavy value: small counts, equal floats, NaN and ±∞.
    fn value((kind, n): (u8, u64)) -> AggValue {
        match kind {
            0..=3 => AggValue::Count(n),
            4 => AggValue::Float(f64::NAN),
            5 => AggValue::Float(f64::INFINITY),
            6 => AggValue::Float(f64::NEG_INFINITY),
            _ => AggValue::Float(n as f64),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Partial selection and the ranked head agree with sorting every
        /// cell, for every `k` around `HEAD_ROWS` and in either call order
        /// (so the head is filled both by a small and by a large `k`);
        /// `tabulate` is byte-identical to the full-sort table both ways.
        #[test]
        fn top_k_matches_a_full_sort(
            raw in prop::collection::vec(((0u64..8, 0u64..8), (0u8..8, 0u64..4)), 0..80),
        ) {
            let cells: Vec<_> = raw.into_iter().map(|(key, v)| (key, value(v))).collect();
            let (db, c) = int_cuboid(&cells);
            let n = c.len();
            let ks = [0, 1, HEAD_ROWS - 1, HEAD_ROWS, HEAD_ROWS + 1, n, n + 1];
            for k in ks {
                prop_assert_eq!(bits(c.top_k(k)), bits(reference(&c, k, true)), "k = {}", k);
            }
            let (_, c) = int_cuboid(&cells);
            for k in ks.into_iter().rev() {
                prop_assert_eq!(bits(c.top_k(k)), bits(reference(&c, k, true)), "k = {}", k);
                for by_count in [true, false] {
                    prop_assert_eq!(
                        c.tabulate(&db, k, by_count),
                        reference_table(&db, &c, k, by_count)
                    );
                }
            }
        }
    }

    #[test]
    fn cells_mut_drops_the_ranked_head() {
        let (db, mut c) = fixture();
        let before = c.tabulate(&db, 2, true);
        assert_eq!(before.lines().nth(1), Some("Glenmont | Pentagon | 9"));
        c.cells_mut().insert(
            CellKey {
                global: vec![],
                pattern: vec![1, 1],
            },
            AggValue::Count(10),
        );
        let after = c.tabulate(&db, 2, true);
        assert_eq!(
            after.lines().nth(1),
            Some("Wheaton | Wheaton | 10"),
            "{after}"
        );
        assert_eq!(after.lines().nth(2), Some("Glenmont | Pentagon | 9"));
    }

    #[test]
    fn concurrent_tabulates_of_one_cuboid_agree() {
        let cells: Vec<_> = (0..400u64)
            .map(|i| ((i % 20, i / 20), AggValue::Count(i % 7)))
            .collect();
        let (db, c) = int_cuboid(&cells);
        // All eight race to fill the head of one never-ranked cuboid.
        let start = std::sync::Barrier::new(8);
        let tables: Vec<String> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        c.tabulate(&db, 15, true)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let expect = reference_table(&db, &c, 15, true);
        assert!(tables.iter().all(|t| *t == expect), "{tables:?}");
    }

    #[test]
    fn get_and_len() {
        let (_, c) = fixture();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.get(&[], &[0, 1]), Some(&AggValue::Count(7)));
        assert_eq!(c.get(&[], &[0, 2]), None);
        assert_eq!(c.total_count(), 19);
    }

    #[test]
    fn top_k_orders_by_value() {
        let (_, c) = fixture();
        let top = c.top_k(2);
        assert_eq!(top[0].1.as_f64(), 9.0);
        assert_eq!(top[1].1.as_f64(), 7.0);
        assert_eq!(c.top_k(100).len(), 3);
    }

    /// With `partial_cmp(..).unwrap_or(Equal)` a NaN compared equal to
    /// everything, which is not transitive; `sort_by` may then panic or
    /// order by luck.
    #[test]
    fn top_k_is_a_total_order_with_nan() {
        let (_, mut c) = fixture();
        let key = |p: &[u64]| CellKey {
            global: vec![],
            pattern: p.to_vec(),
        };
        c.cells_mut()
            .insert(key(&[0, 0]), AggValue::Float(f64::NAN));
        c.cells_mut()
            .insert(key(&[1, 1]), AggValue::Float(f64::NAN));
        c.cells_mut().insert(key(&[2, 2]), AggValue::Float(8.0));
        let top: Vec<_> = c.top_k(6).into_iter().map(|(k, _)| k.pattern[0]).collect();
        // NaNs first (key order between them), then 9, 8, 7, 3.
        assert_eq!(top, vec![0, 1, 2, 2, 0, 1]);
        assert_eq!(c.top_k(6)[2].1.as_f64(), 9.0);
    }

    #[test]
    fn iter_sorted_is_key_ordered() {
        let (_, c) = fixture();
        let keys: Vec<_> = c.iter_sorted().iter().map(|(k, _)| (*k).clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn render_and_tabulate() {
        let (db, c) = fixture();
        let (key, _) = c.top_k(1)[0];
        assert_eq!(c.render_key(&db, key), "(Glenmont, Pentagon)");
        let table = c.tabulate(&db, 2, true);
        assert!(table.contains("X(location:location)"), "{table}");
        assert!(table.contains("Glenmont | Pentagon | 9"), "{table}");
        assert!(table.contains("1 more cells"), "{table}");
        assert!(c.heap_bytes() > 0);
    }
}
