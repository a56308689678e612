//! The sequence cuboid: the tabulated result of an S-OLAP query.

use std::collections::HashMap;

use solap_eventdb::{AttrLevel, EventDb, LevelValue};
use solap_pattern::{AggFunc, AggValue, PatternDim};

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
    /// The non-empty cells.
    pub cells: HashMap<CellKey, AggValue>,
}

impl SCuboid {
    /// An empty cuboid shell.
    pub fn new(global_dims: Vec<AttrLevel>, pattern_dims: Vec<PatternDim>, agg: AggFunc) -> Self {
        SCuboid {
            global_dims,
            pattern_dims,
            agg,
            cells: HashMap::new(),
        }
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
        let mut v: Vec<_> = self.cells.iter().collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// The `k` largest cells by aggregate value, ties broken by key. Values
    /// are ranked by `f64::total_cmp` — a total order even when an AVG or
    /// SUM over float measures is NaN, which then ranks above +∞.
    pub fn top_k(&self, k: usize) -> Vec<(&CellKey, &AggValue)> {
        let mut v: Vec<_> = self.cells.iter().collect();
        v.sort_by(|a, b| {
            b.1.as_f64()
                .total_cmp(&a.1.as_f64())
                .then_with(|| a.0.cmp(b.0))
        });
        v.truncate(k);
        v
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
            let mut v = self.iter_sorted();
            v.truncate(limit);
            v
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

    /// Approximate heap bytes (cuboid-repository weight).
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
        c.cells.insert(key(&[0, 1]), AggValue::Count(7));
        c.cells.insert(key(&[1, 0]), AggValue::Count(3));
        c.cells.insert(key(&[2, 0]), AggValue::Count(9));
        (db, c)
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
        c.cells.insert(key(&[0, 0]), AggValue::Float(f64::NAN));
        c.cells.insert(key(&[1, 1]), AggValue::Float(f64::NAN));
        c.cells.insert(key(&[2, 2]), AggValue::Float(8.0));
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
