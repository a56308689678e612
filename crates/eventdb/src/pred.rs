//! Event-selection predicates: the `WHERE` clause of an S-cuboid
//! specification (step 1 of Figure 4).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::dict::Dictionary;
use crate::error::{Error, Result};
use crate::schema::{AttrId, ColumnType};
use crate::store::EventDb;
use crate::value::{RowId, Value};

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the operator against an [`Ordering`].
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// An event predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Always true (an omitted `WHERE` clause).
    True,
    /// `attr <op> literal`.
    Cmp {
        /// The attribute compared.
        attr: AttrId,
        /// The comparison operator.
        op: CmpOp,
        /// The literal to compare with.
        value: Value,
    },
    /// `attr IN (v1, v2, …)`.
    In {
        /// The attribute tested.
        attr: AttrId,
        /// The allowed values.
        values: Vec<Value>,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// Builds `attr <op> value`.
    pub fn cmp(attr: AttrId, op: CmpOp, value: impl Into<Value>) -> Pred {
        Pred::Cmp {
            attr,
            op,
            value: value.into(),
        }
    }

    /// Builds `self AND other`.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// Builds `self OR other`.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }

    /// Builds `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }

    /// Compiles the predicate against `db` for block-at-a-time selection
    /// ([`CompiledPred::select`]), once per statement.
    pub fn compile<'a>(&self, db: &'a EventDb) -> CompiledPred<'a> {
        CompiledPred {
            root: Node::compile(self, db),
        }
    }

    /// Renders the predicate in the query language, resolving attribute
    /// names through `db`.
    pub fn render(&self, db: &EventDb) -> String {
        match self {
            Pred::True => "TRUE".into(),
            Pred::Cmp { attr, op, value } => format!(
                "{} {} {}",
                db.schema().column(*attr).name,
                op.symbol(),
                render_literal(value)
            ),
            Pred::In { attr, values } => format!(
                "{} IN ({})",
                db.schema().column(*attr).name,
                values
                    .iter()
                    .map(render_literal)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Pred::And(a, b) => format!("({} AND {})", a.render(db), b.render(db)),
            Pred::Or(a, b) => format!("({} OR {})", a.render(db), b.render(db)),
            Pred::Not(p) => format!("(NOT {})", p.render(db)),
        }
    }
}

/// Evaluates `attr <op> value` against event `row` — the leaf matching
/// predicates evaluate per placeholder.
pub fn eval_cmp(db: &EventDb, row: RowId, attr: AttrId, op: CmpOp, value: &Value) -> Result<bool> {
    Ok(op.test(compare(db, row, attr, value)?))
}

/// Renders a literal value as it appears in query text.
pub fn render_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("\"{s}\""),
        Value::Time(t) => format!("\"{}\"", crate::time::format_timestamp(*t)),
        other => other.to_string(),
    }
}

/// A literal coerced to its column's type, beside the column's storage:
/// what [`compare`] tests one row against, and what [`Pred::compile`]
/// turns into a typed leaf.
enum Typed<'a, 'l> {
    /// An `Int` or `Time` column and an integer (or timestamp) literal.
    Int(&'a [i64], i64),
    /// A `Float` column and a float (or widened integer) literal.
    Float(&'a [f64], f64),
    /// A `Str` column's ids, its dictionary and a string literal.
    Str(&'a [u32], &'a Dictionary, &'l str),
}

/// Coerces `lit` to the type of `attr` — string timestamps against time
/// columns, integers against float columns — erring with
/// [`Error::TypeMismatch`] when it does not coerce, and with
/// [`Error::Internal`] when the column is not stored as its schema type.
fn typed<'a, 'l>(db: &'a EventDb, attr: AttrId, lit: &'l Value) -> Result<Typed<'a, 'l>> {
    let def = db.schema().column(attr);
    let mismatch = || Error::TypeMismatch {
        attribute: def.name.clone(),
        expected: def.ctype.name(),
        actual: lit.type_name(),
    };
    let storage = || {
        Error::Internal(format!(
            "column `{}` is not stored as {}",
            def.name,
            def.ctype.name()
        ))
    };
    Ok(match def.ctype {
        ColumnType::Int => {
            let l = lit.as_int().ok_or_else(mismatch)?;
            Typed::Int(db.int_column(attr).ok_or_else(storage)?, l)
        }
        ColumnType::Time => {
            let l = lit.as_time().ok_or_else(mismatch)?;
            Typed::Int(db.int_column(attr).ok_or_else(storage)?, l)
        }
        ColumnType::Float => {
            let l = lit.as_float().ok_or_else(mismatch)?;
            Typed::Float(db.float_column(attr).ok_or_else(storage)?, l)
        }
        ColumnType::Str => {
            let l = lit.as_str().ok_or_else(mismatch)?;
            let (ids, dict) = db.str_column(attr).ok_or_else(storage)?;
            Typed::Str(ids, dict, l)
        }
    })
}

/// Compares the stored value of `(row, attr)` with a literal, coerced as
/// [`typed`] does.
fn compare(db: &EventDb, row: RowId, attr: AttrId, lit: &Value) -> Result<Ordering> {
    let past_end = || Error::Internal(format!("row {row} is past the end of attribute #{attr}"));
    match typed(db, attr, lit)? {
        Typed::Int(col, l) => Ok(col.get(row as usize).ok_or_else(past_end)?.cmp(&l)),
        // IEEE 754 totalOrder (DESIGN §4): a stored NaN equals no number
        // and sorts after +∞.
        Typed::Float(col, l) => Ok(col.get(row as usize).ok_or_else(past_end)?.total_cmp(&l)),
        Typed::Str(ids, dict, l) => {
            let id = *ids.get(row as usize).ok_or_else(past_end)?;
            let s = dict
                .resolve(id)
                .ok_or_else(|| Error::Internal(format!("dictionary id {id} does not resolve")))?;
            Ok(s.cmp(l))
        }
    }
}

/// A [`Pred`] compiled against one database ([`Pred::compile`]): each leaf
/// holds its column's typed slice and a literal coerced once, so
/// [`CompiledPred::select`] filters a block of rows with no per-row schema
/// lookup, type dispatch or literal coercion.
#[derive(Debug)]
pub struct CompiledPred<'a> {
    root: Node<'a>,
}

impl CompiledPred<'_> {
    /// Appends to `out`, ascending, the rows of the block `rows` the
    /// predicate holds on.
    ///
    /// Each node sees exactly the rows that row-at-a-time evaluation with
    /// short-circuiting would evaluate it on: `AND` tests its right side on
    /// the rows its left side kept, `OR` on the rows its left side
    /// rejected, and `IN` tests its values left to right the same way. A
    /// leaf whose literal does not coerce to its column's type raises its
    /// [`Error::TypeMismatch`] when it sees at least one row, so a scan
    /// errs if and only if evaluating its rows one at a time would.
    pub fn select(&self, rows: Range<RowId>, out: &mut Vec<RowId>) -> Result<()> {
        self.root.select(Sel::Block(rows.start, rows.end), out)
    }
}

/// The rows a node is asked about: a whole block (read as contiguous
/// slices), or the ascending rows an enclosing node left it.
#[derive(Clone, Copy)]
enum Sel<'s> {
    Block(RowId, RowId),
    Rows(&'s [RowId]),
}

impl Sel<'_> {
    fn len(self) -> usize {
        match self {
            Sel::Block(lo, hi) => hi.saturating_sub(lo) as usize,
            Sel::Rows(rows) => rows.len(),
        }
    }

    /// The rows not in `hit`, which is an ascending subsequence of them.
    fn except(self, hit: &[RowId], out: &mut Vec<RowId>) {
        let mut hit = hit.iter().copied().peekable();
        let mut miss = |r: &RowId| hit.next_if_eq(r).is_none();
        match self {
            Sel::Block(lo, hi) => out.extend((lo..hi).filter(miss)),
            Sel::Rows(rows) => out.extend(rows.iter().copied().filter(|r| miss(r))),
        }
    }
}

#[derive(Debug)]
enum Node<'a> {
    Const(bool),
    /// An `Int` or `Time` comparison as an interval test: the rows whose
    /// value lies in `lo..=hi` (`inside`), or outside it (`<>`).
    Int {
        attr: AttrId,
        col: &'a [i64],
        lo: i64,
        hi: i64,
        inside: bool,
    },
    Float(&'a [f64], CmpOp, f64),
    /// `=` (`eq`) or `<>` against one dictionary id: `None` when the
    /// literal was never interned, so no row equals it.
    StrId {
        ids: &'a [u32],
        id: Option<u32>,
        eq: bool,
    },
    /// Any other string comparison: its verdict per dictionary id, decided
    /// once per statement. Stored ids index their own dictionary, so the
    /// table covers every one.
    StrTable(&'a [u32], Vec<bool>),
    /// A leaf that cannot be evaluated: raises its error on the first row
    /// that reaches it.
    Raise(Error),
    And(Box<Node<'a>>, Box<Node<'a>>),
    Or(Box<Node<'a>>, Box<Node<'a>>),
    Not(Box<Node<'a>>),
}

impl<'a> Node<'a> {
    fn compile(p: &Pred, db: &'a EventDb) -> Node<'a> {
        let both = |a: &Pred, b: &Pred| {
            (
                Box::new(Node::compile(a, db)),
                Box::new(Node::compile(b, db)),
            )
        };
        match p {
            Pred::True => Node::Const(true),
            Pred::Cmp { attr, op, value } => Node::leaf(db, *attr, *op, value),
            // A left-to-right `OR` of `=` leaves: each value is tested only
            // on the rows the values before it missed.
            Pred::In { attr, values } => {
                let mut leaves = values
                    .iter()
                    .rev()
                    .map(|v| Node::leaf(db, *attr, CmpOp::Eq, v));
                match leaves.next() {
                    Some(last) => {
                        leaves.fold(last, |rest, leaf| Node::Or(Box::new(leaf), Box::new(rest)))
                    }
                    None => Node::Const(false),
                }
            }
            Pred::And(a, b) => match (Node::compile(a, db), Node::compile(b, db)) {
                // `x >= a AND x < b` on one column: one pass, one interval.
                (
                    Node::Int {
                        attr,
                        col,
                        lo,
                        hi,
                        inside: true,
                    },
                    Node::Int {
                        attr: other,
                        lo: lo2,
                        hi: hi2,
                        inside: true,
                        ..
                    },
                ) if attr == other => Node::Int {
                    attr,
                    col,
                    lo: lo.max(lo2),
                    hi: hi.min(hi2),
                    inside: true,
                },
                (a, b) => Node::And(Box::new(a), Box::new(b)),
            },
            Pred::Or(a, b) => {
                let (a, b) = both(a, b);
                Node::Or(a, b)
            }
            Pred::Not(p) => Node::Not(Box::new(Node::compile(p, db))),
        }
    }

    fn leaf(db: &'a EventDb, attr: AttrId, op: CmpOp, lit: &Value) -> Node<'a> {
        match typed(db, attr, lit) {
            Ok(Typed::Int(col, l)) => {
                // An empty interval is any `lo > hi`.
                let (lo, hi, inside) = match op {
                    CmpOp::Eq => (l, l, true),
                    CmpOp::Ne => (l, l, false),
                    CmpOp::Lt => l
                        .checked_sub(1)
                        .map_or((1, 0, true), |h| (i64::MIN, h, true)),
                    CmpOp::Le => (i64::MIN, l, true),
                    CmpOp::Gt => l
                        .checked_add(1)
                        .map_or((1, 0, true), |lo| (lo, i64::MAX, true)),
                    CmpOp::Ge => (l, i64::MAX, true),
                };
                Node::Int {
                    attr,
                    col,
                    lo,
                    hi,
                    inside,
                }
            }
            Ok(Typed::Float(col, l)) => Node::Float(col, op, l),
            Ok(Typed::Str(ids, dict, l)) => match op {
                CmpOp::Eq | CmpOp::Ne => Node::StrId {
                    ids,
                    id: dict.lookup(l),
                    eq: op == CmpOp::Eq,
                },
                _ => Node::StrTable(ids, dict.iter().map(|(_, s)| op.test(s.cmp(l))).collect()),
            },
            Err(e) => Node::Raise(e),
        }
    }

    fn select(&self, sel: Sel<'_>, out: &mut Vec<RowId>) -> Result<()> {
        match self {
            Node::Const(true) => match sel {
                Sel::Block(lo, hi) => out.extend(lo..hi),
                Sel::Rows(rows) => out.extend_from_slice(rows),
            },
            Node::Const(false) => {}
            Node::Int {
                col,
                lo,
                hi,
                inside,
                ..
            } => keep(col, sel, out, |v| (*lo <= v && v <= *hi) == *inside)?,
            Node::Float(col, op, l) => keep_cmp(col, sel, out, *op, |v: f64| v.total_cmp(l))?,
            Node::StrId { ids, id, eq } => keep(ids, sel, out, |v| (Some(v) == *id) == *eq)?,
            Node::StrTable(ids, table) => keep(ids, sel, out, |v| {
                table.get(v as usize).copied().unwrap_or(false)
            })?,
            Node::Raise(e) => {
                if sel.len() > 0 {
                    return Err(e.clone());
                }
            }
            Node::And(a, b) => {
                let mut kept = Vec::with_capacity(sel.len());
                a.select(sel, &mut kept)?;
                b.select(Sel::Rows(&kept), out)?;
            }
            Node::Or(a, b) => {
                let mut early = Vec::with_capacity(sel.len());
                a.select(sel, &mut early)?;
                let mut rest = Vec::with_capacity(sel.len() - early.len());
                sel.except(&early, &mut rest);
                let mut late = Vec::with_capacity(rest.len());
                b.select(Sel::Rows(&rest), &mut late)?;
                merge(&early, &late, out);
            }
            Node::Not(p) => {
                let mut held = Vec::with_capacity(sel.len());
                p.select(sel, &mut held)?;
                sel.except(&held, out);
            }
        }
        Ok(())
    }
}

/// [`keep`] under a comparison: `cmp` orders a stored value against the
/// leaf's literal, and the operator is resolved once, outside the loop.
fn keep_cmp<T: Copy>(
    col: &[T],
    sel: Sel<'_>,
    out: &mut Vec<RowId>,
    op: CmpOp,
    cmp: impl Fn(T) -> Ordering,
) -> Result<()> {
    match op {
        CmpOp::Eq => keep(col, sel, out, |v| cmp(v).is_eq()),
        CmpOp::Ne => keep(col, sel, out, |v| cmp(v).is_ne()),
        CmpOp::Lt => keep(col, sel, out, |v| cmp(v).is_lt()),
        CmpOp::Le => keep(col, sel, out, |v| cmp(v).is_le()),
        CmpOp::Gt => keep(col, sel, out, |v| cmp(v).is_gt()),
        CmpOp::Ge => keep(col, sel, out, |v| cmp(v).is_ge()),
    }
}

/// Appends the rows of `sel` whose value in `col` passes `test`: a block
/// reads one contiguous slice; ascending rows are bounded by their last.
fn keep<T: Copy>(
    col: &[T],
    sel: Sel<'_>,
    out: &mut Vec<RowId>,
    test: impl Fn(T) -> bool,
) -> Result<()> {
    match sel {
        Sel::Block(lo, hi) => {
            let vals = col.get(lo as usize..hi as usize).ok_or_else(|| {
                Error::Internal(format!("rows {lo}..{hi} run past the end of their column"))
            })?;
            compact(out, (lo..hi).zip(vals.iter().map(|&v| test(v))));
        }
        Sel::Rows(rows) => {
            if let Some(&last) = rows.last() {
                if last as usize >= col.len() {
                    return Err(Error::Internal(format!(
                        "row {last} is past the end of its column"
                    )));
                }
            }
            let verdicts = rows
                .iter()
                .map(|&r| col.get(r as usize).is_some_and(|&v| test(v)));
            compact(out, rows.iter().copied().zip(verdicts));
        }
    }
    Ok(())
}

/// Appends each row whose verdict is `true`, without a branch on the
/// verdict: every row is written, and the write position advances by the
/// verdict (selections near 50 % would mispredict half the time).
fn compact(out: &mut Vec<RowId>, rows: impl ExactSizeIterator<Item = (RowId, bool)>) {
    let mut at = out.len();
    out.resize(at + rows.len(), 0);
    for (row, keep) in rows {
        if let Some(slot) = out.get_mut(at) {
            *slot = row;
        }
        at += usize::from(keep);
    }
    out.truncate(at);
}

/// Appends the union of two disjoint ascending row lists, ascending.
fn merge(a: &[RowId], b: &[RowId], out: &mut Vec<RowId>) {
    let mut b = b.iter().copied().peekable();
    for &x in a {
        while let Some(y) = b.next_if(|&y| y < x) {
            out.push(y);
        }
        out.push(x);
    }
    out.extend(b);
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A helper wrapper so predicates can key hash maps even though [`Value`]
/// contains floats: [`Pred`] already implements `Hash`/`Eq` via bit-equality.
pub fn pred_fingerprint(p: &Pred) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::store::EventDbBuilder;
    use crate::time::timestamp;

    /// One row through the compiled kernel: a block of one.
    trait EvalRow {
        fn eval(&self, db: &EventDb, row: RowId) -> Result<bool>;
    }

    impl EvalRow for Pred {
        fn eval(&self, db: &EventDb, row: RowId) -> Result<bool> {
            let mut out = Vec::new();
            self.compile(db).select(row..row + 1, &mut out)?;
            Ok(out == [row])
        }
    }

    fn db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("time", ColumnType::Time)
            .dimension("location", ColumnType::Str)
            .measure("amount", ColumnType::Float)
            .build()
            .unwrap();
        for (t, l, m) in [
            (timestamp(2007, 9, 30, 23, 59, 0), "Pentagon", 0.0),
            (timestamp(2007, 10, 1, 0, 0, 0), "Wheaton", -2.0),
            (timestamp(2007, 12, 31, 23, 59, 0), "Pentagon", 100.0),
        ] {
            db.push_row(&[Value::Time(t), Value::from(l), Value::Float(m)])
                .unwrap();
        }
        db
    }

    #[test]
    fn time_range_matches_fig3() {
        let db = db();
        // WHERE time >= 2007-10-01T00:00 AND time < 2007-12-31T24:00
        let p = Pred::cmp(0, CmpOp::Ge, Value::from("2007-10-01T00:00")).and(Pred::cmp(
            0,
            CmpOp::Lt,
            Value::from("2007-12-31T24:00"),
        ));
        let hits: Vec<bool> = (0..3).map(|r| p.eval(&db, r).unwrap()).collect();
        assert_eq!(hits, vec![false, true, true]);
    }

    #[test]
    fn string_and_float_comparisons() {
        let db = db();
        let p = Pred::cmp(1, CmpOp::Eq, "Pentagon");
        assert!(p.eval(&db, 0).unwrap());
        assert!(!p.eval(&db, 1).unwrap());
        let q = Pred::cmp(2, CmpOp::Lt, Value::Float(0.0));
        assert!(!q.eval(&db, 0).unwrap());
        assert!(q.eval(&db, 1).unwrap());
        // Int literal coerces against float column.
        let r = Pred::cmp(2, CmpOp::Ge, Value::Int(100));
        assert!(r.eval(&db, 2).unwrap());
    }

    #[test]
    fn stored_nan_is_unequal_to_every_literal() {
        let mut db = db();
        db.push_row(&[
            Value::Time(0),
            Value::from("Wheaton"),
            Value::Float(f64::NAN),
        ])
        .unwrap();
        let nan = 3;
        let holds = |op, lit: f64| Pred::cmp(2, op, Value::Float(lit)).eval(&db, nan).unwrap();
        // A NaN was `Equal` to everything: `=`, `<=`, `>=` held, `<>` failed.
        assert!(!holds(CmpOp::Eq, 5.0));
        assert!(holds(CmpOp::Ne, 5.0));
        // Under totalOrder it sorts after every number, +∞ included.
        assert!(holds(CmpOp::Gt, f64::INFINITY));
        assert!(!holds(CmpOp::Le, 5.0));
        assert!(!Pred::cmp(2, CmpOp::Eq, Value::Int(5))
            .eval(&db, nan)
            .unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let db = db();
        let pentagon = Pred::cmp(1, CmpOp::Eq, "Pentagon");
        let cheap = Pred::cmp(2, CmpOp::Le, Value::Float(0.0));
        assert!(pentagon.clone().and(cheap.clone()).eval(&db, 0).unwrap());
        assert!(!pentagon.clone().and(cheap.clone()).eval(&db, 2).unwrap());
        assert!(pentagon.clone().or(cheap.clone()).eval(&db, 1).unwrap());
        assert!(!pentagon.clone().not().eval(&db, 0).unwrap());
        assert!(Pred::True.eval(&db, 0).unwrap());
    }

    #[test]
    fn in_list() {
        let db = db();
        let p = Pred::In {
            attr: 1,
            values: vec![Value::from("Wheaton"), Value::from("Glenmont")],
        };
        assert!(!p.eval(&db, 0).unwrap());
        assert!(p.eval(&db, 1).unwrap());
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let db = db();
        let p = Pred::cmp(1, CmpOp::Eq, Value::Int(3));
        assert!(matches!(p.eval(&db, 0), Err(Error::TypeMismatch { .. })));
    }

    #[test]
    fn a_mismatch_errs_only_when_a_row_reaches_it() {
        let db = db();
        let bad = Pred::cmp(1, CmpOp::Eq, Value::Int(3));
        let select = |p: &Pred, rows: Range<RowId>| {
            let mut out = Vec::new();
            p.compile(&db).select(rows, &mut out).map(|()| out)
        };
        // No row reaches it: FALSE AND bad, TRUE OR bad, and `IN` that hits
        // every row before its mismatched value.
        let never = Pred::cmp(2, CmpOp::Gt, Value::Float(1e9));
        assert_eq!(select(&never.clone().and(bad.clone()), 0..3), Ok(vec![]));
        assert_eq!(select(&Pred::True.or(bad.clone()), 0..3), Ok(vec![0, 1, 2]));
        let pentagon_or_3 = Pred::In {
            attr: 1,
            values: vec![Value::from("Pentagon"), Value::Int(3)],
        };
        assert_eq!(select(&pentagon_or_3, 0..1), Ok(vec![0]));
        assert_eq!(select(&pentagon_or_3, 2..3), Ok(vec![2]));
        // One row reaching it is enough.
        assert!(matches!(
            select(&pentagon_or_3, 0..3),
            Err(Error::TypeMismatch { .. })
        ));
        assert!(matches!(
            select(&never.not().and(bad.clone()), 2..3),
            Err(Error::TypeMismatch { .. })
        ));
        // An empty block reaches nothing.
        assert_eq!(select(&bad, 1..1), Ok(vec![]));
    }

    #[test]
    fn int_comparisons_are_intervals_to_the_edges() {
        let mut db = EventDbBuilder::new()
            .dimension("n", ColumnType::Int)
            .build()
            .unwrap();
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            db.push_row(&[Value::Int(v)]).unwrap();
        }
        let select = |p: Pred| {
            let mut out = Vec::new();
            p.compile(&db).select(0..5, &mut out).unwrap();
            out
        };
        let cmp = |op, v| Pred::cmp(0, op, Value::Int(v));
        assert_eq!(select(cmp(CmpOp::Lt, i64::MIN)), vec![]);
        assert_eq!(select(cmp(CmpOp::Le, i64::MIN)), vec![0]);
        assert_eq!(select(cmp(CmpOp::Gt, i64::MAX)), vec![]);
        assert_eq!(select(cmp(CmpOp::Ge, i64::MAX)), vec![4]);
        assert_eq!(select(cmp(CmpOp::Ne, 0)), vec![0, 1, 3, 4]);
        // `AND` of two intervals on one column is one fused interval.
        let window = |a, b| cmp(CmpOp::Ge, a).and(cmp(CmpOp::Lt, b));
        assert_eq!(select(window(-1, 1)), vec![1, 2]);
        assert_eq!(select(window(1, -1)), vec![]);
        assert_eq!(select(window(1, -1).not()), vec![0, 1, 2, 3, 4]);
        assert_eq!(select(cmp(CmpOp::Ne, 0).and(cmp(CmpOp::Le, 0))), vec![0, 1]);
    }

    #[test]
    fn render_is_stable() {
        let db = db();
        let p = Pred::cmp(0, CmpOp::Ge, Value::from("2007-10-01T00:00")).and(Pred::cmp(
            1,
            CmpOp::Eq,
            "Pentagon",
        ));
        let s = p.render(&db);
        assert!(s.contains("time >="), "{s}");
        assert!(s.contains("location = \"Pentagon\""), "{s}");
    }

    #[test]
    fn fingerprint_distinguishes() {
        let a = Pred::cmp(0, CmpOp::Eq, Value::Int(1));
        let b = Pred::cmp(0, CmpOp::Eq, Value::Int(2));
        assert_ne!(pred_fingerprint(&a), pred_fingerprint(&b));
        assert_eq!(pred_fingerprint(&a), pred_fingerprint(&a.clone()));
    }
}
