//! Property test: the compiled select+cluster kernel against a naive,
//! row-at-a-time reference written here from the query semantics alone.
//!
//! Each case draws a small database (Int, Float with NaN / ±∞ / −0.0, Str
//! and Time columns, with hierarchies), a random `WHERE` tree over all
//! four types — every operator, `IN` lists, nested `AND` / `OR` / `NOT`,
//! integer literals against the float column, string timestamps against
//! the time column and literals of the wrong type — and a random
//! `CLUSTER BY` / `SEQUENCE BY`. The kernel must select the same rows, err
//! exactly when some row reaches a mismatched literal, and form the same
//! sequences as the reference.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use solap_eventdb::time::{format_timestamp, parse_timestamp, timestamp};
use solap_eventdb::{
    build_sequence_groups, AttrLevel, CmpOp, ColumnType, Error, EventDb, EventDbBuilder,
    LevelValue, Pred, RowId, SeqQuerySpec, SortKey, TimeHierarchy, Value,
};

const CASES: u64 = 300;

const INT: u32 = 0;
const FLOAT: u32 = 1;
const STR: u32 = 2;
const TIME: u32 = 3;

const WORDS: [&str; 7] = ["", "Pentagon", "Wheaton", "a", "ab", "b", "zeta"];
const FLOATS: [f64; 9] = [
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    1.0,
    -1.5,
    2.0,
];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn pick<T: Clone>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

fn base_time() -> i64 {
    timestamp(2007, 10, 1, 0, 0, 0)
}

/// A time on a 6-hour grid around 2007-10-01, so days and weeks repeat.
fn some_time(rng: &mut StdRng) -> i64 {
    base_time() + rng.gen_range(-12i64..12) * 6 * 3600
}

fn random_db(rng: &mut StdRng) -> EventDb {
    let mut db = EventDbBuilder::new()
        .dimension("n", ColumnType::Int)
        .measure("x", ColumnType::Float)
        .dimension("s", ColumnType::Str)
        .dimension("t", ColumnType::Time)
        .build()
        .unwrap();
    db.set_time_hierarchy(TIME, TimeHierarchy::full()).unwrap();
    // Mostly one block, sometimes several with a ragged last one.
    let rows = if rng.gen_bool(0.3) {
        rng.gen_range(1025usize..3000)
    } else {
        rng.gen_range(0usize..200)
    };
    for _ in 0..rows {
        db.push_row(&[
            Value::Int(rng.gen_range(-4i64..5)),
            Value::Float(pick(rng, &FLOATS)),
            Value::from(pick(rng, &WORDS)),
            Value::Time(some_time(rng)),
        ])
        .unwrap();
    }
    db.attach_int_level(INT, "sign", |n| {
        if n < 0 {
            "neg".into()
        } else {
            "non-neg".into()
        }
    })
    .unwrap();
    db.attach_str_level(STR, "initial", |s| s.chars().take(1).collect())
        .unwrap();
    db
}

/// A literal for `attr`: usually of a type that coerces, sometimes not.
fn literal(rng: &mut StdRng, attr: u32) -> Value {
    let wrong = rng.gen_bool(0.15);
    match (attr, wrong) {
        (INT, false) if rng.gen_bool(0.1) => Value::Int(pick(rng, &[i64::MIN, i64::MAX])),
        (INT, false) => Value::Int(rng.gen_range(-5i64..6)),
        (INT, true) => pick(rng, &[Value::Float(1.0), Value::from("3"), Value::Time(1)]),
        (FLOAT, false) if rng.gen_bool(0.3) => Value::Int(rng.gen_range(-2i64..3)),
        (FLOAT, false) => Value::Float(pick(rng, &FLOATS)),
        (FLOAT, true) => pick(rng, &[Value::from("1.0"), Value::Time(0)]),
        (STR, false) if rng.gen_bool(0.2) => Value::from("absent"),
        (STR, false) => Value::from(pick(rng, &WORDS)),
        (STR, true) => pick(rng, &[Value::Int(1), Value::Float(0.0)]),
        (_, false) => match rng.gen_range(0..3) {
            0 => Value::from(format_timestamp(some_time(rng)).as_str()),
            1 => Value::Time(some_time(rng)),
            _ => Value::Int(some_time(rng)),
        },
        (_, true) => pick(rng, &[Value::from("not a time"), Value::Float(0.0)]),
    }
}

fn random_pred(rng: &mut StdRng, depth: u32) -> Pred {
    let leaf = depth == 0 || rng.gen_bool(0.35);
    if leaf {
        let attr = rng.gen_range(0u32..4);
        return match rng.gen_range(0..10) {
            0 => Pred::True,
            1 | 2 => Pred::In {
                attr,
                values: (0..rng.gen_range(0..4))
                    .map(|_| literal(rng, attr))
                    .collect(),
            },
            _ => Pred::cmp(attr, pick(rng, &OPS), literal(rng, attr)),
        };
    }
    match rng.gen_range(0..3) {
        0 => random_pred(rng, depth - 1).and(random_pred(rng, depth - 1)),
        1 => random_pred(rng, depth - 1).or(random_pred(rng, depth - 1)),
        _ => random_pred(rng, depth - 1).not(),
    }
}

/// `Err(())` is a type mismatch: the literal does not coerce to the column.
fn ref_cmp(db: &EventDb, row: RowId, attr: u32, op: CmpOp, lit: &Value) -> Result<bool, ()> {
    let ord = match (db.value(row, attr), lit) {
        (Value::Int(v), Value::Int(l)) => v.cmp(l),
        (Value::Float(v), Value::Float(l)) => v.total_cmp(l),
        (Value::Float(v), Value::Int(l)) => v.total_cmp(&(*l as f64)),
        (Value::Str(v), Value::Str(l)) => v.as_str().cmp(l.as_str()),
        (Value::Time(v), Value::Time(l) | Value::Int(l)) => v.cmp(l),
        (Value::Time(v), Value::Str(l)) => v.cmp(&parse_timestamp(l).ok_or(())?),
        _ => return Err(()),
    };
    Ok(match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    })
}

/// Row-at-a-time evaluation with short-circuiting `AND` / `OR` / `IN`.
fn ref_eval(db: &EventDb, p: &Pred, row: RowId) -> Result<bool, ()> {
    Ok(match p {
        Pred::True => true,
        Pred::Cmp { attr, op, value } => ref_cmp(db, row, *attr, *op, value)?,
        Pred::In { attr, values } => {
            for v in values {
                if ref_cmp(db, row, *attr, CmpOp::Eq, v)? {
                    return Ok(true);
                }
            }
            false
        }
        Pred::And(a, b) => ref_eval(db, a, row)? && ref_eval(db, b, row)?,
        Pred::Or(a, b) => ref_eval(db, a, row)? || ref_eval(db, b, row)?,
        Pred::Not(p) => !ref_eval(db, p, row)?,
    })
}

/// The selected rows, or `Err(())` when some row reaches a mismatch.
fn ref_select(db: &EventDb, p: &Pred) -> Result<Vec<RowId>, ()> {
    let mut out = Vec::new();
    for row in 0..db.len() as RowId {
        if ref_eval(db, p, row)? {
            out.push(row);
        }
    }
    Ok(out)
}

/// Whether the tree holds a literal that does not coerce to its column.
fn has_mismatch(db: &EventDb, p: &Pred) -> bool {
    match p {
        Pred::True => false,
        Pred::Cmp { attr, value, .. } => ref_cmp(db, 0, *attr, CmpOp::Eq, value).is_err(),
        Pred::In { attr, values } => values
            .iter()
            .any(|v| ref_cmp(db, 0, *attr, CmpOp::Eq, v).is_err()),
        Pred::And(a, b) | Pred::Or(a, b) => has_mismatch(db, a) || has_mismatch(db, b),
        Pred::Not(p) => has_mismatch(db, p),
    }
}

fn ref_row_order(db: &EventDb, keys: &[SortKey], a: RowId, b: RowId) -> Ordering {
    for k in keys {
        let ord = match (db.value(a, k.attr), db.value(b, k.attr)) {
            (Value::Float(x), Value::Float(y)) => x.total_cmp(&y),
            (Value::Str(x), Value::Str(y)) => x.cmp(&y),
            (x, y) => x.as_time().cmp(&y.as_time()),
        };
        let ord = if k.ascending { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.cmp(&b)
}

/// Steps 1–3 by the book: cluster the selected rows by their level
/// values, order the clusters by key, sort each by `SEQUENCE BY`.
fn ref_sequences(
    db: &EventDb,
    spec: &SeqQuerySpec,
    selected: &[RowId],
) -> Vec<(Vec<LevelValue>, Vec<RowId>)> {
    let mut clusters: BTreeMap<Vec<LevelValue>, Vec<RowId>> = BTreeMap::new();
    for &row in selected {
        let key = spec
            .cluster_by
            .iter()
            .map(|al| db.value_at_level(row, al.attr, al.level).unwrap())
            .collect();
        clusters.entry(key).or_default().push(row);
    }
    clusters
        .into_iter()
        .map(|(key, mut rows)| {
            if !spec.sequence_by.is_empty() {
                rows.sort_by(|&a, &b| ref_row_order(db, &spec.sequence_by, a, b));
            }
            (key, rows)
        })
        .collect()
}

fn random_spec(rng: &mut StdRng, filter: Pred) -> SeqQuerySpec {
    let levels = [
        AttrLevel::new(INT, 0),
        AttrLevel::new(INT, 1),
        AttrLevel::new(FLOAT, 0),
        AttrLevel::new(STR, 0),
        AttrLevel::new(STR, 1),
        AttrLevel::new(TIME, 0),
        AttrLevel::new(TIME, 2),
        AttrLevel::new(TIME, 3),
    ];
    let cluster_by = (0..rng.gen_range(0..3))
        .map(|_| pick(rng, &levels))
        .collect();
    let sequence_by = (0..rng.gen_range(0..3))
        .map(|_| SortKey {
            attr: rng.gen_range(0u32..4),
            ascending: rng.gen_bool(0.5),
        })
        .collect();
    SeqQuerySpec {
        filter,
        cluster_by,
        sequence_by,
        group_by: vec![],
    }
}

#[test]
fn kernel_matches_the_row_at_a_time_reference() {
    let (mut errs, mut unreached, mut multi_block) = (0, 0, 0);
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let db = random_db(rng);
        let pred = random_pred(rng, 4);
        let expected = ref_select(&db, &pred);
        let n = db.len() as RowId;
        let ctx = format!("seed {seed}, {} rows, WHERE {}", db.len(), pred.render(&db));

        // The whole table as one block.
        let compiled = pred.compile(&db);
        let mut got = Vec::new();
        let one = compiled.select(0..n, &mut got).map(|()| got);
        match (&one, &expected) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "{ctx}"),
            (Err(Error::TypeMismatch { .. }), Err(())) => errs += 1,
            _ => panic!("{ctx}: kernel {one:?}, reference {expected:?}"),
        }
        if expected.is_ok() && !db.is_empty() && has_mismatch(&db, &pred) {
            unreached += 1;
        }

        // Ragged blocks.
        let mut got = Vec::new();
        let mut chunked = Ok(());
        let mut start = 0;
        while start < n && chunked.is_ok() {
            let end = n.min(start + rng.gen_range(1u32..300));
            chunked = compiled.select(start..end, &mut got);
            start = end;
        }
        assert_eq!(chunked.is_ok(), expected.is_ok(), "{ctx}: chunked");
        if let Ok(want) = &expected {
            assert_eq!(&got, want, "{ctx}: chunked");
        }

        // Steps 1–3 through the full build, CHECK_INTERVAL rows a block.
        let spec = random_spec(rng, pred.clone());
        let built = build_sequence_groups(&db, &spec);
        if db.len() > 1024 {
            multi_block += 1;
        }
        match (&built, &expected) {
            (Ok(groups), Ok(selected)) => {
                let got: Vec<(Vec<LevelValue>, Vec<RowId>)> = groups
                    .iter_sequences()
                    .map(|s| (s.cluster_key.clone(), s.rows.clone()))
                    .collect();
                let want = ref_sequences(&db, &spec, selected);
                assert_eq!(got, want, "{ctx}: {spec:?}");
            }
            (Err(Error::TypeMismatch { .. }), Err(())) => {}
            _ => panic!("{ctx}: build {:?}, reference {expected:?}", built.map(drop)),
        }
    }
    // The draw reaches every case the test is for.
    assert!(errs >= CASES / 20, "mismatches reached: {errs}");
    assert!(
        unreached >= CASES / 20,
        "mismatches short-circuited: {unreached}"
    );
    assert!(
        multi_block >= CASES / 10,
        "multi-block tables: {multi_block}"
    );
}
