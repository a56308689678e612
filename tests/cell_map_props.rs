//! Code-keyed cells against a `Vec`-keyed reference (DESIGN.md §12).
//!
//! Inverted lists and cuboid cells are stored keyed by packed cell code
//! (`CellMap`). This seeded suite recomputes both by brute force, keyed by
//! plain `Vec<LevelValue>` in `BTreeMap`s written here, and checks that the
//! code-keyed forms hold the same cells, in the same (key) order:
//!
//! * templates with a repeated symbol `(X, Y, Y, X)`, PREPEND-reordered
//!   templates (position order ≠ dimension order) and SUBSEQUENCE kinds;
//! * a dimension with no finite domain (the `Vec`-keyed fallback);
//! * a `STORE` that grows a pattern dimension's dictionary under a carried
//!   index and cuboid — the radix changes, and the carried index must be
//!   bit-identical to a fresh build.

use std::collections::BTreeMap;

use s_olap::eventdb::build_sequence_groups;
use s_olap::index::{build_index, IndexKey, SidSet};
use s_olap::prelude::Strategy as EngineStrategy;
use s_olap::prelude::{
    AttrLevel, ColumnType, Engine, EngineConfig, EventDb, EventDbBuilder, PatternKind,
    PatternTemplate, SCuboidSpec, SortKey, Value,
};

const SID: u32 = 0;
const POS: u32 = 1;
const SYM: u32 = 2;
const NUM: u32 = 3;
const TAG: u32 = 4;

/// A deterministic generator (64-bit LCG), one stream per seed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// `sequences` sequences of 1–6 events: `sym` from a small dictionary,
/// `num` a raw integer (no finite domain), `tag` fixed per sequence.
fn random_db(rng: &mut Lcg, sequences: i64) -> EventDb {
    let mut db = EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("sym", ColumnType::Str)
        .dimension("num", ColumnType::Int)
        .dimension("tag", ColumnType::Str)
        .build()
        .unwrap();
    let alphabet = 2 + rng.below(4);
    for sid in 0..sequences {
        let len = 1 + rng.below(6) as i64;
        for pos in 0..len {
            db.push_row(&row(sid, pos, rng.below(alphabet), rng.below(4)))
                .unwrap();
        }
    }
    db
}

fn row(sid: i64, pos: i64, sym: u64, num: u64) -> Vec<Value> {
    vec![
        Value::Int(sid),
        Value::Int(pos),
        Value::Str(format!("s{sym}")),
        Value::Int(num as i64 * 7),
        Value::from(if sid % 2 == 0 { "even" } else { "odd" }),
    ]
}

/// A template over `symbols`, dimension `d` bound to `attrs[d]`. The
/// symbols are set directly, as PREPEND leaves them: dimension order need
/// not be first-appearance order.
fn template(kind: PatternKind, symbols: &[usize], attrs: &[u32]) -> PatternTemplate {
    let names: Vec<String> = (0..attrs.len()).map(|d| format!("D{d}")).collect();
    let bindings: Vec<(&str, u32, usize)> = names
        .iter()
        .zip(attrs)
        .map(|(n, &a)| (n.as_str(), a, 0))
        .collect();
    let ordered: Vec<&str> = (0..attrs.len()).map(|d| names[d].as_str()).collect();
    let mut t = PatternTemplate::new(kind, &ordered, &bindings).unwrap();
    t.symbols = symbols.to_vec();
    t
}

fn templates() -> Vec<PatternTemplate> {
    let mut out = Vec::new();
    for kind in [PatternKind::Substring, PatternKind::Subsequence] {
        out.push(template(kind, &[0, 1], &[SYM, SYM]));
        out.push(template(kind, &[0, 1, 1, 0], &[SYM, SYM]));
        // PREPEND-reordered: positions (Y, X) and (Z, X, Y).
        out.push(template(kind, &[1, 0], &[SYM, SYM]));
        out.push(template(kind, &[2, 0, 1], &[SYM, SYM, SYM]));
        // No finite domain, alone and beside a finite one.
        out.push(template(kind, &[0, 1], &[NUM, NUM]));
        out.push(template(kind, &[1, 0], &[SYM, NUM]));
    }
    out
}

fn spec(t: &PatternTemplate, grouped: bool) -> SCuboidSpec {
    let mut spec = SCuboidSpec::new(
        t.clone(),
        vec![AttrLevel::new(SID, 0)],
        vec![SortKey {
            attr: POS,
            ascending: true,
        }],
    );
    if grouped {
        spec.seq.group_by = vec![AttrLevel::new(TAG, 0)];
    }
    spec
}

/// Every instantiation of `t` in one sequence, by brute force over the
/// position tuples (consecutive for SUBSTRING, increasing for
/// SUBSEQUENCE).
fn patterns_in(db: &EventDb, rows: &[u32], t: &PatternTemplate) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    let mut pick = vec![0usize; t.m()];
    fn walk(
        at: usize,
        from: usize,
        pick: &mut Vec<usize>,
        len: usize,
        kind: PatternKind,
        visit: &mut dyn FnMut(&[usize]),
    ) {
        if at == pick.len() {
            visit(pick);
            return;
        }
        for i in from..len {
            if kind == PatternKind::Substring && at > 0 && i != pick[at - 1] + 1 {
                break;
            }
            pick[at] = i;
            walk(at + 1, i + 1, pick, len, kind, visit);
            if kind == PatternKind::Substring && at == 0 && i + pick.len() > len {
                break;
            }
        }
    }
    walk(0, 0, &mut pick, rows.len(), t.kind, &mut |idx| {
        let values: Vec<u64> = idx
            .iter()
            .enumerate()
            .map(|(p, &i)| {
                let d = t.dim_at(p);
                db.value_at_level(rows[i], d.attr, d.level).unwrap()
            })
            .collect();
        if t.is_instantiation(&values) {
            out.push(values);
        }
    });
    out
}

/// The `Vec`-keyed BUILDINDEX: pattern → sids of the sequences holding it.
fn reference_index(
    db: &EventDb,
    seqs: &[s_olap::eventdb::Sequence],
    t: &PatternTemplate,
) -> BTreeMap<Vec<u64>, Vec<u32>> {
    let mut index: BTreeMap<Vec<u64>, Vec<u32>> = BTreeMap::new();
    for seq in seqs {
        for pattern in patterns_in(db, &seq.rows, t) {
            let sids = index.entry(pattern).or_default();
            if sids.last() != Some(&seq.sid) {
                sids.push(seq.sid);
            }
        }
    }
    index
}

/// COUNT cells as `((global, pattern), count)`, in key order.
type Cells = Vec<((Vec<u64>, Vec<u64>), u64)>;

/// The `Vec`-keyed COUNT cuboid under the trivial predicate and
/// left-maximality: per `(global, cell)`, the sequences holding it.
fn reference_cuboid(db: &EventDb, spec: &SCuboidSpec) -> Cells {
    let groups = build_sequence_groups(db, &spec.seq).unwrap();
    let mut cells: BTreeMap<(Vec<u64>, Vec<u64>), u64> = BTreeMap::new();
    for group in &groups.groups {
        for (pattern, sids) in reference_index(db, &group.sequences, &spec.template) {
            let key = (group.key.clone(), spec.template.cell_of(&pattern));
            *cells.entry(key).or_default() += sids.len() as u64;
        }
    }
    cells.into_iter().collect()
}

fn engine_cells(engine: &Engine, spec: &SCuboidSpec) -> Cells {
    let out = engine.execute(spec).unwrap();
    out.cuboid
        .iter_sorted()
        .into_iter()
        .map(|(k, v)| ((k.global, k.pattern), v.as_count().unwrap()))
        .collect()
}

fn config(strategy: EngineStrategy) -> EngineConfig {
    EngineConfig {
        strategy,
        timeout: None,
        budget_cells: None,
        ..Default::default()
    }
}

/// Built indices hold the reference lists, in pattern order, each sealed;
/// a template with no finite code space keeps `Vec` keys.
#[test]
fn code_keyed_indices_equal_the_vec_keyed_reference() {
    for seed in 0..24 {
        let mut rng = Lcg(seed);
        let sequences = 3 + rng.below(10) as i64;
        let db = random_db(&mut rng, sequences);
        for t in templates() {
            let groups = build_sequence_groups(&db, &spec(&t, true).seq).unwrap();
            for group in &groups.groups {
                let (index, _) = build_index(&db, &group.sequences, &t).unwrap();
                let got: Vec<(Vec<u64>, Vec<u32>)> = index
                    .iter_sorted()
                    .into_iter()
                    .map(|(k, v)| (k, v.to_vec()))
                    .collect();
                let want: Vec<_> = reference_index(&db, &group.sequences, &t)
                    .into_iter()
                    .collect();
                assert_eq!(got, want, "seed {seed} template {:?}", t.symbols);
                for (pattern, list) in index.lists().iter() {
                    assert_eq!(list.clone().sealed(), *list, "sealed");
                    assert_eq!(index.list(&pattern.to_vec()), Some(list));
                }
                let finite = t.dims.iter().all(|d| d.attr == SYM);
                assert_eq!(index.codec().space().is_some(), finite);
                assert!(index
                    .lists()
                    .iter()
                    .all(|(p, _)| p.code().is_some() == finite));
            }
        }
    }
}

/// Counter-based and inverted-index cuboids hold the reference cells, in
/// key order, whatever the template shape.
#[test]
fn code_keyed_cuboids_equal_the_vec_keyed_reference() {
    for seed in 0..12 {
        let mut rng = Lcg(1000 + seed);
        let sequences = 3 + rng.below(10) as i64;
        let db = random_db(&mut rng, sequences);
        let engines = [
            Engine::with_config(db.clone(), config(EngineStrategy::CounterBased)),
            Engine::with_config(db.clone(), config(EngineStrategy::InvertedIndex)),
        ];
        for t in templates() {
            for grouped in [false, true] {
                let spec = spec(&t, grouped);
                let want = reference_cuboid(&db, &spec);
                for engine in &engines {
                    assert_eq!(
                        engine_cells(engine, &spec),
                        want,
                        "seed {seed} template {:?} grouped {grouped}",
                        t.symbols
                    );
                }
            }
        }
    }
}

/// A `STORE` of new sequences carrying a brand-new symbol grows the `sym`
/// dictionary, and with it the radix of every code keyed over it. The
/// carried index is re-keyed, not rebuilt, and equals a fresh build bit
/// for bit (lists, encodings, codec and bytes); the cuboid the engine then
/// answers equals the reference and a fresh engine's.
#[test]
fn a_store_that_grows_the_radix_re_keys_carried_cells() {
    for seed in 0..8 {
        let mut rng = Lcg(2000 + seed);
        // Enough sequences that lists reach every encoding.
        let sequences = 20 + rng.below(60) as i64;
        let db = random_db(&mut rng, sequences);
        for t in [
            template(PatternKind::Substring, &[0, 1], &[SYM, SYM]),
            template(PatternKind::Subsequence, &[0, 1], &[SYM, SYM]),
            template(PatternKind::Substring, &[0, 1], &[NUM, SYM]),
        ] {
            let spec = spec(&t, false);
            let engine = Engine::with_config(db.clone(), config(EngineStrategy::InvertedIndex));
            engine.execute(&spec).unwrap();
            let before = engine.db().dict(SYM).unwrap().len();
            // One brand-new symbol between two known ones.
            let known = db.value(0, SYM);
            let rows: Vec<Vec<Value>> = (0..3)
                .map(|pos| {
                    let mut r = row(sequences, pos, 50, rng.below(4));
                    if pos != 1 {
                        r[SYM as usize] = known.clone();
                    }
                    r
                })
                .collect();
            let report = engine.append_events(&rows).unwrap();
            assert_eq!(report.indexes_extended, 1, "seed {seed}: {report:?}");
            let db = engine.db().clone();
            assert_eq!(db.dict(SYM).unwrap().len(), before + 1, "radix grew");
            let key = IndexKey::unsliced(
                spec.seq.fingerprint(),
                db.version(),
                0,
                spec.template.signature(),
            );
            let carried = engine.index_store().get(&key).expect("carried forward");
            let groups = build_sequence_groups(&db, &spec.seq).unwrap();
            let (fresh, _) = build_index(&db, &groups.groups[0].sequences, &t).unwrap();
            assert_eq!(carried.codec(), fresh.codec(), "seed {seed}");
            assert_eq!(carried.lists(), fresh.lists(), "seed {seed}");
            let encodings = |ix: &s_olap::index::InvertedIndex| -> Vec<SidSet> {
                ix.lists().values().cloned().collect()
            };
            assert_eq!(encodings(&carried), encodings(&fresh), "seed {seed}");
            assert_eq!(carried.heap_bytes(), fresh.heap_bytes(), "seed {seed}");
            let want = reference_cuboid(&db, &spec);
            assert_eq!(engine_cells(&engine, &spec), want, "seed {seed}");
            let scratch = Engine::with_config(db, config(EngineStrategy::InvertedIndex));
            assert_eq!(engine_cells(&scratch, &spec), want, "seed {seed}");
        }
    }
}
