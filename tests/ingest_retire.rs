//! Version-scoped caches under streaming ingestion.
//!
//! Every cache key carries the database version it was computed at, so a
//! `STORE` supersedes every entry of the version before it. The properties
//! under test:
//!
//! * **only current entries survive a store** — after every acknowledged
//!   batch, the sequence cache, the index store and the cuboid repository
//!   hold no entry older than `db.version()`;
//! * **answers are unchanged** — every answer of a random interleaving of
//!   new-cluster and existing-cluster `STORE`s with CB/II queries, slices,
//!   APPEND and P-ROLL-UP equals a fresh engine's over the same rows;
//! * **fresh entries are not starved** — a query repeated after a `STORE`
//!   is answered from the cuboid repository on its second run, even with a
//!   repository too small to also hold the superseded versions;
//! * **the writer's work is unchanged** — a fixed single-threaded script's
//!   per-batch carry-forward counts equal values recorded before
//!   retirement existed.

use s_olap::prelude::*;

/// 24 sequences over 5 symbols with an `a`/`b` tag and a dyadic weight;
/// `symbol` has a `parity` level above it for P-ROLL-UP.
fn build_db() -> EventDb {
    let mut db = EventDbBuilder::new()
        .dimension("sid", ColumnType::Int)
        .dimension("pos", ColumnType::Int)
        .dimension("symbol", ColumnType::Str)
        .dimension("tag", ColumnType::Str)
        .measure("weight", ColumnType::Float)
        .build()
        .unwrap();
    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
    for sid in 0..24i64 {
        for pos in 0..3 + (sid % 6) {
            db.push_row(&event(&mut rng, sid, pos)).unwrap();
        }
    }
    db.set_base_level_name(2, "symbol");
    db.attach_str_level(2, "parity", |name| {
        let v: u32 = name[1..].parse().unwrap();
        format!("p{}", v % 2)
    })
    .unwrap();
    db
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn event(rng: &mut Lcg, sid: i64, pos: i64) -> Vec<Value> {
    let sym = rng.below(5);
    vec![
        Value::Int(sid),
        Value::Int(pos),
        Value::Str(format!("s{sym}")),
        Value::from(if rng.below(2) == 0 { "a" } else { "b" }),
        Value::Float(sym as f64 + 0.5),
    ]
}

/// A batch of 2–4 events: a new cluster (`sid ≥ 1000`, extendable) or the
/// tail of an existing one (`ClusterInvalidated`, rebuilt on demand).
fn batch(rng: &mut Lcg, i: i64, existing: bool) -> Vec<Vec<Value>> {
    let (sid, base) = if existing {
        (rng.below(24) as i64, 100 + 10 * i)
    } else {
        (1000 + i, 0)
    };
    (0..2 + rng.below(3) as i64)
        .map(|p| event(rng, sid, base + p))
        .collect()
}

/// `(X, Y)` substring over `symbol`, restricted to `tag = "a"` events.
fn base_spec() -> SCuboidSpec {
    let template = PatternTemplate::new(
        PatternKind::Substring,
        &["X", "Y"],
        &[("X", 2, 0), ("Y", 2, 0)],
    )
    .unwrap();
    SCuboidSpec::new(
        template,
        vec![AttrLevel::new(0, 0)],
        vec![SortKey {
            attr: 1,
            ascending: true,
        }],
    )
    .with_mpred(MatchPred::cmp(0, 3, CmpOp::Eq, "a"))
}

fn config(strategy: Strategy, threads: usize) -> EngineConfig {
    EngineConfig {
        strategy,
        threads,
        timeout: None,
        budget_cells: None,
        ..Default::default()
    }
}

/// The engine under test never holds a superseded entry after a store.
fn assert_only_current(engine: &Engine, context: &str) {
    let v = engine.db().version();
    for (name, span) in [
        ("sequence cache", engine.sequence_cache().versions()),
        ("index store", engine.index_store().versions()),
        ("cuboid repo", engine.cuboid_repo().versions()),
    ] {
        assert!(
            span.is_none_or(|(oldest, _)| oldest >= v),
            "{context}: {name} holds versions {span:?} at version {v}"
        );
    }
}

/// One navigation step, concretised against the current spec so that a
/// random walk stays valid.
fn navigate(engine: &Engine, spec: &SCuboidSpec, rng: &mut Lcg) -> Option<Op> {
    let dims = &spec.template.dims;
    match rng.below(4) {
        0 if spec.template.m() < 4 => Some(Op::Append {
            symbol: spec.template.fresh_symbol_name(),
            attr: 2,
            level: 0,
        }),
        1 => {
            let d = &dims[rng.below(dims.len() as u64) as usize];
            (d.level == 0).then(|| Op::PRollUp {
                dim: d.name.clone(),
            })
        }
        2 => {
            let out = engine.execute(spec).ok()?;
            let top = out.cuboid.top_k(1);
            let (key, _) = top.first()?;
            let i = rng.below(dims.len() as u64) as usize;
            Some(Op::SlicePattern {
                dim: dims[i].name.clone(),
                value: key.pattern[i],
            })
        }
        _ => (spec.template.m() > 2).then_some(Op::DeTail),
    }
}

#[test]
fn random_interleavings_keep_only_current_entries_and_fresh_answers() {
    for threads in [1usize, 8] {
        for seed in 1..=4u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
            // A repository smaller than the navigation's working set plus
            // one superseded copy of it: without retirement, demand the dead
            // cuboids collected would evict every fresh one on insert.
            let engine = Engine::builder(build_db())
                .config(config(Strategy::Auto, threads))
                .cuboid_repo_capacity(3, usize::MAX)
                .build();
            let (cb, ii) = (
                config(Strategy::CounterBased, threads),
                config(Strategy::InvertedIndex, threads),
            );
            let mut spec = base_spec();
            let (mut stores, mut repeats) = (0i64, 0usize);
            for step in 0..60 {
                let context = format!("threads {threads}, seed {seed}, step {step}");
                let cfg = if rng.below(2) == 0 { &cb } else { &ii };
                match rng.below(5) {
                    0 | 1 => {
                        let existing = rng.below(4) == 0;
                        let rows = batch(&mut rng, stores, existing);
                        stores += 1;
                        let report = engine.append_events(&rows).unwrap();
                        assert_eq!(report.version, engine.db().version(), "{context}");
                        assert_only_current(&engine, &context);
                        // The first run after the store computes and caches
                        // the current version's cuboid; the second is a hit.
                        engine.execute_configured(&spec, cfg).unwrap();
                        let again = engine.execute_configured(&spec, cfg).unwrap();
                        assert_eq!(again.stats.strategy, "cache", "{context}: starved");
                        repeats += 1;
                    }
                    2 => {
                        let out = engine.execute_configured(&spec, cfg).unwrap();
                        let fresh = Engine::with_config(engine.db().clone(), cb.clone());
                        assert_eq!(
                            out.cuboid.cells,
                            fresh.execute(&spec).unwrap().cuboid.cells,
                            "{context}: {spec:?}"
                        );
                    }
                    _ => {
                        let Some(op) = navigate(&engine, &spec, &mut rng) else {
                            continue;
                        };
                        let (next, out) = engine.execute_op_configured(&spec, &op, cfg).unwrap();
                        let fresh = Engine::with_config(engine.db().clone(), cb.clone());
                        assert_eq!(
                            out.cuboid.cells,
                            fresh.execute(&next).unwrap().cuboid.cells,
                            "{context}: {op:?}"
                        );
                        spec = next;
                    }
                }
            }
            assert!(stores >= 10 && repeats >= 10, "seed {seed} barely stored");
        }
    }
}

/// Per-batch `(groups_extended, indexes_extended, rebuild_fallbacks)` of a
/// fixed single-threaded script: four live specs over one sequence-group
/// spec (three II — the base, an APPEND, a P-ROLL-UP — and one CB-only, so
/// without a base index), then 24 batches — every sixth into an existing
/// cluster — with the navigation re-run after every third.
fn scripted_store_reports() -> Vec<(usize, usize, usize)> {
    let engine = Engine::with_config(build_db(), config(Strategy::Auto, 1));
    let (cb, ii) = (
        config(Strategy::CounterBased, 1),
        config(Strategy::InvertedIndex, 1),
    );
    let navigate = |engine: &Engine| {
        let base = base_spec();
        engine.execute_configured(&base, &ii).unwrap();
        let append = Op::Append {
            symbol: "Z".into(),
            attr: 2,
            level: 0,
        };
        let (xyz, _) = engine.execute_op_configured(&base, &append, &ii).unwrap();
        let roll_up = Op::PRollUp { dim: "Z".into() };
        engine.execute_op_configured(&xyz, &roll_up, &ii).unwrap();
        let coarse_x = Op::PRollUp { dim: "X".into() };
        let (sum, _) = engine.execute_op_configured(&base, &coarse_x, &cb).unwrap();
        let sum = sum.with_agg(AggFunc::Sum(4, SumMode::AllEvents));
        engine.execute_configured(&sum, &cb).unwrap();
    };
    navigate(&engine);
    let mut rng = Lcg(7);
    (0..24)
        .map(|i| {
            let report = engine
                .append_events(&batch(&mut rng, i, i % 6 == 3))
                .unwrap();
            if i % 3 == 2 {
                navigate(&engine);
            }
            (
                report.groups_extended,
                report.indexes_extended,
                report.rebuild_fallbacks,
            )
        })
        .collect()
}

#[test]
fn retirement_leaves_the_writers_carry_forward_unchanged() {
    // Recorded by this script against the engine before retirement: the
    // store path must extend and fall back exactly as it did then.
    let extended = (5, 3, 0);
    let fell_back = (0, 0, 5);
    let idle = (0, 0, 0);
    let pinned: Vec<(usize, usize, usize)> = (0..4)
        .flat_map(|_| [extended, extended, extended, fell_back, idle, idle])
        .collect();
    assert_eq!(scripted_store_reports(), pinned);
}
