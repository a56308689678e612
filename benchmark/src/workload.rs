//! The four workloads as seeded statement streams.
//!
//! The program under test sees nothing of this file but the statement
//! strings it produces. A stream yields *navigations* — the paper's §5.2
//! unit of work: one `SELECT` followed by operations on its result — and,
//! for `ingest_mixed`, `STORE` batches. Names are final; later issues
//! cite them.

use crate::util::{Rng, Stratified, Zipf};

/// Every cuboid-returning statement of the synthetic schema clusters by
/// `seq-id` and orders by `pos` (§5.2: one sequence per `seq-id`).
const FROM: &str = "SELECT COUNT(*) FROM Event";
const SEQ: &str = "CLUSTER BY seq-id AT seq-id SEQUENCE BY pos ASCENDING";
/// The three concept levels of the `symbol` attribute, finest first.
pub const LEVELS: [&str; 3] = ["symbol", "group", "super-group"];
const ZIPF_THETA: f64 = 0.9;
/// Events per `STORE` batch.
pub const BATCH_EVENTS: usize = 64;
/// Every 50th batch of `ingest_mixed` (2 %) lands in an existing cluster.
/// By count, not by chance, and rare: each such batch makes the reader's
/// next navigation rebuild everything, and with one statement in twenty
/// or more being such a rebuild, `stmt_p95_ms` would sit on the edge
/// between the two kinds and swing between them from run to run.
const EXISTING_CLUSTER_EVERY: usize = 50;
/// Tiles per `dashboard_hot` page: its "navigation".
const PAGE_TILES: usize = 8;
const DASHBOARD_SPECS: usize = 32;
const DRILL_PATHS: usize = 512;
/// The pool of paths is the same for every `--seed`, like the dashboard's
/// tiles: what a path costs varies a hundredfold, so a reseeded pool
/// would be a different workload, not a different draw from this one.
const DRILL_POOL_SEED: u64 = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExploreCold,
    DashboardHot,
    DrillChurn,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ExploreCold,
        Workload::DashboardHot,
        Workload::DrillChurn,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreCold => "explore_cold",
            Workload::DashboardHot => "dashboard_hot",
            Workload::DrillChurn => "drill_churn",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// D, the number of sequences of the workload's dataset
    /// `I100.L20.θ0.9.D<d>` (20 events each on average).
    ///
    /// Sized so that a window of seconds holds enough of the workload's
    /// own unit of work for its medians to repeat: at the ROADMAP's 10⁶
    /// events (D = 50K) a cold navigation costs most of a second, a
    /// `STORE` behind ten cached group sets a third of one, and a run
    /// would report the luck of two dozen samples (measured: quartile
    /// spreads of 12–130 % of the median; see README.md).
    ///
    /// * `explore_cold`, 20K: ~100 navigations per run, and more windows
    ///   than the sequence cache's 64 entries, so peak memory plateaus.
    /// * `dashboard_hot`, 10K: serves finished cuboids whose size is set
    ///   by the symbol domains, not by D; D only prices set-up.
    /// * `drill_churn`, 3K: its regime — more distinct cuboids asked for
    ///   than the repository's 128 entries hold — is reached by count of
    ///   cold paths; ~500 of them per run.
    /// * `ingest_mixed`, 5K: ~500 acknowledged batches and ~10 rebuild
    ///   fallbacks per run.
    pub fn sequences(self, smoke: bool) -> usize {
        match (smoke, self) {
            (true, _) => 2_000,
            (false, Workload::ExploreCold) => 20_000,
            (false, Workload::DashboardHot) => 10_000,
            (false, Workload::DrillChurn) => 3_000,
            (false, Workload::IngestMixed) => 5_000,
        }
    }

    /// Why the workload exists — `BENCHMARK.json` carries the same line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ExploreCold => {
                "never-repeating WHERE windows then slice+APPEND (QuerySet A): nothing is shared, so steps 1-4, CB scans and II base builds do the work and the server almost none"
            }
            Workload::DashboardHot => {
                "32 materialised cuboids drawn Zipf(0.9): every statement is a cuboid-repo hit, so the time is framing, wake-up, parse, plan, tabulate, JSON and the socket"
            }
            Workload::DrillChurn => {
                "512 roll-up/drill-down paths drawn Zipf(0.9) over one shared group set: the hot head fits the cuboid repo and index store, the tail does not"
            }
            Workload::IngestMixed => {
                "a reader looping one navigation beside a writer streaming 64-event STORE batches into a WAL-backed engine: cache carry-forward against rebuild"
            }
        }
    }
}

/// One step of a navigation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A cuboid-returning statement known in advance.
    Stmt(String),
    /// A session setting (`.strategy …`): must succeed, returns no
    /// cuboid, and is not a sample of the `stmt_*` metrics.
    Set(String),
    /// QuerySet A's "slice the cell with the highest count": one
    /// `.op slice-pattern DIM VALUE` per pattern dimension of the last
    /// answer that this navigation has not sliced yet, with the values
    /// of that answer's top row.
    SliceTop,
}

/// A navigation: its statements run in order on one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nav {
    pub steps: Vec<Step>,
}

#[derive(Debug, Clone)]
pub enum Item {
    Nav(Nav),
    /// One `STORE INTO Event VALUES …` batch of [`BATCH_EVENTS`] events.
    Store(String),
}

/// `SELECT … CUBOID BY SUBSTRING (template)` over the synthetic schema.
/// `template` is symbol names in order (`["X","Y","Y","X"]`), `level_of`
/// gives each distinct symbol's concept level.
fn select(
    window: Option<(usize, usize)>,
    template: &[&str],
    level_of: &dyn Fn(&str) -> &'static str,
    slices: &[(&str, &str)],
) -> String {
    let mut dims: Vec<&str> = Vec::new();
    let mut placeholders = Vec::new();
    for sym in template {
        if !dims.contains(sym) {
            dims.push(sym);
        }
        let nth = placeholders
            .iter()
            .filter(|p: &&String| p.starts_with(&sym.to_lowercase()))
            .count();
        placeholders.push(format!("{}{}", sym.to_lowercase(), nth + 1));
    }
    let with: Vec<String> = dims
        .iter()
        .map(|d| format!("{d} AS symbol AT {}", level_of(d)))
        .collect();
    let mut q = String::from(FROM);
    if let Some((from, to)) = window {
        q.push_str(&format!(" WHERE seq-id >= {from} AND seq-id < {to}"));
    }
    q.push_str(&format!(
        " {SEQ} CUBOID BY SUBSTRING ({}) WITH {} LEFT-MAXIMALITY ({})",
        template.join(", "),
        with.join(", "),
        placeholders.join(", ")
    ));
    for (dim, value) in slices {
        q.push_str(&format!(" SLICE PATTERN {dim} = \"{value}\""));
    }
    q
}

fn stmt(s: impl Into<String>) -> Step {
    Step::Stmt(s.into())
}

/// A seeded stream of work for one client connection.
pub struct Stream {
    next: Box<dyn FnMut() -> Item + Send>,
}

impl Stream {
    pub fn next_item(&mut self) -> Item {
        (self.next)()
    }
}

/// The stream client `client` (0 or 1) of `workload` runs. `d` is the
/// dataset's sequence count; `seed` reseeds windows, pools and draws.
pub fn stream(workload: Workload, client: u64, seed: u64, d: usize) -> Stream {
    let mut rng = Rng::lane(seed, client + 1);
    let next: Box<dyn FnMut() -> Item + Send> = match workload {
        Workload::ExploreCold => {
            // Window starts step through [0, 0.6·D) from a seeded origin
            // with a stride coprime to the range (at D = 50,000 and at
            // the smoke scale); the two clients use the two residues
            // mod 2, so no start repeats before the range is exhausted.
            let span = d * 2 / 5;
            let range = (d - span) / 2;
            let origin = rng.below(range as u64) as usize;
            let stride = 7919 % range;
            let mut serial = 0;
            Box::new(move || {
                serial += 1;
                let start = 2 * ((origin + serial * stride) % range) + client as usize;
                Item::Nav(explore_nav(start, start + span, serial % 4 == 0))
            })
        }
        Workload::DashboardHot => {
            let specs = dashboard_specs();
            let zipf = Zipf::new(specs.len(), ZIPF_THETA);
            let mut draws = Stratified::new(&mut rng);
            Box::new(move || {
                let tiles = (0..PAGE_TILES)
                    .map(|_| stmt(specs[zipf.at(draws.next_unit())].clone()))
                    .collect();
                Item::Nav(Nav { steps: tiles })
            })
        }
        Workload::DrillChurn => {
            let pool = drill_pool(DRILL_POOL_SEED);
            let zipf = Zipf::new(pool.len(), ZIPF_THETA);
            let mut draws = Stratified::new(&mut rng);
            Box::new(move || Item::Nav(pool[zipf.at(draws.next_unit())].clone()))
        }
        Workload::IngestMixed if client == 0 => {
            let nav = ingest_reader_nav();
            Box::new(move || Item::Nav(nav.clone()))
        }
        Workload::IngestMixed => {
            let symbols = Zipf::new(100, ZIPF_THETA);
            let (mut next_sid, mut batch) = (d, 0);
            Box::new(move || {
                batch += 1;
                Item::Store(store_batch(&mut rng, &symbols, &mut next_sid, batch, d))
            })
        }
    };
    Stream { next }
}

/// What runs once, untimed, before a pass: `dashboard_hot` materialises
/// its 32 cuboids (so that every timed statement is a hit); the others
/// run one navigation of their own kind to fault in code and allocator.
pub fn warm_up(workload: Workload, d: usize) -> Vec<Nav> {
    match workload {
        Workload::DashboardHot => vec![Nav {
            steps: dashboard_specs().into_iter().map(stmt).collect(),
        }],
        Workload::DrillChurn => vec![drill_pool(DRILL_POOL_SEED)[0].clone()],
        Workload::IngestMixed => vec![ingest_reader_nav()],
        Workload::ExploreCold => {
            // A window no timed navigation starts at: those starts stay
            // below 0.6·D.
            vec![explore_nav(d - d * 2 / 5, d, false)]
        }
    }
}

/// QuerySet A: `(X,Y)` over a window of 0.4·D sequences that no other
/// navigation of the run uses, then slice the top cell and APPEND, up to
/// `(X,Y,Z,A,B)`.
///
/// The analyst pins the construction strategy for the navigation — every
/// fourth one counter-based, the others inverted-index — with the session
/// command `.strategy`. Left to `auto`, the planner's cost model sits on
/// a tie for these statements and its running averages tip it back and
/// forth: between 3 % and 74 % of a run's answers came via CB, at twice
/// the cost per navigation, and every metric of the workload came out
/// bimodal. Pinned, both paths do a fixed share of the work. (One in
/// four, not one in three: a `SELECT` is one statement in eight, and with
/// every third of them the slower counter-based kind, `stmt_p95_ms` sat
/// on the edge between the two kinds of `SELECT`.)
fn explore_nav(from: usize, to: usize, counter_based: bool) -> Nav {
    let symbol = |_: &str| LEVELS[0];
    let strategy = if counter_based { "cb" } else { "ii" };
    let mut steps = vec![
        Step::Set(format!(".strategy {strategy}")),
        stmt(select(Some((from, to)), &["X", "Y"], &symbol, &[])),
    ];
    for fresh in ["Z", "A", "B"] {
        steps.push(Step::SliceTop);
        steps.push(stmt(format!(".op append {fresh} symbol symbol")));
    }
    Nav { steps }
}

/// The 32 dashboard tiles: `(X,Y)` and `(X,Y,Z)` at the three levels,
/// with and without a slice on X; 5 to 10⁴ cells each. The list is fixed
/// (the seed only reorders draws), and its order — which is the Zipf
/// rank — interleaves small and large cuboids.
pub fn dashboard_specs() -> Vec<String> {
    let xy = ["X", "Y"];
    let xyz = ["X", "Y", "Z"];
    let mut specs = Vec::new();
    let mut push = |template: &[&str], level: usize, slice: Option<String>| {
        let level_of = |_: &str| LEVELS[level];
        let slices: Vec<(&str, &str)> = slice.iter().map(|v| ("X", v.as_str())).collect();
        specs.push(select(None, template, &level_of, &slices));
    };
    for level in 0..3 {
        push(&xy, level, None);
    }
    push(&xyz, 1, None);
    push(&xyz, 2, None);
    for s in 0..6 {
        push(&xy, 0, Some(format!("s{s:03}")));
    }
    for s in 0..4 {
        push(&xyz, 0, Some(format!("s{s:03}")));
    }
    for g in 0..6 {
        push(&xyz, 1, Some(format!("g{g:02}")));
    }
    for g in 0..5 {
        push(&xy, 1, Some(format!("g{g:02}")));
    }
    for u in 0..5 {
        push(&xyz, 2, Some(format!("u{u}")));
    }
    push(&xy, 2, Some("u0".to_owned()));
    assert_eq!(specs.len(), DASHBOARD_SPECS);
    // 13 is coprime to 32: a fixed permutation that spreads the sizes
    // over the ranks.
    (0..DASHBOARD_SPECS)
        .map(|rank| specs[rank * 13 % DASHBOARD_SPECS].clone())
        .collect()
}

/// QuerySet B/C paths with no `WHERE`: a `(X,Y)` or `(X,Y,Y,X)` start at
/// a seeded level, then 3–5 of P-ROLL-UP, P-DRILL-DOWN, DE-TAIL, DE-HEAD
/// and PREPEND, each valid where it is applied. 512 distinct paths.
pub fn drill_pool(seed: u64) -> Vec<Nav> {
    let mut rng = Rng::lane(seed, 0);
    let mut pool: Vec<Nav> = Vec::with_capacity(DRILL_PATHS);
    while pool.len() < DRILL_PATHS {
        let nav = drill_path(&mut rng);
        if !pool.contains(&nav) {
            pool.push(nav);
        }
    }
    pool
}

fn drill_path(rng: &mut Rng) -> Nav {
    let mut template: Vec<&'static str> = if rng.below(2) == 0 {
        vec!["X", "Y"]
    } else {
        vec!["X", "Y", "Y", "X"]
    };
    // Concept level of each symbol that is or was in the template.
    let start_level = rng.below(3) as usize;
    let mut levels: Vec<(&'static str, usize)> = vec![("X", start_level), ("Y", start_level)];
    // The most cells the template's cuboid can have: the product of its
    // dimensions' domain sizes. Kept within 10⁴ — the dashboard's largest
    // tile — because one 10⁵-cell cuboid costs as much as a hundred
    // others and would make a run's numbers the luck of drawing it.
    const DOMAIN: [usize; 3] = [100, 20, 5];
    let cells = |template: &[&str], levels: &[(&str, usize)]| -> usize {
        levels
            .iter()
            .filter(|(s, _)| template.contains(s))
            .map(|(_, level)| DOMAIN[*level])
            .product()
    };
    let mut steps = vec![stmt(select(
        None,
        &template,
        &|s| {
            LEVELS[levels
                .iter()
                .find(|(l, _)| *l == s)
                .expect("bound symbol")
                .1]
        },
        &[],
    ))];
    let ops = 3 + rng.below(3);
    let mut fresh = ["W", "V", "U", "T", "S"].into_iter();
    while (steps.len() as u64) <= ops {
        let dim = template[rng.below(template.len() as u64) as usize];
        let at = levels
            .iter()
            .position(|(s, _)| *s == dim)
            .expect("bound symbol");
        match rng.below(5) {
            0 if levels[at].1 < 2 => {
                levels[at].1 += 1;
                steps.push(stmt(format!(".op prollup {dim}")));
            }
            1 if levels[at].1 > 0 => {
                levels[at].1 -= 1;
                if cells(&template, &levels) > 10_000 {
                    levels[at].1 += 1;
                    continue;
                }
                steps.push(stmt(format!(".op pdrilldown {dim}")));
            }
            2 if template.len() > 2 => {
                template.pop();
                steps.push(stmt(".op detail"));
            }
            3 if template.len() > 2 => {
                template.remove(0);
                steps.push(stmt(".op dehead"));
            }
            4 if template.len() < 4 => {
                let level = 1 + rng.below(2) as usize;
                if cells(&template, &levels) * DOMAIN[level] > 10_000 {
                    continue;
                }
                let sym = fresh.next().expect("at most five prepends per path");
                levels.push((sym, level));
                template.insert(0, sym);
                steps.push(stmt(format!(".op prepend {sym} symbol {}", LEVELS[level])));
            }
            _ => {} // not valid here: draw again
        }
    }
    Nav { steps }
}

/// The reader of `ingest_mixed`: `explore_cold`'s eight statements over
/// the whole dataset (no `WHERE`, so one group set that every batch
/// extends), on the inverted-index path whose indices the store path
/// carries forward, looped while the data grows under them.
pub fn ingest_reader_nav() -> Nav {
    let symbol = |_: &str| LEVELS[0];
    let mut steps = vec![
        Step::Set(".strategy ii".to_owned()),
        stmt(select(None, &["X", "Y"], &symbol, &[])),
    ];
    for fresh in ["Z", "A", "B"] {
        steps.push(Step::SliceTop);
        steps.push(stmt(format!(".op append {fresh} symbol symbol")));
    }
    Nav { steps }
}

/// One batch: four new 16-event sequences — or, every
/// [`EXISTING_CLUSTER_EVERY`]th batch, 64 more events for one existing
/// (seeded) sequence, which no cached group set can be extended over.
fn store_batch(
    rng: &mut Rng,
    symbols: &Zipf,
    next_sid: &mut usize,
    batch: usize,
    d: usize,
) -> String {
    let mut rows = Vec::with_capacity(BATCH_EVENTS);
    let symbol = |rng: &mut Rng| format!("s{:03}", symbols.sample(rng));
    if batch.is_multiple_of(EXISTING_CLUSTER_EVERY) {
        let sid = rng.below(d as u64);
        // Past any generated position (Poisson, mean 20), in batch order.
        let base = 1_000 + batch * BATCH_EVENTS;
        for pos in 0..BATCH_EVENTS {
            rows.push(format!("({sid}, {}, \"{}\")", base + pos, symbol(rng)));
        }
    } else {
        for _ in 0..4 {
            for pos in 0..BATCH_EVENTS / 4 {
                rows.push(format!("({next_sid}, {pos}, \"{}\")", symbol(rng)));
            }
            *next_sid += 1;
        }
    }
    format!("STORE INTO Event VALUES {}", rows.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_stmt(nav: &Nav) -> &str {
        nav.steps
            .iter()
            .find_map(|s| match s {
                Step::Stmt(s) => Some(s.as_str()),
                _ => None,
            })
            .expect("a navigation has a SELECT")
    }

    #[test]
    fn same_seed_same_statements_other_seed_other() {
        for w in Workload::ALL {
            for client in 0..2 {
                let draw = |seed| {
                    let mut s = stream(w, client, seed, 2000);
                    (0..20)
                        .map(|_| format!("{:?}", s.next_item()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(draw(42), draw(42), "{w:?}");
                if (w, client) != (Workload::IngestMixed, 0) {
                    assert_ne!(draw(42), draw(7), "{w:?}");
                }
            }
        }
    }

    #[test]
    fn explore_windows_never_repeat_and_stay_in_range() {
        let d = 2000;
        let mut seen = std::collections::HashSet::new();
        for client in 0..2 {
            let mut s = stream(Workload::ExploreCold, client, 42, d);
            for _ in 0..250 {
                let Item::Nav(nav) = s.next_item() else {
                    panic!()
                };
                let q = first_stmt(&nav).to_owned();
                let to: usize = q
                    .split("seq-id < ")
                    .nth(1)
                    .and_then(|t| t.split(' ').next())
                    .and_then(|t| t.parse().ok())
                    .expect("window end");
                assert!(to <= d, "{q}");
                assert!(seen.insert(q), "window repeated");
            }
        }
    }

    #[test]
    fn pools_are_distinct_and_shaped() {
        let specs = dashboard_specs();
        let distinct: std::collections::HashSet<_> = specs.iter().collect();
        assert_eq!(distinct.len(), 32);
        let pool = drill_pool(42);
        assert_eq!(pool.len(), 512);
        assert!(pool.iter().all(|n| (4..=6).contains(&n.steps.len())));
        assert!(first_stmt(&pool[0]).contains("CUBOID BY SUBSTRING (X, Y"));
        let q = select(None, &["X", "Y", "Y", "X"], &|_| "group", &[("X", "g00")]);
        assert!(q.ends_with(
            "CUBOID BY SUBSTRING (X, Y, Y, X) WITH X AS symbol AT group, Y AS symbol AT group \
             LEFT-MAXIMALITY (x1, y1, y2, x2) SLICE PATTERN X = \"g00\""
        ));
    }

    #[test]
    fn store_batches_have_64_events() {
        let mut s = stream(Workload::IngestMixed, 1, 42, 2000);
        let mut existing = 0;
        for _ in 0..200 {
            let Item::Store(t) = s.next_item() else {
                panic!()
            };
            assert_eq!(t.matches('(').count(), BATCH_EVENTS);
            let sid: usize = t
                .split(['(', ','].as_slice())
                .nth(1)
                .unwrap()
                .parse()
                .unwrap();
            existing += usize::from(sid < 2000);
        }
        assert!(existing > 0);
    }
}
