//! `BENCHMARK.json`: read by every run (which metrics each pass prints,
//! how long it measures, what the bounds are), written by `calibrate`.

use crate::json::Json;
use crate::metrics::{lookup, Def, LAYER, NOT_ON_EVERY_WORKLOAD, WIRE};
use crate::workload::Workload;

/// At the root of the repo; runs start there.
pub const PATH: &str = "BENCHMARK.json";

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// Gated metrics with the share of the parent's median by which each
    /// may get worse.
    pub end_to_end: Vec<(Def, f64)>,
    pub per_layer: Vec<Def>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string(PATH)
            .map_err(|e| format!("{PATH}: {e} (run from the root of the repository)"))?;
        let json = Json::parse(&text).map_err(|e| format!("{PATH}: {e}"))?;
        let list = |key: &str| -> Result<Vec<(Def, Option<f64>)>, String> {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("{PATH}: no `{key}` list"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default();
                    let def = lookup(field("name"))
                        .ok_or(format!("{PATH}: unknown metric `{}`", field("name")))?;
                    if (field("unit"), field("better")) != (def.1, def.2) {
                        return Err(format!(
                            "{PATH}: `{}` is in {} and better {}",
                            def.0, def.1, def.2
                        ));
                    }
                    Ok((def, m.get("bound").and_then(Json::as_f64)))
                })
                .collect()
        };
        let end_to_end = list("end_to_end")?
            .into_iter()
            .map(|(def, bound)| {
                bound
                    .map(|b| (def, b))
                    .ok_or(format!("{PATH}: `{}` has no bound", def.0))
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or(format!("{PATH}: no `run_seconds`"))?,
            end_to_end,
            per_layer: list("per_layer")?.into_iter().map(|(def, _)| def).collect(),
        })
    }

    /// The metrics a pass prints.
    pub fn listed(&self, trace: bool) -> Vec<Def> {
        if trace {
            self.per_layer.clone()
        } else {
            self.end_to_end.iter().map(|(def, _)| *def).collect()
        }
    }

    /// The whole file, with exactly the contract's keys.
    pub fn to_json(&self) -> Json {
        let s = |v: &str| Json::Str(v.to_owned());
        let metric = |def: &Def, bound: Option<f64>| {
            let mut m = vec![
                ("name".to_owned(), s(def.0)),
                ("unit".to_owned(), s(def.1)),
                ("better".to_owned(), s(def.2)),
            ];
            if let Some(b) = bound {
                m.push(("bound".to_owned(), Json::Num(b)));
            }
            Json::Obj(m)
        };
        let command = [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ];
        Json::Obj(vec![
            (
                "command".to_owned(),
                Json::Arr(command.iter().map(|c| s(c)).collect()),
            ),
            ("paths".to_owned(), Json::Arr(vec![s("benchmark")])),
            ("run_seconds".to_owned(), Json::Num(self.run_seconds)),
            (
                "workloads".to_owned(),
                Json::Arr(
                    Workload::ALL
                        .iter()
                        .map(|w| {
                            Json::Obj(vec![
                                ("name".to_owned(), s(w.name())),
                                ("why".to_owned(), s(w.why())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end".to_owned(),
                Json::Arr(
                    self.end_to_end
                        .iter()
                        .map(|(d, b)| metric(d, Some(*b)))
                        .collect(),
                ),
            ),
            (
                "per_layer".to_owned(),
                Json::Arr(self.per_layer.iter().map(|d| metric(d, None)).collect()),
            ),
        ])
    }

    /// `gated` with their bounds; unbounded, every other wire metric and
    /// every layer metric that all four workloads produce.
    pub fn new(run_seconds: f64, gated: Vec<(Def, f64)>) -> Spec {
        let per_layer = WIRE
            .iter()
            .chain(&LAYER)
            .filter(|m| !gated.iter().any(|(g, _)| g.0 == m.0))
            .filter(|m| !NOT_ON_EVERY_WORKLOAD.contains(&m.0))
            .copied()
            .collect();
        Spec {
            run_seconds,
            end_to_end: gated,
            per_layer,
        }
    }
}
