//! Argument parsing shared by every statement surface: `k=v` option
//! lists, the `.op` sub-language that maps onto [`solap_core::Op`], and
//! the dataset generators behind `.gen` / `solap-serve --gen`.
//!
//! This lived in the CLI crate until the server grew a second statement
//! surface; it moved here so the REPL, `--eval` scripts and the wire
//! protocol resolve operations identically.

use std::collections::HashMap;

use solap_core::{Op, SCuboidSpec};
use solap_datagen::{ClickstreamConfig, SyntheticConfig, TransitConfig};
use solap_eventdb::EventDb;

/// A failed argument parse: either a usage mistake or a typed engine
/// error (unknown attribute, bad literal, …) whose stable
/// [`code()`](solap_eventdb::Error::code) is worth preserving on the wire.
#[derive(Debug)]
pub enum ArgError {
    /// The arguments did not fit the command's grammar.
    Usage(String),
    /// Resolution against the schema or spec failed.
    Engine(solap_eventdb::Error),
}

impl ArgError {
    /// The stable machine-readable code for this failure.
    pub fn code(&self) -> &'static str {
        match self {
            ArgError::Usage(_) => "usage",
            ArgError::Engine(e) => e.code(),
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> String {
        match self {
            ArgError::Usage(m) => m.clone(),
            ArgError::Engine(e) => e.to_string(),
        }
    }
}

impl From<solap_eventdb::Error> for ArgError {
    fn from(e: solap_eventdb::Error) -> Self {
        ArgError::Engine(e)
    }
}

fn usage(msg: impl Into<String>) -> ArgError {
    ArgError::Usage(msg.into())
}

/// Parses `key=value` arguments.
pub fn parse_kv(args: &[&str]) -> Result<HashMap<String, String>, ArgError> {
    let mut out = HashMap::new();
    for a in args {
        let (k, v) = a
            .split_once('=')
            .ok_or_else(|| usage(format!("expected key=value, got `{a}`")))?;
        if k.is_empty() || v.is_empty() {
            return Err(usage(format!("expected key=value, got `{a}`")));
        }
        out.insert(k.to_owned(), v.to_owned());
    }
    Ok(out)
}

/// Parses a `.op …` invocation into an [`Op`], resolving attribute and
/// level names (and slice values) against the schema and the current spec.
pub fn parse_op(
    db: &EventDb,
    args: &[&str],
    current: Option<&SCuboidSpec>,
) -> Result<Op, ArgError> {
    let op_usage = || {
        usage(
            "usage: .op append|prepend|detail|dehead|prollup|pdrilldown|rollup|drilldown|\
             slice-pattern|slice-group|minsup …",
        )
    };
    let op = args.first().copied().ok_or_else(op_usage)?;
    let arg = |i: usize| -> Result<&str, ArgError> {
        args.get(i)
            .copied()
            .ok_or_else(|| usage(format!("`.op {op}` needs more arguments")))
    };
    let attr_level = |attr_name: &str, level_name: &str| -> Result<(u32, usize), ArgError> {
        let attr = db.attr(attr_name)?;
        let level = db.level_by_name(attr, level_name)?;
        Ok((attr, level))
    };
    match op {
        "append" | "prepend" => {
            let symbol = arg(1)?.to_owned();
            // If the symbol exists in the current template, reuse its
            // binding; otherwise ATTR and LEVEL are required.
            let existing = current.and_then(|s| {
                s.template
                    .dims
                    .iter()
                    .find(|d| d.name == symbol)
                    .map(|d| (d.attr, d.level))
            });
            let (attr, level) = match (existing, args.len()) {
                (Some(b), 2) => b,
                _ => attr_level(arg(2)?, arg(3)?)?,
            };
            Ok(if op == "append" {
                Op::Append {
                    symbol,
                    attr,
                    level,
                }
            } else {
                Op::Prepend {
                    symbol,
                    attr,
                    level,
                }
            })
        }
        "detail" => Ok(Op::DeTail),
        "dehead" => Ok(Op::DeHead),
        "prollup" => Ok(Op::PRollUp {
            dim: arg(1)?.to_owned(),
        }),
        "pdrilldown" => Ok(Op::PDrillDown {
            dim: arg(1)?.to_owned(),
        }),
        "rollup" => {
            let attr = db.attr(arg(1)?)?;
            Ok(Op::RollUp { attr })
        }
        "drilldown" => {
            let attr = db.attr(arg(1)?)?;
            Ok(Op::DrillDown { attr })
        }
        "slice-pattern" => {
            let dim_name = arg(1)?.to_owned();
            let spec = current.ok_or_else(|| usage("no current query"))?;
            let dim = spec
                .template
                .dims
                .iter()
                .find(|d| d.name == dim_name)
                .ok_or_else(|| usage(format!("no pattern dimension `{dim_name}`")))?;
            let value = db.parse_level_value(dim.attr, dim.level, arg(2)?)?;
            Ok(Op::SlicePattern {
                dim: dim_name,
                value,
            })
        }
        "slice-group" => {
            let idx: usize = arg(1)?
                .parse()
                .map_err(|_| usage("slice-group needs a dimension index"))?;
            let spec = current.ok_or_else(|| usage("no current query"))?;
            let al = spec
                .seq
                .group_by
                .get(idx)
                .ok_or_else(|| usage(format!("no global dimension #{idx}")))?;
            let value = db.parse_level_value(al.attr, al.level, arg(2)?)?;
            Ok(Op::SliceGlobal { dim: idx, value })
        }
        "minsup" => {
            let v = arg(1)?;
            if v == "off" {
                Ok(Op::SetMinSupport(None))
            } else {
                let n: u64 = v
                    .parse()
                    .map_err(|_| usage("minsup needs a number or `off`"))?;
                Ok(Op::SetMinSupport(Some(n)))
            }
        }
        _ => Err(op_usage()),
    }
}

/// Builds a dataset from a generator name and `k=v` options — the engine
/// bootstrap shared by the REPL's `.gen` and `solap-serve --gen`.
pub fn generate(kind: &str, kv: &HashMap<String, String>) -> Result<EventDb, ArgError> {
    let get_usize = |key: &str, default: usize| -> Result<usize, ArgError> {
        match kv.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("bad integer for {key}: {v}"))),
            None => Ok(default),
        }
    };
    let get_f64 = |key: &str, default: f64| -> Result<f64, ArgError> {
        match kv.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("bad number for {key}: {v}"))),
            None => Ok(default),
        }
    };
    match kind {
        "transit" => {
            let cfg = TransitConfig {
                passengers: get_usize("passengers", 500)?,
                days: get_usize("days", 7)?,
                stations: get_usize("stations", 12)?,
                districts: get_usize("districts", 4)?,
                round_trip_rate: get_f64("round_trip_rate", 0.45)?,
                extra_trips: get_f64("extra_trips", 0.8)?,
                seed: get_usize("seed", 1)? as u64,
                ..Default::default()
            };
            Ok(solap_datagen::generate_transit(&cfg)?)
        }
        "clickstream" => {
            let cfg = ClickstreamConfig {
                sessions: get_usize("sessions", 20_000)?,
                seed: get_usize("seed", 2000)? as u64,
                ..Default::default()
            };
            Ok(solap_datagen::generate_clickstream(&cfg)?)
        }
        "synthetic" => {
            let cfg = SyntheticConfig {
                i: get_usize("i", 100)?,
                l: get_f64("l", 20.0)?,
                theta: get_f64("theta", 0.9)?,
                d: get_usize("d", 10_000)?,
                seed: get_usize("seed", 1)? as u64,
                hierarchy: true,
            };
            Ok(solap_datagen::generate_synthetic(&cfg)?)
        }
        other => Err(usage(format!(
            "unknown generator `{other}` — transit|clickstream|synthetic"
        ))),
    }
}

/// The statement-surface help text (`.help`), shared by the REPL and the
/// wire protocol. Commands marked *local* are rejected over the wire.
pub fn help_text() -> &'static str {
    "commands:
  .gen transit|clickstream|synthetic [k=v ...]   generate a dataset (local)
  .save PATH | .load PATH                        persist / restore the event db (local)
  .schema                                        show columns and hierarchies
  .strategy cb|ii|auto                           pick the construction approach (this session)
  .threads N                                     worker threads for construction (1 = sequential)
  .timeout MS                                    per-query deadline in milliseconds (0 = off)
  .budget CELLS                                  per-query cuboid-cell budget (0 = off)
  .op append SYM [ATTR LEVEL] | prepend SYM [ATTR LEVEL]
  .op detail | dehead | prollup DIM | pdrilldown DIM
  .op rollup ATTR | drilldown ATTR
  .op slice-pattern DIM VALUE | slice-group IDX VALUE | minsup N|off
  .back            step back to the previous cuboid in this session
  .show [n]        re-tabulate the current cuboid
  .spec            print the current query text
  .stats           cache entries, bytes, versions held, hits, evictions
  .profile on|off  print each query's per-stage profile (always recorded)
  .metrics         process-wide cumulative engine metrics
  .history         operations applied so far
  .quit
anything else is parsed as an S-cuboid query; end it with `;`
prefix a query with EXPLAIN to see its plan, or PROFILE to run it and see counters
STORE INTO Event VALUES (v, ...), (v, ...);  appends events through the store path
(CUBOID BY REGEX (X, Y+, .*, X) runs a regex template through the engine, governed
 like any query; it has one construction path (CB), so PROFILE works and EXPLAIN does not)
(multi-line input: keep typing, the query runs at the `;`)
"
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{ColumnType, EventDbBuilder, Value};

    fn db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("sid", ColumnType::Int)
            .dimension("location", ColumnType::Str)
            .build()
            .unwrap();
        db.push_row(&[Value::Int(0), Value::from("Pentagon")])
            .unwrap();
        db.set_base_level_name(1, "station");
        db
    }

    #[test]
    fn kv_parsing() {
        let kv = parse_kv(&["a=1", "b=x"]).unwrap();
        assert_eq!(kv["a"], "1");
        assert_eq!(kv["b"], "x");
        assert!(parse_kv(&["oops"]).is_err());
        assert!(parse_kv(&["=v"]).is_err());
        assert!(parse_kv(&[]).unwrap().is_empty());
    }

    #[test]
    fn op_parsing() {
        let db = db();
        assert!(matches!(
            parse_op(&db, &["append", "Z", "location", "station"], None).unwrap(),
            Op::Append { .. }
        ));
        assert!(matches!(
            parse_op(&db, &["detail"], None).unwrap(),
            Op::DeTail
        ));
        assert!(matches!(
            parse_op(&db, &["dehead"], None).unwrap(),
            Op::DeHead
        ));
        assert!(matches!(
            parse_op(&db, &["prollup", "X"], None).unwrap(),
            Op::PRollUp { .. }
        ));
        assert!(matches!(
            parse_op(&db, &["rollup", "location"], None).unwrap(),
            Op::RollUp { .. }
        ));
        assert!(matches!(
            parse_op(&db, &["minsup", "5"], None).unwrap(),
            Op::SetMinSupport(Some(5))
        ));
        assert!(matches!(
            parse_op(&db, &["minsup", "off"], None).unwrap(),
            Op::SetMinSupport(None)
        ));
        assert!(
            parse_op(&db, &["append", "Z"], None).is_err(),
            "new symbol needs a binding"
        );
        assert!(parse_op(&db, &["warp"], None).is_err());
        assert!(parse_op(&db, &[], None).is_err());
        assert!(parse_op(&db, &["rollup", "bogus"], None).is_err());
    }

    #[test]
    fn arg_errors_carry_codes() {
        let db = db();
        let err = parse_op(&db, &["rollup", "bogus"], None).unwrap_err();
        assert_eq!(err.code(), "unknown_attribute");
        let err = parse_op(&db, &["warp"], None).unwrap_err();
        assert_eq!(err.code(), "usage");
        assert_eq!(
            generate("warp", &HashMap::new()).unwrap_err().code(),
            "usage"
        );
    }
}
