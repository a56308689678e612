//! Regex-template S-cuboids — the counting surface for the §3.2 extension.
//!
//! The paper sketches extending pattern templates to regular expressions;
//! `solap-pattern::regex` implements the template model and matcher, and
//! this module runs COUNT cuboids over sequence groups with them
//! (counter-based strategy; regex templates have no inverted-index
//! equivalent in the paper and none is invented here). Statements reach
//! it through [`crate::Engine::execute_regex_configured`], under the
//! session's governor.

use solap_eventdb::{EventDb, QueryGovernor, Result, SequenceGroups};
use solap_pattern::{
    AggValue, CellCodec, CellMapBuilder, CellRestriction, RegexMatcher, RegexTemplate,
};

use crate::cuboid::SCuboid;
use crate::stats::ScanMeter;

/// Computes the COUNT S-cuboid of a regex template over sequence groups
/// (global dimensions come from the groups; every group is scanned) under
/// a [`QueryGovernor`]: the backtracking walk ticks per node (regex
/// templates are the paper's explosive-match-count case) and each new
/// cell is charged against the budget.
pub fn regex_cuboid_governed(
    db: &EventDb,
    groups: &SequenceGroups,
    template: &RegexTemplate,
    restriction: CellRestriction,
    meter: &mut ScanMeter,
    gov: &QueryGovernor,
) -> Result<SCuboid> {
    let matcher = RegexMatcher::new(db, template).with_governor(gov);
    let codec = CellCodec::new(db, &template.dims);
    let mut cuboid = SCuboid::new(
        groups.global_dims.clone(),
        template.dims.clone(),
        solap_pattern::AggFunc::Count,
    );
    for group in &groups.groups {
        gov.check_now()?;
        let mut counts: std::collections::HashMap<Vec<u64>, u64> = std::collections::HashMap::new();
        for seq in &group.sequences {
            meter.touch(seq.sid);
            for (cell, c) in matcher.count_cells(seq, restriction)? {
                match counts.entry(cell) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        gov.charge_cells(1)?;
                        e.insert(c);
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => *e.get_mut() += c,
                }
            }
        }
        let mut cells = CellMapBuilder::new(codec.clone());
        cells.reserve(counts.len());
        for (cell, c) in counts {
            cells.push(&cell, AggValue::Count(c));
        }
        cuboid.insert_group(&group.key, cells.build(|_, _| {}));
    }
    Ok(cuboid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{
        build_sequence_groups, AttrLevel, ColumnType, EventDbBuilder, Pred, SeqQuerySpec, SortKey,
        Value,
    };
    use solap_pattern::{PatternDim, RegexElem};

    fn db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("sid", ColumnType::Int)
            .dimension("pos", ColumnType::Int)
            .dimension("station", ColumnType::Str)
            .build()
            .unwrap();
        let seqs: [&[&str]; 3] = [
            &["P", "W", "Q", "W", "P"],
            &["P", "W", "W", "P"],
            &["W", "P"],
        ];
        for (sid, stations) in seqs.iter().enumerate() {
            for (i, st) in stations.iter().enumerate() {
                db.push_row(&[
                    Value::Int(sid as i64),
                    Value::Int(i as i64),
                    Value::from(*st),
                ])
                .unwrap();
            }
        }
        db
    }

    fn groups(db: &EventDb) -> SequenceGroups {
        build_sequence_groups(
            db,
            &SeqQuerySpec {
                filter: Pred::True,
                cluster_by: vec![AttrLevel::new(0, 0)],
                sequence_by: vec![SortKey {
                    attr: 1,
                    ascending: true,
                }],
                group_by: vec![],
            },
        )
        .unwrap()
    }

    #[test]
    fn round_trip_with_layovers_cuboid() {
        let db = db();
        let g = groups(&db);
        // (X, Y, .*, Y, X): round trips allowing intermediate activity.
        let t = RegexTemplate::new(
            vec![
                PatternDim {
                    name: "X".into(),
                    attr: 2,
                    level: 0,
                },
                PatternDim {
                    name: "Y".into(),
                    attr: 2,
                    level: 0,
                },
            ],
            vec![
                RegexElem::One(0),
                RegexElem::One(1),
                RegexElem::Gap,
                RegexElem::One(1),
                RegexElem::One(0),
            ],
        )
        .unwrap();
        let mut meter = ScanMeter::new();
        let c = regex_cuboid_governed(
            &db,
            &g,
            &t,
            CellRestriction::LeftMaximalityMatchedGo,
            &mut meter,
            &QueryGovernor::unbounded(),
        )
        .unwrap();
        let p = db.parse_level_value(2, 0, "P").unwrap();
        let w = db.parse_level_value(2, 0, "W").unwrap();
        assert_eq!(c.get(&[], &[p, w]).and_then(|v| v.as_count()), Some(2));
        assert_eq!(meter.count(), 3, "regex cuboids scan every sequence");
    }
}
