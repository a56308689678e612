//! Iceberg S-cuboids (§6 "Performance"): drop low-support cells.
//!
//! "Many S-cuboid cells are often sparsely distributed within the S-cuboid
//! space … introducing an iceberg condition (i.e., a minimum support
//! threshold) to filter out cells with low-support count would increase
//! both S-OLAP performance and usability as well as reduce space."
//!
//! The threshold applies to COUNT cuboids; other aggregates pass through
//! unchanged (their supports are not counts).

use crate::cuboid::SCuboid;

/// Applies the iceberg condition in place: cells with `COUNT < min_support`
/// are removed. Returns the number of cells dropped.
pub fn apply_min_support(cuboid: &mut SCuboid, min_support: u64) -> usize {
    let before = cuboid.len();
    cuboid.cells_mut().retain(|_, v| match v.as_count() {
        Some(c) => c >= min_support,
        None => true,
    });
    before - cuboid.len()
}

/// Suggests a minimum support that keeps roughly the top `fraction` of the
/// cuboid's probability mass (a pragmatic answer to the paper's "how to
/// determine the minimum support threshold is … always an interesting but
/// difficult question"): the largest threshold `t` such that cells with
/// count ≥ `t` still cover at least `fraction` of the total count.
pub fn suggest_min_support(cuboid: &SCuboid, fraction: f64) -> u64 {
    let mut counts: Vec<u64> = cuboid
        .cells()
        .values()
        .filter_map(|v| v.as_count())
        .collect();
    if counts.is_empty() {
        return 0;
    }
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = counts.iter().sum();
    let target = (total as f64 * fraction.clamp(0.0, 1.0)).ceil() as u64;
    let mut acc = 0u64;
    let mut threshold = 0u64;
    for &c in &counts {
        acc += c;
        threshold = c;
        if acc >= target {
            break;
        }
    }
    threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuboid::CellKey;
    use solap_pattern::{AggFunc, AggValue};

    fn cuboid(counts: &[u64]) -> SCuboid {
        let mut c = SCuboid::new(vec![], vec![], AggFunc::Count);
        for (i, &n) in counts.iter().enumerate() {
            c.cells_mut().insert(
                CellKey {
                    global: vec![],
                    pattern: vec![i as u64],
                },
                AggValue::Count(n),
            );
        }
        c
    }

    #[test]
    fn filters_below_threshold() {
        let mut c = cuboid(&[1, 5, 10, 2]);
        let dropped = apply_min_support(&mut c, 5);
        assert_eq!(dropped, 2);
        assert_eq!(c.len(), 2);
        assert!(c.get(&[], &[2]).is_some());
        assert!(c.get(&[], &[0]).is_none());
    }

    #[test]
    fn non_count_values_survive() {
        let mut c = cuboid(&[]);
        c.cells_mut().insert(
            CellKey {
                global: vec![],
                pattern: vec![0],
            },
            AggValue::Float(0.5),
        );
        assert_eq!(apply_min_support(&mut c, 100), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn suggestion_covers_mass() {
        let c = cuboid(&[100, 50, 10, 5, 1]);
        // Top 100+50 = 150 of 166 ≈ 90%; suggesting 0.9 keeps threshold 50.
        assert_eq!(suggest_min_support(&c, 0.9), 50);
        assert_eq!(suggest_min_support(&c, 1.0), 1);
        assert_eq!(suggest_min_support(&cuboid(&[]), 0.5), 0);
    }
}
