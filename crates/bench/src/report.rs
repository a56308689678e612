//! Plain-text tables in the shape the paper reports.

use std::time::Duration;

use crate::runner::RunReport;

fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1000.0)
}

/// Formats a CB-vs-II comparison in the layout of Table 1: one row per
/// query, both approaches side by side.
pub fn format_comparison(cb: &RunReport, ii: &RunReport) -> String {
    assert_eq!(cb.steps.len(), ii.steps.len(), "mismatched runs");
    let mut out = String::new();
    out.push_str(&format!("{}\n", cb.name));
    out.push_str(&format!(
        "  {:<6} | {:>12} {:>12} | {:>12} {:>12} {:>12}\n",
        "", "CB run(ms)", "CB scanned", "II run(ms)", "II scanned", "II idx(MB)"
    ));
    for (a, b) in cb.steps.iter().zip(&ii.steps) {
        out.push_str(&format!(
            "  {:<6} | {:>12} {:>12} | {:>12} {:>12} {:>12.3}\n",
            a.label,
            ms(a.runtime),
            a.scanned,
            ms(b.runtime),
            b.scanned,
            b.index_bytes as f64 / 1e6
        ));
    }
    out.push_str(&format!(
        "  {:<6} | {:>12} {:>12} | {:>12} {:>12} {:>12.3}\n",
        "Σ",
        ms(cb.total_runtime()),
        cb.cumulative_scanned().last().copied().unwrap_or(0),
        ms(ii.total_runtime()),
        ii.cumulative_scanned().last().copied().unwrap_or(0),
        ii.total_index_bytes() as f64 / 1e6
    ));
    if let Some((t, bytes)) = ii.precompute {
        out.push_str(&format!(
            "  (II precompute: {} ms, {:.3} MB)\n",
            ms(t),
            bytes as f64 / 1e6
        ));
    }
    out
}

/// Formats a Figure-16-style cumulative series: one line per query with
/// the cumulative runtime and the bracketed cumulative-scans annotation.
pub fn format_cumulative(r: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("  {} ({}):\n", r.config, r.name));
    let times = r.cumulative_runtime();
    let scans = r.cumulative_scanned();
    for ((s, t), n) in r.steps.iter().zip(&times).zip(&scans) {
        out.push_str(&format!(
            "    {:<6} cum-runtime {:>10} ms  (cum-scanned {})\n",
            s.label,
            ms(*t),
            n
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::StepReport;

    fn fake_run(label: &str) -> RunReport {
        RunReport {
            name: "Demo".into(),
            config: label.into(),
            steps: vec![
                StepReport {
                    label: "Q1".into(),
                    runtime: Duration::from_millis(10),
                    scanned: 100,
                    cells: 5,
                    index_bytes: 1000,
                    strategy: "II",
                    profile: Some(solap_eventdb::QueryProfile::default()),
                    cuboid: None,
                },
                StepReport {
                    label: "Q2".into(),
                    runtime: Duration::from_millis(5),
                    scanned: 20,
                    cells: 3,
                    index_bytes: 0,
                    strategy: "II",
                    profile: None,
                    cuboid: None,
                },
            ],
            precompute: Some((Duration::from_millis(2), 5000)),
        }
    }

    #[test]
    fn comparison_pairs_rows() {
        let s = format_comparison(&fake_run("CB"), &fake_run("II"));
        assert!(s.contains("CB run(ms)"));
        assert!(s.contains("II scanned"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn cumulative_is_monotone_in_output() {
        let s = format_cumulative(&fake_run("II"));
        assert!(s.contains("cum-runtime"));
        assert!(s.contains("(cum-scanned 120)"));
    }
}
