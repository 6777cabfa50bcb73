//! Plain-text rendering of experiment results in the paper's layout.

use crate::experiments::{Figure1Report, SweepPoint};

/// Renders the Figure 1 motivational comparison.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), thermsched::ScheduleError> {
/// let report = thermsched::experiments::figure1()?;
/// let text = thermsched::report::render_figure1(&report);
/// assert!(text.contains("TS1"));
/// # Ok(())
/// # }
/// ```
pub fn render_figure1(report: &Figure1Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 1 — equal-power sessions under a {:.0} W chip-level budget\n",
        report.power_limit
    ));
    out.push_str("session  cores              power[W]  max temp[C]\n");
    for s in &report.sessions {
        out.push_str(&format!(
            "{:<8} {:<18} {:>8.1}  {:>10.1}\n",
            s.label,
            s.cores.join(","),
            s.total_power,
            s.max_temperature
        ));
    }
    out.push_str(&format!(
        "temperature gap: {:.1} C; both admitted by the power constraint: {}\n",
        report.temperature_gap, report.both_satisfy_power_limit
    ));
    out
}

/// Renders sweep points in the layout of Table 1 (one row per `TL × STCL`
/// combination).
pub fn render_table1(points: &[SweepPoint]) -> String {
    let mut out = String::new();
    out.push_str("TL[C]  STCL  length[s]  sessions  effort[s]  discarded  max temp[C]\n");
    for p in points {
        out.push_str(&format!(
            "{:>5.0}  {:>4.0}  {:>9.1}  {:>8}  {:>9.1}  {:>9}  {:>11.2}\n",
            p.temperature_limit,
            p.stc_limit,
            p.schedule_length,
            p.session_count,
            p.simulation_effort,
            p.discarded_sessions,
            p.max_temperature
        ));
    }
    out
}

/// Renders the Figure 5 series: for each temperature limit, schedule length
/// and simulation effort as functions of `STCL`.
pub fn render_figure5(points: &[SweepPoint]) -> String {
    let mut tls: Vec<f64> = points.iter().map(|p| p.temperature_limit).collect();
    tls.sort_by(|a, b| a.partial_cmp(b).expect("finite temperature limits"));
    tls.dedup();
    let mut out = String::new();
    out.push_str("Figure 5 — schedule length and simulation effort vs STCL\n");
    for tl in tls {
        out.push_str(&format!("TL = {tl:.0} C\n"));
        out.push_str("  STCL  length[s]  effort[s]\n");
        for p in points.iter().filter(|p| p.temperature_limit == tl) {
            out.push_str(&format!(
                "  {:>4.0}  {:>9.1}  {:>9.1}\n",
                p.stc_limit, p.schedule_length, p.simulation_effort
            ));
        }
    }
    out
}

/// Renders an ablation sweep as a small table, one row per variant label.
pub fn render_ablation(title: &str, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(
        "variant                                    length[s]  effort[s]  discarded  max temp[C]\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<42} {:>9.1}  {:>9.1}  {:>9}  {:>11.2}\n",
            p.label,
            p.schedule_length,
            p.simulation_effort,
            p.discarded_sessions,
            p.max_temperature
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<SweepPoint> {
        vec![
            SweepPoint {
                temperature_limit: 145.0,
                stc_limit: 20.0,
                schedule_length: 7.0,
                session_count: 7,
                simulation_effort: 8.0,
                discarded_sessions: 1,
                max_temperature: 144.3,
                label: "default".into(),
                cached_validations: 0,
                warm_cache_hits: 0,
                baseline: None,
            },
            SweepPoint {
                temperature_limit: 155.0,
                stc_limit: 100.0,
                schedule_length: 3.0,
                session_count: 3,
                simulation_effort: 15.0,
                discarded_sessions: 12,
                max_temperature: 154.4,
                label: "default".into(),
                cached_validations: 4,
                warm_cache_hits: 2,
                baseline: None,
            },
        ]
    }

    #[test]
    fn table1_rendering_contains_every_row() {
        let text = render_table1(&sample_points());
        assert!(text.lines().count() == 3);
        assert!(text.contains("145"));
        assert!(text.contains("155"));
        assert!(text.contains("144.30"));
    }

    #[test]
    fn figure5_rendering_groups_by_temperature_limit() {
        let text = render_figure5(&sample_points());
        assert!(text.contains("TL = 145 C"));
        assert!(text.contains("TL = 155 C"));
    }

    #[test]
    fn ablation_rendering_includes_labels() {
        let points = vec![SweepPoint {
            label: "weight_factor=1.1".into(),
            ..sample_points().remove(0)
        }];
        let text = render_ablation("A1 weight factor", &points);
        assert!(text.contains("A1 weight factor"));
        assert!(text.contains("weight_factor=1.1"));
    }
}
