//! Integration tests of the experiment drivers: the paper's qualitative
//! findings must hold on the reproduced system, driven through the
//! `Engine` facade and its declarative sweeps.

use thermsched::{experiments, report, Engine, SweepSpec};
use thermsched_soc::library;
use thermsched_thermal::RcThermalSimulator;

fn alpha_engine(sut: &thermsched_soc::SystemUnderTest) -> Engine<'_> {
    Engine::builder().sut(sut).build().unwrap()
}

#[test]
fn figure1_equal_power_sessions_have_very_different_peak_temperatures() {
    let fig1 = experiments::figure1().unwrap();
    assert_eq!(fig1.sessions.len(), 2);
    let ts1 = &fig1.sessions[0];
    let ts2 = &fig1.sessions[1];
    assert_eq!(ts1.label, "TS1");
    assert_eq!(ts2.label, "TS2");
    // Identical total power, both within the 45 W chip-level budget.
    assert!((ts1.total_power - 45.0).abs() < 1e-9);
    assert!((ts2.total_power - 45.0).abs() < 1e-9);
    assert!(fig1.both_satisfy_power_limit);
    // The small-core session is far hotter (paper: 125.5 C vs 67.5 C). Our
    // calibration is not identical, but the gap must be large.
    assert!(
        ts1.max_temperature > ts2.max_temperature + 15.0,
        "expected a large hot-spot gap, got {:.1} vs {:.1}",
        ts1.max_temperature,
        ts2.max_temperature
    );
    let text = report::render_figure1(&fig1);
    assert!(text.contains("TS1") && text.contains("TS2"));
}

#[test]
fn figure5_trends_match_the_paper() {
    let sut = library::alpha21364_sut();
    let engine = alpha_engine(&sut);
    let sweep = engine.sweep(&SweepSpec::figure5()).unwrap();
    let points = sweep.points();
    assert_eq!(points.len(), 3 * 9);

    for &tl in &experiments::figure5_temperature_limits() {
        let series: Vec<_> = points
            .iter()
            .filter(|p| p.temperature_limit == tl)
            .collect();
        assert_eq!(series.len(), 9);
        let tightest = series.first().unwrap();
        let loosest = series.last().unwrap();
        // Relaxing STCL never lengthens the schedule...
        assert!(
            loosest.schedule_length <= tightest.schedule_length,
            "TL={tl}: loose STCL should give the shorter schedule"
        );
        // ...and at the tight end the schedule is accepted almost first-try:
        // the effort stays close to the schedule length.
        assert!(tightest.simulation_effort <= tightest.schedule_length + 2.0);
        // Every point respects the limit.
        for p in &series {
            assert!(p.max_temperature < p.temperature_limit);
            assert!(p.simulation_effort >= p.schedule_length - 1e-9);
        }
    }

    // Higher TL never lengthens the schedule at the same STCL.
    for stcl_idx in 0..9 {
        let stcl = experiments::default_stc_limits()[stcl_idx];
        let mut lengths: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| (p.stc_limit - stcl).abs() < 1e-9)
            .map(|p| (p.temperature_limit, p.schedule_length))
            .collect();
        lengths.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for pair in lengths.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 1e-9,
                "raising TL from {} to {} lengthened the schedule at STCL={stcl}",
                pair[0].0,
                pair[1].0
            );
        }
    }

    let rendered = report::render_figure5(points);
    assert!(rendered.contains("TL = 145 C"));
    assert!(rendered.contains("TL = 165 C"));
}

#[test]
fn table1_subset_shows_the_length_versus_effort_tradeoff() {
    // A reduced grid keeps the test quick while still exercising the trend
    // the full Table 1 bench reports.
    let sut = library::alpha21364_sut();
    let engine = alpha_engine(&sut);
    let sweep = engine
        .sweep(&SweepSpec::grid(&[150.0, 175.0], &[20.0, 60.0, 100.0]))
        .unwrap();
    let points = sweep.points();
    assert_eq!(points.len(), 6);
    let rendered = report::render_table1(points);
    assert_eq!(rendered.lines().count(), 7);

    for pair in points.chunks(3) {
        // Within one TL row group: tight STCL -> longest schedule.
        assert!(pair[0].schedule_length >= pair[2].schedule_length);
    }
    // The loosest corner of the grid produces meaningful concurrency: at
    // least a 2x reduction over the tightest corner (paper reports up to
    // 3.5x across the full grid).
    let longest = points
        .iter()
        .map(|p| p.schedule_length)
        .fold(f64::NEG_INFINITY, f64::max);
    let shortest = points
        .iter()
        .map(|p| p.schedule_length)
        .fold(f64::INFINITY, f64::min);
    assert!(
        longest / shortest >= 1.5,
        "expected a schedule-length spread, got {longest} vs {shortest}"
    );
}

#[test]
fn ablations_run_and_stay_thermally_safe() {
    let sut = library::alpha21364_sut();
    let engine = alpha_engine(&sut);
    let weight = engine
        .sweep(&SweepSpec::weight_ablation(160.0, 70.0, &[1.0, 1.1, 2.0]))
        .unwrap();
    let ordering = engine
        .sweep(&SweepSpec::ordering_ablation(160.0, 70.0))
        .unwrap();
    let model = engine
        .sweep(&SweepSpec::model_ablation(160.0, 70.0))
        .unwrap();
    for p in weight
        .points()
        .iter()
        .chain(ordering.points())
        .chain(model.points())
    {
        assert!(p.max_temperature < 160.0, "{} violates the limit", p.label);
        assert!(p.schedule_length >= 1.0);
    }
    let text = report::render_ablation("orderings", ordering.points());
    assert!(text.contains("AsGiven"));
}

#[test]
fn baseline_comparison_reports_violations_for_the_power_only_scheduler() {
    let sut = library::alpha21364_sut();
    let engine = alpha_engine(&sut);
    let sweep = engine
        .sweep(&SweepSpec::point(150.0, 80.0).with_baseline())
        .unwrap();
    let cmp = sweep.points()[0].baseline.as_ref().unwrap();
    assert!(cmp.thermal_aware_max_temperature < 150.0);
    // Given the same per-session power allowance, the density-blind baseline
    // runs hotter than the thermal-aware schedule.
    assert!(cmp.power_constrained_max_temperature >= cmp.thermal_aware_max_temperature - 1e-9);
}

/// The removal contract: the ablation spec constructors reproduce what the
/// removed legacy free-function drivers did, through one engine.
#[test]
fn spec_constructors_cover_the_removed_legacy_drivers() {
    let sut = library::alpha21364_sut();
    let sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
    let engine = Engine::builder().sut(&sut).backend(&sim).build().unwrap();

    let grid = engine
        .sweep(&SweepSpec::grid(&[160.0], &[30.0, 90.0]))
        .unwrap();
    assert_eq!(grid.len(), 2);

    let orderings = engine
        .sweep(&SweepSpec::ordering_ablation(165.0, 60.0))
        .unwrap();
    assert_eq!(orderings.len(), 4);

    let cmp_sweep = engine
        .sweep(&SweepSpec::point(150.0, 80.0).with_baseline())
        .unwrap();
    let cmp = cmp_sweep.points()[0].baseline.as_ref().unwrap();
    assert!(cmp.power_budget >= 1.0);
}
