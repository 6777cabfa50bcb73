//! Experiment drivers that regenerate the paper's figures and tables.
//!
//! The sweeps are expressed declaratively: build one [`crate::Engine`] per
//! (system, backend) pair and run [`crate::SweepSpec`]s against it — the
//! engine's shared session cache then serves the overlap between sweep
//! points from memory.
//!
//! [`figure1`] (the motivational example) is not a sweep and stays a
//! first-class driver, as do the grid helpers ([`default_temperature_limits`]
//! and friends) and the row types ([`SweepPoint`], [`AblationPoint`],
//! [`BaselineComparison`]) the sweeps report in.

use thermsched_soc::{library, SystemUnderTest};
use thermsched_thermal::ThermalBackend;

use crate::{Result, ScheduleValidator, TestSchedule, TestSession};

/// Default `TL` sweep of Table 1: 145 °C to 185 °C in 5 °C steps.
pub fn default_temperature_limits() -> Vec<f64> {
    (0..=8).map(|i| 145.0 + 5.0 * i as f64).collect()
}

/// Default `STCL` sweep of Table 1 and Figure 5: 20 to 100 in steps of 10.
pub fn default_stc_limits() -> Vec<f64> {
    (2..=10).map(|i| 10.0 * i as f64).collect()
}

/// The `TL` values used in Figure 5.
pub fn figure5_temperature_limits() -> Vec<f64> {
    vec![145.0, 155.0, 165.0]
}

/// One evaluated session of the Figure 1 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure1Session {
    /// Label used by the paper ("TS1" or "TS2").
    pub label: String,
    /// Core names tested concurrently.
    pub cores: Vec<String>,
    /// Total session power in watts.
    pub total_power: f64,
    /// Maximum temperature reached during the session (°C).
    pub max_temperature: f64,
}

/// Outcome of the motivational experiment of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure1Report {
    /// Chip-level power budget both sessions satisfy (45 W in the paper).
    pub power_limit: f64,
    /// The two equal-power sessions (small cores vs large cores).
    pub sessions: Vec<Figure1Session>,
    /// Temperature gap between the two sessions (°C); the paper reports
    /// 125.5 °C vs 67.5 °C, a 58 °C gap.
    pub temperature_gap: f64,
    /// Whether a chip-level power-constrained scheduler would admit both
    /// sessions (it does, which is the paper's point).
    pub both_satisfy_power_limit: bool,
}

/// Reproduces the Figure 1 motivational example on the hypothetical 7-core
/// system: two sessions with identical total power but very different power
/// densities are simulated and compared against a 45 W chip-level budget.
///
/// # Errors
///
/// Propagates simulator construction and simulation failures.
pub fn figure1() -> Result<Figure1Report> {
    let sut = library::figure1_sut();
    let simulator = thermsched_thermal::RcThermalSimulator::from_floorplan(sut.floorplan())?;
    figure1_with(&sut, &simulator, 45.0)
}

/// [`figure1`] with caller-provided system, backend and power budget.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn figure1_with<S: ThermalBackend + ?Sized>(
    sut: &SystemUnderTest,
    simulator: &S,
    power_limit: f64,
) -> Result<Figure1Report> {
    let validator = ScheduleValidator::new(sut, simulator)?;
    let fp = sut.floorplan();
    let session_defs: [(&str, [&str; 3]); 2] =
        [("TS1", ["C2", "C3", "C4"]), ("TS2", ["C5", "C6", "C7"])];
    let mut schedule = TestSchedule::new();
    let mut labels = Vec::new();
    for (label, names) in session_defs {
        let ids = names
            .iter()
            .map(|n| fp.index_of(n).expect("figure1 core names exist"));
        schedule.push(TestSession::new(ids, sut));
        labels.push((
            label.to_owned(),
            names.iter().map(|s| s.to_string()).collect(),
        ));
    }
    let evaluation = validator.evaluate(&schedule)?;
    let mut sessions = Vec::new();
    for (eval, (label, cores)) in evaluation.sessions.iter().zip(labels) {
        sessions.push(Figure1Session {
            label,
            cores,
            total_power: eval.total_power,
            max_temperature: eval.max_temperature,
        });
    }
    let both_satisfy_power_limit = sessions.iter().all(|s| s.total_power <= power_limit + 1e-9);
    let temperature_gap = (sessions[0].max_temperature - sessions[1].max_temperature).abs();
    Ok(Figure1Report {
        power_limit,
        sessions,
        temperature_gap,
        both_satisfy_power_limit,
    })
}

/// One row of a sweep: the operating point, the cost metrics, and the cache
/// accounting of the run that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Temperature limit `TL` in °C.
    pub temperature_limit: f64,
    /// Session thermal characteristic limit `STCL`.
    pub stc_limit: f64,
    /// Generated schedule length in seconds.
    pub schedule_length: f64,
    /// Number of test sessions in the schedule.
    pub session_count: usize,
    /// Simulation effort in seconds of simulated test-session time.
    pub simulation_effort: f64,
    /// Number of discarded (thermally violating) candidate sessions.
    pub discarded_sessions: usize,
    /// Hottest simulated temperature over the committed schedule (°C).
    pub max_temperature: f64,
    /// Label of the [`SweepVariant`] that produced the point (`"default"`
    /// for plain grid sweeps).
    pub label: String,
    /// Candidate validations served from any session cache during this run
    /// (see [`crate::ScheduleOutcome::cached_validations`]).
    pub cached_validations: usize,
    /// Simulations this point avoided because another sweep point sharing
    /// the engine's cache had already run them (see
    /// [`crate::ScheduleOutcome::warm_cache_hits`]).
    pub warm_cache_hits: usize,
    /// Matched-budget baseline comparison, when the spec requested one.
    pub baseline: Option<BaselineComparison>,
}

/// One row of an ablation sweep: a label plus the usual cost metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Human-readable description of the configuration variant.
    pub label: String,
    /// Generated schedule length in seconds.
    pub schedule_length: f64,
    /// Simulation effort in seconds.
    pub simulation_effort: f64,
    /// Discarded candidate sessions.
    pub discarded_sessions: usize,
    /// Hottest committed-session temperature (°C).
    pub max_temperature: f64,
}

impl From<SweepPoint> for AblationPoint {
    fn from(p: SweepPoint) -> Self {
        AblationPoint {
            label: p.label,
            schedule_length: p.schedule_length,
            simulation_effort: p.simulation_effort,
            discarded_sessions: p.discarded_sessions,
            max_temperature: p.max_temperature,
        }
    }
}

/// Compares the thermal-aware scheduler against the chip-level
/// power-constrained baseline at a matched concurrency level: the baseline's
/// power budget is set to the largest committed session power of the
/// thermal-aware schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineComparison {
    /// Thermal-aware schedule length (seconds).
    pub thermal_aware_length: f64,
    /// Thermal-aware maximum temperature (°C).
    pub thermal_aware_max_temperature: f64,
    /// Power-constrained schedule length (seconds).
    pub power_constrained_length: f64,
    /// Power-constrained maximum temperature (°C).
    pub power_constrained_max_temperature: f64,
    /// The power budget the baseline was given (watts).
    pub power_budget: f64,
    /// Number of baseline sessions exceeding the temperature limit.
    pub power_constrained_violations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, SweepSpec};

    #[test]
    fn figure1_reproduces_the_motivational_gap() {
        let report = figure1().unwrap();
        assert_eq!(report.sessions.len(), 2);
        assert!(report.both_satisfy_power_limit);
        // Both sessions dissipate the same power...
        assert!((report.sessions[0].total_power - report.sessions[1].total_power).abs() < 1e-9);
        // ...but the small-core session is much hotter.
        assert!(report.sessions[0].max_temperature > report.sessions[1].max_temperature + 10.0);
        assert!(report.temperature_gap > 10.0);
    }

    #[test]
    fn sweep_defaults_match_the_paper_grid() {
        assert_eq!(default_temperature_limits().len(), 9);
        assert_eq!(default_stc_limits().len(), 9);
        assert_eq!(figure5_temperature_limits(), vec![145.0, 155.0, 165.0]);
        assert_eq!(default_temperature_limits()[0], 145.0);
        assert_eq!(*default_temperature_limits().last().unwrap(), 185.0);
        assert_eq!(default_stc_limits()[0], 20.0);
        assert_eq!(*default_stc_limits().last().unwrap(), 100.0);
    }

    #[test]
    fn small_sweep_produces_consistent_points() {
        let sut = library::alpha21364_sut();
        let engine = Engine::builder().sut(&sut).build().unwrap();
        let report = engine
            .sweep(&SweepSpec::grid(&[165.0], &[20.0, 100.0]))
            .unwrap();
        let points = report.points();
        assert_eq!(points.len(), 2);
        for p in points {
            assert!(p.schedule_length >= 1.0);
            assert!(p.simulation_effort >= p.schedule_length);
            assert!(p.max_temperature < p.temperature_limit);
            assert_eq!(p.session_count as f64, p.schedule_length);
        }
        // Tight STCL gives the longer (or equal) schedule.
        assert!(points[0].schedule_length >= points[1].schedule_length);
    }

    #[test]
    fn ablation_sweeps_cover_their_variants_through_the_new_api() {
        let sut = library::alpha21364_sut();
        let engine = Engine::builder().sut(&sut).build().unwrap();
        let weights = engine
            .sweep(&SweepSpec::weight_ablation(165.0, 60.0, &[1.05, 1.1, 1.5]))
            .unwrap();
        assert_eq!(weights.len(), 3);
        let orderings = engine
            .sweep(&SweepSpec::ordering_ablation(165.0, 60.0))
            .unwrap();
        assert_eq!(orderings.len(), 4);
        for p in weights.points().iter().chain(orderings.points()) {
            assert!(p.schedule_length >= 1.0);
            assert!(p.max_temperature < 165.0);
            assert!(!p.label.is_empty());
        }
    }

    #[test]
    fn baseline_comparison_shows_the_thermal_risk_of_power_only_scheduling() {
        let sut = library::alpha21364_sut();
        let engine = Engine::builder().sut(&sut).build().unwrap();
        let report = engine
            .sweep(&SweepSpec::point(150.0, 70.0).with_baseline())
            .unwrap();
        let cmp = report.points()[0].baseline.as_ref().unwrap();
        assert!(cmp.thermal_aware_max_temperature < 150.0);
        assert!(cmp.power_budget > 0.0);
        assert!(cmp.power_constrained_length >= 1.0);
        // The baseline is allowed the same session power but is blind to
        // power density, so it runs at least as hot as the thermal-aware
        // schedule (and usually violates the limit outright).
        assert!(cmp.power_constrained_max_temperature + 1e-9 >= cmp.thermal_aware_max_temperature);
    }

    /// The spec constructors cover what the removed legacy drivers did:
    /// every ablation is expressible as a labelled variant sweep, and the
    /// matched-budget baseline attaches per point.
    #[test]
    fn spec_driven_sweeps_replace_the_removed_legacy_drivers() {
        let sut = library::alpha21364_sut();
        let engine = Engine::builder().sut(&sut).build().unwrap();

        let models = engine
            .sweep(&SweepSpec::model_ablation(165.0, 60.0))
            .unwrap();
        assert_eq!(models.len(), 3);
        assert!(models.points()[0].label.starts_with("paper"));

        let weights = engine
            .sweep(&SweepSpec::weight_ablation(165.0, 60.0, &[1.1, 1.5]))
            .unwrap();
        assert_eq!(weights.len(), 2);
        assert_eq!(weights.points()[0].label, "weight_factor=1.1");

        let points: Vec<AblationPoint> = weights
            .into_points()
            .into_iter()
            .map(AblationPoint::from)
            .collect();
        assert_eq!(points[1].label, "weight_factor=1.5");
        assert!(points[0].schedule_length >= 1.0);
    }
}
