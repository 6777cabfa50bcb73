//! Declarative sweeps over the scheduling stack.
//!
//! Every evaluation the paper reports — Table 1, Figure 5, the A1–A3
//! ablations, the baseline comparison — is a grid of scheduling runs that
//! differ only in `TL`, `STCL` and a handful of configuration knobs. This
//! module turns that shape into data: a [`SweepSpec`] names the grid and the
//! variants, [`crate::Engine::sweep`] runs it (fanning the points out across
//! the machine and sharing the engine's warm session cache between them),
//! and a [`SweepReport`] collects one [`SweepPoint`] per run, including how
//! many simulations the shared cache saved.

use crate::experiments::SweepPoint;
use crate::{CoreOrdering, SchedulerConfig, SessionModelOptions};

/// One configuration variant of a sweep: a label plus optional overrides of
/// the engine's base configuration. A plain `TL × STCL` sweep uses a single
/// default variant; the ablations use one variant per knob value.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepVariant {
    /// Human-readable label carried into [`SweepPoint::label`].
    pub label: String,
    /// Violation weight factor override (A1 ablation).
    pub weight_factor: Option<f64>,
    /// Candidate-core ordering override (A2 ablation).
    pub ordering: Option<CoreOrdering>,
    /// Guidance session-model options override (A3 ablation).
    pub session_model: Option<SessionModelOptions>,
}

impl Default for SweepVariant {
    fn default() -> Self {
        SweepVariant::new("default")
    }
}

impl SweepVariant {
    /// A variant that runs the engine's base configuration unchanged.
    pub fn new(label: impl Into<String>) -> Self {
        SweepVariant {
            label: label.into(),
            weight_factor: None,
            ordering: None,
            session_model: None,
        }
    }

    /// Overrides the violation weight factor.
    #[must_use]
    pub fn with_weight_factor(mut self, factor: f64) -> Self {
        self.weight_factor = Some(factor);
        self
    }

    /// Overrides the candidate-core ordering.
    #[must_use]
    pub fn with_ordering(mut self, ordering: CoreOrdering) -> Self {
        self.ordering = Some(ordering);
        self
    }

    /// Overrides the guidance session-model options.
    #[must_use]
    pub fn with_session_model(mut self, options: SessionModelOptions) -> Self {
        self.session_model = Some(options);
        self
    }

    /// `config` with this variant's overrides applied.
    pub(crate) fn apply(&self, mut config: SchedulerConfig) -> SchedulerConfig {
        if let Some(factor) = self.weight_factor {
            config.weight_factor = factor;
        }
        if let Some(ordering) = self.ordering {
            config.ordering = ordering;
        }
        if let Some(options) = self.session_model {
            config.session_model = options;
        }
        config
    }
}

/// A declarative sweep: the `TL × STCL` grid, the configuration variants to
/// run at every grid point, and whether to attach a matched-budget baseline
/// comparison to each point.
///
/// # Example
///
/// ```
/// use thermsched::{Engine, SweepSpec};
/// use thermsched_soc::library;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sut = library::alpha21364_sut();
/// let engine = Engine::builder().sut(&sut).build()?;
/// let report = engine.sweep(&SweepSpec::grid(&[165.0], &[20.0, 100.0]))?;
/// assert_eq!(report.points().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Temperature limits (`TL`, °C); the slow axis of the grid.
    pub temperature_limits: Vec<f64>,
    /// Session thermal characteristic limits (`STCL`); the fast axis.
    pub stc_limits: Vec<f64>,
    /// Configuration variants run at every grid point. Empty means one
    /// default variant (the engine's base configuration).
    pub variants: Vec<SweepVariant>,
    /// Attach a [`crate::BaselineComparison`] (power-constrained scheduler at the
    /// matched budget) to every point.
    pub compare_baseline: bool,
}

impl SweepSpec {
    /// A `TL × STCL` grid with the engine's base configuration; points come
    /// back in row-major `(TL, STCL)` order.
    pub fn grid(temperature_limits: &[f64], stc_limits: &[f64]) -> Self {
        SweepSpec {
            temperature_limits: temperature_limits.to_vec(),
            stc_limits: stc_limits.to_vec(),
            variants: Vec::new(),
            compare_baseline: false,
        }
    }

    /// A single operating point.
    pub fn point(temperature_limit: f64, stc_limit: f64) -> Self {
        Self::grid(&[temperature_limit], &[stc_limit])
    }

    /// The full Table 1 grid of the paper (`TL` 145–185 °C in 5 °C steps,
    /// `STCL` 20–100 in steps of 10).
    pub fn table1() -> Self {
        Self::grid(
            &crate::experiments::default_temperature_limits(),
            &crate::experiments::default_stc_limits(),
        )
    }

    /// The Figure 5 subset (`TL ∈ {145, 155, 165}` °C, `STCL` 20–100).
    pub fn figure5() -> Self {
        Self::grid(
            &crate::experiments::figure5_temperature_limits(),
            &crate::experiments::default_stc_limits(),
        )
    }

    /// The A1 ablation at one operating point: one variant per violation
    /// weight factor (the paper fixes 1.1).
    pub fn weight_ablation(temperature_limit: f64, stc_limit: f64, factors: &[f64]) -> Self {
        Self::point(temperature_limit, stc_limit).with_variants(
            factors
                .iter()
                .map(|&factor| {
                    SweepVariant::new(format!("weight_factor={factor}")).with_weight_factor(factor)
                })
                .collect(),
        )
    }

    /// The A2 ablation at one operating point: one variant per
    /// [`CoreOrdering`].
    pub fn ordering_ablation(temperature_limit: f64, stc_limit: f64) -> Self {
        Self::point(temperature_limit, stc_limit).with_variants(
            CoreOrdering::ALL
                .iter()
                .map(|&ordering| SweepVariant::new(format!("{ordering:?}")).with_ordering(ordering))
                .collect(),
        )
    }

    /// The A3 ablation at one operating point: the paper's session model
    /// plus each fidelity option toggled individually.
    pub fn model_ablation(temperature_limit: f64, stc_limit: f64) -> Self {
        Self::point(temperature_limit, stc_limit).with_variants(vec![
            SweepVariant::new("paper (lateral-only, drop active-active)")
                .with_session_model(SessionModelOptions::paper()),
            SweepVariant::new("keep active-active paths").with_session_model(SessionModelOptions {
                keep_active_active_paths: true,
                ..SessionModelOptions::paper()
            }),
            SweepVariant::new("include vertical path").with_session_model(SessionModelOptions {
                include_vertical_path: true,
                ..SessionModelOptions::paper()
            }),
        ])
    }

    /// Replaces the variant list.
    #[must_use]
    pub fn with_variants(mut self, variants: Vec<SweepVariant>) -> Self {
        self.variants = variants;
        self
    }

    /// Requests a matched-budget baseline comparison at every point.
    #[must_use]
    pub fn with_baseline(mut self) -> Self {
        self.compare_baseline = true;
        self
    }
}

/// The result of running a [`SweepSpec`]: one [`SweepPoint`] per scheduling
/// run, in deterministic variant-major, then row-major `(TL, STCL)` order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    pub(crate) points: Vec<SweepPoint>,
}

impl SweepReport {
    /// The sweep points, in spec order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Consumes the report into its points.
    pub fn into_points(self) -> Vec<SweepPoint> {
        self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` for an empty sweep.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total simulations served from the engine's shared cache across the
    /// sweep (phase-1 characterisations and cross-point candidate
    /// validations).
    pub fn warm_cache_hits(&self) -> usize {
        self.points.iter().map(|p| p.warm_cache_hits).sum()
    }

    /// Total candidate validations served from any cache across the sweep.
    pub fn cached_validations(&self) -> usize {
        self.points.iter().map(|p| p.cached_validations).sum()
    }

    /// Hottest committed temperature over the whole sweep (°C);
    /// `f64::NEG_INFINITY` for an empty sweep.
    pub fn max_temperature(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.max_temperature)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use thermsched_soc::library;

    fn engine(sut: &thermsched_soc::SystemUnderTest) -> Engine<'_> {
        Engine::builder().sut(sut).build().unwrap()
    }

    #[test]
    fn grid_sweep_points_come_back_in_row_major_order() {
        let sut = library::alpha21364_sut();
        let engine = engine(&sut);
        let report = engine
            .sweep(&SweepSpec::grid(&[150.0, 165.0], &[40.0, 80.0]))
            .unwrap();
        let order: Vec<(f64, f64)> = report
            .points()
            .iter()
            .map(|p| (p.temperature_limit, p.stc_limit))
            .collect();
        assert_eq!(
            order,
            vec![(150.0, 40.0), (150.0, 80.0), (165.0, 40.0), (165.0, 80.0)]
        );
        for p in report.points() {
            assert_eq!(p.label, "default");
            assert!(p.max_temperature < p.temperature_limit);
            assert!(p.baseline.is_none());
        }
        assert!(report.max_temperature() < 165.0);
        assert_eq!(report.len(), 4);
        assert!(!report.is_empty());
    }

    #[test]
    fn shared_cache_makes_cross_point_hits_visible() {
        let sut = library::alpha21364_sut();
        let engine = engine(&sut);
        // Two passes over the same grid: the second is fully warm.
        let spec = SweepSpec::grid(&[165.0], &[40.0, 80.0]);
        let cold = engine.sweep(&spec).unwrap();
        let warm = engine.sweep(&spec).unwrap();
        // Every point of the second pass serves its entire phase-1
        // characterisation from the cache populated by the first pass (the
        // first pass itself may already have cross-point hits — its points
        // share the cache too — but never a full phase 1 on every point).
        assert!(
            warm.warm_cache_hits() >= warm.len() * sut.core_count(),
            "second pass must at least reuse every phase-1 characterisation: \
             cold {} vs warm {}",
            cold.warm_cache_hits(),
            warm.warm_cache_hits()
        );
        assert!(warm.warm_cache_hits() > cold.warm_cache_hits());
        // Warm results are identical to cold ones except for the cache
        // accounting fields.
        for (c, w) in cold.points().iter().zip(warm.points()) {
            assert_eq!(c.schedule_length, w.schedule_length);
            assert_eq!(c.session_count, w.session_count);
            assert_eq!(c.simulation_effort, w.simulation_effort);
            assert_eq!(c.discarded_sessions, w.discarded_sessions);
            assert_eq!(c.max_temperature, w.max_temperature);
        }
    }

    #[test]
    fn variants_label_their_points_and_override_knobs() {
        let sut = library::alpha21364_sut();
        let engine = engine(&sut);
        let spec = SweepSpec::point(160.0, 60.0).with_variants(
            CoreOrdering::ALL
                .iter()
                .map(|&o| SweepVariant::new(format!("{o:?}")).with_ordering(o))
                .collect(),
        );
        let report = engine.sweep(&spec).unwrap();
        assert_eq!(report.len(), 4);
        assert_eq!(report.points()[0].label, "AsGiven");
        assert_eq!(report.points()[1].label, "DescendingPower");
        for p in report.points() {
            assert!(p.max_temperature < 160.0);
        }
    }

    #[test]
    fn baseline_comparison_attaches_to_every_point() {
        let sut = library::alpha21364_sut();
        let engine = engine(&sut);
        let report = engine
            .sweep(&SweepSpec::point(150.0, 70.0).with_baseline())
            .unwrap();
        let baseline = report.points()[0]
            .baseline
            .as_ref()
            .expect("baseline requested");
        assert!(baseline.power_budget > 0.0);
        assert!(baseline.thermal_aware_max_temperature < 150.0);
        assert!(
            baseline.power_constrained_max_temperature + 1e-9
                >= baseline.thermal_aware_max_temperature
        );
    }

    #[test]
    fn invalid_per_point_configuration_is_reported() {
        let sut = library::alpha21364_sut();
        let engine = engine(&sut);
        let err = engine.sweep(&SweepSpec::point(-5.0, 40.0)).unwrap_err();
        assert!(matches!(err, crate::ScheduleError::InvalidConfig { .. }));
    }

    #[test]
    fn spec_constructors_cover_the_paper_grids() {
        let grid = |spec: SweepSpec| (spec.temperature_limits.len(), spec.stc_limits.len());
        assert_eq!(grid(SweepSpec::table1()), (9, 9));
        assert_eq!(grid(SweepSpec::figure5()), (3, 9));
        assert_eq!(grid(SweepSpec::point(165.0, 50.0)), (1, 1));
    }
}
