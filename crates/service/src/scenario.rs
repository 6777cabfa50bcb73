//! Deterministic, seed-driven generation of scenario corpora.
//!
//! The paper evaluates two fixed systems; a service that is supposed to
//! handle "as many scenarios as you can imagine" needs a workload to prove
//! it on. A [`ScenarioSpec`] describes a family of systems (grid shapes,
//! power-density and test-time ranges, all driven by one seed through
//! [`thermsched_soc::SocGenerator`]) crossed with an operating grid
//! (`TL × STCL` plus weight-factor / ordering variants), and
//! [`ScenarioSpec::build`] expands it into a [`Corpus`]: concrete systems
//! under test plus one [`JobSpec`] per (scenario, operating point). The
//! expansion is a pure function of the spec — same spec, same corpus, byte
//! for byte — which is what makes the service's determinism contract
//! testable.

use thermsched::{
    CoreOrdering, CoreViolationPolicy, OnlineContext, SchedulerConfig, TraceProfile, TraceSegment,
};
use thermsched_soc::{GeneratorConfig, SocGenerator, SystemUnderTest};

use crate::fault::{mix3, unit};
use crate::{Result, ServiceError};

/// Seeded family of time-varying power shapes a spec can stamp onto its
/// jobs. A family is a *generator* of [`TraceProfile`]s: the concrete
/// segment scales are drawn deterministically from the per-job seed, so two
/// builds of one spec materialise bit-identical profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFamily {
    /// Four equal segments ramping linearly from a seeded low scale up to a
    /// seeded peak — a workload heating up through the test.
    Ramp,
    /// Eight equal segments alternating between a seeded high and low scale
    /// — a periodic burst/rest pattern.
    Periodic,
    /// Active at a seeded scale for half the session, fully idle for a
    /// quarter, then active again — a test with a cooling gap in the middle.
    IdleGap,
}

impl TraceFamily {
    /// Stable wire / CLI name of the family.
    pub fn label(self) -> &'static str {
        match self {
            TraceFamily::Ramp => "ramp",
            TraceFamily::Periodic => "periodic",
            TraceFamily::IdleGap => "idle_gap",
        }
    }

    /// Parses a family from its [`Self::label`] name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ramp" => Some(TraceFamily::Ramp),
            "periodic" => Some(TraceFamily::Periodic),
            "idle_gap" => Some(TraceFamily::IdleGap),
            _ => None,
        }
    }

    /// Materialises the family into a concrete seeded profile. Segment
    /// fractions are exact dyadic values (`0.5`, `0.25`, `0.125`) so the
    /// profile always passes [`TraceProfile::new`]'s sum-to-one check
    /// exactly, and the scales are pure functions of `seed`.
    pub fn profile(self, seed: u64) -> TraceProfile {
        let mut state = seed;
        let segments: Vec<TraceSegment> = match self {
            TraceFamily::Ramp => {
                let start = 0.25 + 0.25 * unit_f64(&mut state);
                let end = 1.0 + 0.5 * unit_f64(&mut state);
                (0..4)
                    .map(|i| TraceSegment::new(start + (end - start) * (i as f64 / 3.0), 0.25))
                    .collect()
            }
            TraceFamily::Periodic => {
                let high = 1.0 + 0.25 * unit_f64(&mut state);
                let low = 0.25 + 0.25 * unit_f64(&mut state);
                (0..8)
                    .map(|i| TraceSegment::new(if i % 2 == 0 { high } else { low }, 0.125))
                    .collect()
            }
            TraceFamily::IdleGap => {
                let active = 0.75 + 0.5 * unit_f64(&mut state);
                let tail = 0.5 + 0.5 * unit_f64(&mut state);
                vec![
                    TraceSegment::new(active, 0.5),
                    TraceSegment::new(0.0, 0.25),
                    TraceSegment::new(tail, 0.25),
                ]
            }
        };
        TraceProfile::new(segments).expect("family fractions are exact dyadic sums of one")
    }
}

/// Specification of a scenario corpus: how many systems to generate, what
/// they look like, and which operating points to schedule each one at.
///
/// # Example
///
/// ```
/// use thermsched_service::ScenarioSpec;
///
/// # fn main() -> Result<(), thermsched_service::ServiceError> {
/// let corpus = ScenarioSpec {
///     scenarios: 4,
///     seed: 7,
///     ..ScenarioSpec::default()
/// }
/// .build()?;
/// assert_eq!(corpus.scenarios().len(), 4);
/// // Default operating grid: 1 TL × 2 STCLs per scenario.
/// assert_eq!(corpus.jobs().len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Master seed; every scenario derives its own generator seed from this.
    pub seed: u64,
    /// Number of systems under test to generate.
    pub scenarios: usize,
    /// Grid shapes `(columns, rows)` cycled over the scenarios.
    pub grid_shapes: Vec<(usize, usize)>,
    /// Core edge length in millimetres.
    pub core_size_mm: f64,
    /// Test power density range in W/mm² (min, max).
    pub power_density: (f64, f64),
    /// Core test time range in seconds (min, max).
    pub test_time: (f64, f64),
    /// Temperature limits (`TL`, °C) every scenario is scheduled at.
    pub temperature_limits: Vec<f64>,
    /// Session thermal characteristic limits (`STCL`) crossed with the
    /// temperature limits.
    pub stc_limits: Vec<f64>,
    /// Violation weight factors cycled over the jobs.
    pub weight_factors: Vec<f64>,
    /// Candidate-core orderings cycled over the jobs.
    pub orderings: Vec<CoreOrdering>,
    /// Margin (°C) for the `RaiseLimit` core-violation policy, or `None` to
    /// fail jobs whose hottest core violates `TL` alone. Generated systems
    /// span a wide power-density range, so the service defaults to raising —
    /// a batch should report hot scenarios, not abort on them.
    pub raise_limit_margin: Option<f64>,
    /// Trace families cycled over the jobs. Empty (the default) keeps every
    /// job constant-power; non-empty stamps each job with a seeded
    /// [`TraceProfile`] drawn from the family at `index % len`.
    pub trace_families: Vec<TraceFamily>,
    /// Warm-start temperature range `(low, high)` in °C, or `None` (the
    /// default) to start every job from ambient. When set, each job gets a
    /// seeded per-block initial temperature vector drawn uniformly from the
    /// range, modelling state chained from a previous batch.
    pub warm_start_range: Option<(f64, f64)>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            seed: 2005,
            scenarios: 8,
            grid_shapes: vec![(3, 3), (4, 3), (4, 4), (5, 4)],
            core_size_mm: 4.0,
            power_density: (0.2, 1.2),
            test_time: (1.0, 1.0),
            // Tight enough that candidate sessions violate and get
            // discarded on hot scenarios — the adaptive-weight and
            // cache-reuse machinery is part of the workload, not idle.
            temperature_limits: vec![120.0],
            stc_limits: vec![30.0, 60.0],
            weight_factors: vec![1.1],
            orderings: vec![CoreOrdering::AsGiven],
            raise_limit_margin: Some(5.0),
            trace_families: vec![],
            warm_start_range: None,
        }
    }
}

impl ScenarioSpec {
    /// Number of jobs the spec expands to, or `None` when a `usize` cannot
    /// count them.
    pub fn job_count(&self) -> Option<usize> {
        self.scenarios
            .checked_mul(self.temperature_limits.len())?
            .checked_mul(self.stc_limits.len())
    }

    /// Expands the spec into a concrete, fully deterministic corpus.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::InvalidSpec`] if a list field is empty, a count is
    ///   zero, or the corpus is larger than can be allocated.
    /// * [`ServiceError::Soc`] for generator parameters out of range.
    /// * [`ServiceError::Schedule`] for operating points that do not form a
    ///   valid [`SchedulerConfig`].
    pub fn build(&self) -> Result<Corpus> {
        let job_count = self.validate()?;
        let too_large = |_| ServiceError::InvalidSpec {
            field: "scenarios",
            problem: "expands to more than can be allocated",
        };
        let mut scenarios = Vec::new();
        scenarios
            .try_reserve_exact(self.scenarios)
            .map_err(too_large)?;
        for index in 0..self.scenarios {
            let (columns, rows) = self.grid_shapes[index % self.grid_shapes.len()];
            let config = GeneratorConfig {
                grid_columns: columns,
                grid_rows: rows,
                core_size_mm: self.core_size_mm,
                min_power_density: self.power_density.0,
                max_power_density: self.power_density.1,
                min_test_time: self.test_time.0,
                max_test_time: self.test_time.1,
            };
            let seed = derive_seed(self.seed, index as u64);
            let sut = SocGenerator::new(seed, config)?.generate()?;
            scenarios.push(Scenario {
                name: format!("s{index:02}-g{columns}x{rows}"),
                seed,
                grid: (columns, rows),
                core_size_mm: self.core_size_mm,
                sut,
            });
        }

        let policy = match self.raise_limit_margin {
            Some(margin) => CoreViolationPolicy::RaiseLimit { margin },
            None => CoreViolationPolicy::Fail,
        };
        let mut jobs = Vec::new();
        jobs.try_reserve_exact(job_count).map_err(too_large)?;
        for (scenario, generated) in scenarios.iter().enumerate() {
            for &tl in &self.temperature_limits {
                for &stcl in &self.stc_limits {
                    let index = jobs.len();
                    let weight_factor = self.weight_factors[index % self.weight_factors.len()];
                    let ordering = self.orderings[index % self.orderings.len()];
                    let config = SchedulerConfig::new(tl, stcl)?
                        .with_weight_factor(weight_factor)
                        .with_ordering(ordering)
                        .with_core_violation_policy(policy);
                    let mut label = format!("TL={tl} STCL={stcl} wf={weight_factor} {ordering:?}");
                    let mut online = OnlineContext::new();
                    if !self.trace_families.is_empty() {
                        let family = self.trace_families[index % self.trace_families.len()];
                        label.push_str(" trace=");
                        label.push_str(family.label());
                        let seed = derive_seed(self.seed ^ TRACE_STREAM, index as u64);
                        online = online.with_trace(family.profile(seed));
                    }
                    if let Some((low, high)) = self.warm_start_range {
                        label.push_str(" warm");
                        let mut state = derive_seed(self.seed ^ WARM_STREAM, index as u64);
                        let blocks = generated.sut.core_count();
                        online = online.with_warm_start(
                            (0..blocks)
                                .map(|_| low + (high - low) * unit_f64(&mut state))
                                .collect(),
                        )?;
                    }
                    jobs.push(JobSpec {
                        scenario,
                        label,
                        config,
                        online,
                    });
                }
            }
        }
        Ok(Corpus { scenarios, jobs })
    }

    /// Checks the spec and returns its job count.
    fn validate(&self) -> Result<usize> {
        let non_empty: [(&'static str, bool); 6] = [
            ("scenarios", self.scenarios > 0),
            ("grid_shapes", !self.grid_shapes.is_empty()),
            ("temperature_limits", !self.temperature_limits.is_empty()),
            ("stc_limits", !self.stc_limits.is_empty()),
            ("weight_factors", !self.weight_factors.is_empty()),
            ("orderings", !self.orderings.is_empty()),
        ];
        for (field, ok) in non_empty {
            if !ok {
                return Err(ServiceError::InvalidSpec {
                    field,
                    problem: "must be non-empty",
                });
            }
        }
        let jobs = self.job_count().ok_or(ServiceError::InvalidSpec {
            field: "scenarios",
            problem: "expands to more jobs than can be counted",
        })?;
        if let Some((low, high)) = self.warm_start_range {
            // A finite width keeps every draw `low + width * u` finite.
            if !(high - low).is_finite() || low > high {
                return Err(ServiceError::InvalidSpec {
                    field: "warm_start_range",
                    problem: "must be finite with low <= high",
                });
            }
        }
        Ok(jobs)
    }
}

/// Stream salts so trace scales and warm-start temperatures draw from
/// generator streams unrelated to each other and to the scenario stream.
const TRACE_STREAM: u64 = 0x5452_4143_4553_5452;
const WARM_STREAM: u64 = 0x5741_524d_5354_524d;

/// One SplitMix64 step of `state`, folded to a uniform value in `[0, 1)`.
fn unit_f64(state: &mut u64) -> f64 {
    let value = unit(mix3(*state, 0, 0));
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    value
}

/// SplitMix64 mix of the master seed and a scenario index, so neighbouring
/// scenarios get statistically unrelated generator streams.
fn derive_seed(seed: u64, index: u64) -> u64 {
    mix3(seed, index, 0)
}

/// One generated system under test of a corpus.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable human-readable name (`"s03-g4x4"`).
    pub name: String,
    /// The derived generator seed that produced this scenario.
    pub seed: u64,
    /// Grid shape `(columns, rows)` of the generated floorplan. Generated
    /// scenarios sharing a shape (and core size) share an *identical*
    /// floorplan — only power assignments differ — so they share one
    /// backend through the operator cache. Decoding checks only that
    /// `columns × rows` is the core count, which bounds the cell grid the
    /// grid backends size from it; the operator key reads the rects.
    pub grid: (usize, usize),
    /// Core edge length in millimetres.
    pub core_size_mm: f64,
    /// The generated system under test.
    pub sut: SystemUnderTest,
}

/// One scheduling job: a scenario index into the corpus plus the full
/// configuration the run uses.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Index into [`Corpus::scenarios`].
    pub scenario: usize,
    /// Human-readable operating-point label.
    pub label: String,
    /// The scheduler configuration of this run.
    pub config: SchedulerConfig,
    /// The job's online state: the power-trace shape every session follows
    /// and the per-core temperatures (°C) it re-plans from. Empty for the
    /// classic constant-power run from ambient. Built and validated once,
    /// by [`ScenarioSpec::build`] or the decoder; every attempt borrows it.
    pub online: OnlineContext,
}

impl JobSpec {
    /// `Some(&self.online)`, or `None` for a constant-power job. Kept for
    /// perfbench's thermal replay; read [`JobSpec::online`] instead.
    #[doc(hidden)]
    pub fn online_context(&self) -> thermsched::Result<Option<&OnlineContext>> {
        Ok((!self.online.is_empty()).then_some(&self.online))
    }
}

/// A fully expanded corpus: the generated systems and the jobs to run over
/// them, both in deterministic spec order.
#[derive(Debug, Clone)]
pub struct Corpus {
    scenarios: Vec<Scenario>,
    jobs: Vec<JobSpec>,
}

impl Corpus {
    /// Reassembles a corpus from its parts (wire decode only), checking
    /// that every job references a scenario the corpus actually has and
    /// that every warm start holds one temperature per core of its
    /// scenario. An empty corpus is legal — the runner handles zero jobs.
    pub(crate) fn from_parts(
        scenarios: Vec<Scenario>,
        jobs: Vec<JobSpec>,
    ) -> Result<Self, ServiceError> {
        for job in &jobs {
            let Some(scenario) = scenarios.get(job.scenario) else {
                return Err(ServiceError::InvalidSpec {
                    field: "jobs",
                    problem: "job references a scenario index outside the corpus",
                });
            };
            job.online
                .check_core_count(scenario.sut.core_count())
                .map_err(|_| ServiceError::InvalidSpec {
                    field: "jobs",
                    problem: "warm start does not hold one temperature per core of its scenario",
                })?;
        }
        Ok(Corpus { scenarios, jobs })
    }

    /// The generated scenarios, in generation order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The jobs, in deterministic scenario-major order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// The scenarios, dropping the jobs.
    pub(crate) fn into_scenarios(self) -> Vec<Scenario> {
        self.scenarios
    }

    /// Total core count over all scenarios (a proxy for corpus size).
    pub fn total_cores(&self) -> usize {
        self.scenarios.iter().map(|s| s.sut.core_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_builds_a_deterministic_corpus() {
        let spec = ScenarioSpec::default();
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.scenarios().len(), 8);
        assert_eq!(Some(a.jobs().len()), spec.job_count());
        assert!(a.total_cores() > 0);
        for (x, y) in a.scenarios().iter().zip(b.scenarios()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.seed, y.seed);
            for (sx, sy) in x.sut.test_specs().iter().zip(y.sut.test_specs()) {
                assert_eq!(sx.test_power(), sy.test_power());
                assert_eq!(sx.test_time(), sy.test_time());
            }
        }
        assert_eq!(a.jobs(), b.jobs());
    }

    #[test]
    fn scenarios_cycle_grid_shapes_and_differ_in_powers() {
        let corpus = ScenarioSpec {
            scenarios: 5,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        let s = corpus.scenarios();
        assert_eq!(s[0].sut.core_count(), 9);
        assert_eq!(s[1].sut.core_count(), 12);
        assert_eq!(s[2].sut.core_count(), 16);
        assert_eq!(s[3].sut.core_count(), 20);
        assert_eq!(s[4].sut.core_count(), 9, "shapes cycle");
        assert_eq!(s[4].name, "s04-g3x3");
        // Same shape, different seed: the power assignment must differ.
        let same = s[0]
            .sut
            .test_specs()
            .iter()
            .zip(s[4].sut.test_specs())
            .all(|(x, y)| (x.test_power() - y.test_power()).abs() < 1e-12);
        assert!(!same);
    }

    #[test]
    fn jobs_cross_scenarios_with_the_operating_grid() {
        let spec = ScenarioSpec {
            scenarios: 2,
            temperature_limits: vec![155.0, 165.0],
            stc_limits: vec![30.0],
            weight_factors: vec![1.1, 1.5],
            ..ScenarioSpec::default()
        };
        let corpus = spec.build().unwrap();
        assert_eq!(corpus.jobs().len(), 4);
        assert_eq!(corpus.jobs()[0].scenario, 0);
        assert_eq!(corpus.jobs()[3].scenario, 1);
        assert_eq!(corpus.jobs()[0].config.temperature_limit, 155.0);
        assert_eq!(corpus.jobs()[0].config.weight_factor, 1.1);
        assert_eq!(corpus.jobs()[1].config.weight_factor, 1.5, "factors cycle");
        assert!(corpus.jobs()[0].label.contains("TL=155"));
    }

    #[test]
    fn empty_fields_are_rejected_by_name() {
        for (field, spec) in [
            (
                "scenarios",
                ScenarioSpec {
                    scenarios: 0,
                    ..ScenarioSpec::default()
                },
            ),
            (
                "stc_limits",
                ScenarioSpec {
                    stc_limits: vec![],
                    ..ScenarioSpec::default()
                },
            ),
            (
                "orderings",
                ScenarioSpec {
                    orderings: vec![],
                    ..ScenarioSpec::default()
                },
            ),
        ] {
            match spec.build() {
                Err(ServiceError::InvalidSpec { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidSpec for {field}, got {other:?}"),
            }
        }
        // Generator-level validation propagates as Soc errors.
        let bad = ScenarioSpec {
            core_size_mm: -1.0,
            ..ScenarioSpec::default()
        };
        assert!(matches!(bad.build(), Err(ServiceError::Soc(_))));
        // Operating-point validation propagates as Schedule errors.
        let bad = ScenarioSpec {
            temperature_limits: vec![-10.0],
            ..ScenarioSpec::default()
        };
        assert!(matches!(bad.build(), Err(ServiceError::Schedule(_))));
    }

    #[test]
    fn empty_grid_shape_range_is_rejected_by_name() {
        let spec = ScenarioSpec {
            grid_shapes: vec![],
            ..ScenarioSpec::default()
        };
        match spec.build() {
            Err(ServiceError::InvalidSpec { field, .. }) => assert_eq!(field, "grid_shapes"),
            other => panic!("expected InvalidSpec for grid_shapes, got {other:?}"),
        }
        // A shape range with a zero dimension fails at the generator level.
        let spec = ScenarioSpec {
            grid_shapes: vec![(0, 3)],
            ..ScenarioSpec::default()
        };
        assert!(matches!(spec.build(), Err(ServiceError::Soc(_))));
    }

    /// A count read from a document must not reach the allocator unchecked:
    /// one whose jobs a `usize` cannot count, or whose scenarios no
    /// allocation can hold, is a typed error, not a panic or an abort.
    #[test]
    fn counts_no_allocation_can_hold_are_typed_errors() {
        for scenarios in [1 << 62, usize::MAX] {
            let spec = ScenarioSpec {
                scenarios,
                ..ScenarioSpec::default()
            };
            match spec.build() {
                Err(ServiceError::InvalidSpec { field, .. }) => assert_eq!(field, "scenarios"),
                other => panic!("expected InvalidSpec for {scenarios} scenarios, got {other:?}"),
            }
        }
    }

    /// `job_count` is the one checked product `validate` and `build` use,
    /// so a count a `usize` cannot hold is `None`, not a wrapped number or
    /// an overflow panic.
    #[test]
    fn job_count_is_none_when_a_usize_cannot_count_the_jobs() {
        let spec = ScenarioSpec {
            scenarios: usize::MAX,
            ..ScenarioSpec::default()
        };
        assert_eq!(spec.job_count(), None);
        let one_stcl = ScenarioSpec {
            stc_limits: vec![30.0],
            ..spec
        };
        assert_eq!(one_stcl.job_count(), Some(usize::MAX));
    }

    #[test]
    fn single_job_corpus_expands_deterministically() {
        let spec = ScenarioSpec {
            scenarios: 1,
            grid_shapes: vec![(3, 3)],
            temperature_limits: vec![165.0],
            stc_limits: vec![45.0],
            ..ScenarioSpec::default()
        };
        assert_eq!(spec.job_count(), Some(1));
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.scenarios().len(), 1);
        assert_eq!(a.jobs().len(), 1);
        assert_eq!(a.jobs()[0].scenario, 0);
        assert_eq!(a.jobs(), b.jobs());
        assert_eq!(a.scenarios()[0].grid, (3, 3));
        assert_eq!(a.scenarios()[0].core_size_mm, spec.core_size_mm);
        assert_eq!(a.scenarios()[0].seed, b.scenarios()[0].seed);
    }

    #[test]
    fn single_shape_corpus_shares_one_floorplan_across_scenarios() {
        // The operator cache's exactness precondition: same shape (and core
        // size) means an *identical* floorplan — only powers differ.
        let corpus = ScenarioSpec {
            scenarios: 4,
            grid_shapes: vec![(4, 3)],
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        let reference = corpus.scenarios()[0].sut.floorplan();
        for scenario in &corpus.scenarios()[1..] {
            assert_eq!(scenario.grid, (4, 3));
            let fp = scenario.sut.floorplan();
            assert_eq!(fp.block_count(), reference.block_count());
            for (a, b) in fp.blocks().iter().zip(reference.blocks()) {
                assert_eq!(a.name(), b.name());
                assert_eq!(a.rect(), b.rect());
            }
        }
    }

    #[test]
    fn default_spec_jobs_are_offline() {
        let corpus = ScenarioSpec::default().build().unwrap();
        for job in corpus.jobs() {
            assert!(job.online.is_empty());
            assert!(!job.label.contains("trace="));
            assert!(!job.label.contains("warm"));
        }
    }

    #[test]
    fn trace_families_cycle_and_seed_deterministically() {
        let spec = ScenarioSpec {
            scenarios: 2,
            trace_families: vec![
                TraceFamily::Ramp,
                TraceFamily::Periodic,
                TraceFamily::IdleGap,
            ],
            ..ScenarioSpec::default()
        };
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.jobs(), b.jobs(), "traces are a pure function of the spec");
        assert_eq!(a.jobs().len(), 4);
        let traces: Vec<_> = a.jobs().iter().map(|j| j.online.trace().unwrap()).collect();
        assert_eq!(traces[0].segment_count(), 4, "ramp");
        assert_eq!(traces[1].segment_count(), 8, "periodic");
        assert_eq!(traces[2].segment_count(), 3, "idle gap");
        assert_eq!(traces[3].segment_count(), 4, "families cycle");
        // Same family, different job index: different seeded scales.
        assert_ne!(traces[0], traces[3]);
        assert!(a.jobs()[0].label.contains("trace=ramp"));
        assert!(a.jobs()[2].label.contains("trace=idle_gap"));
        // The idle-gap family really has a zero-power middle segment.
        assert_eq!(traces[2].segments()[1].scale, 0.0);
    }

    #[test]
    fn warm_start_ranges_generate_per_core_vectors() {
        let spec = ScenarioSpec {
            scenarios: 2,
            warm_start_range: Some((50.0, 70.0)),
            ..ScenarioSpec::default()
        };
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.jobs(), b.jobs());
        for job in a.jobs() {
            let warm = job.online.warm_start().unwrap().block_temperatures();
            assert_eq!(warm.len(), a.scenarios()[job.scenario].sut.core_count());
            assert!(warm.iter().all(|&t| (50.0..=70.0).contains(&t)));
            assert!(job.label.ends_with(" warm"));
        }
        // Different jobs draw different vectors.
        assert_ne!(a.jobs()[0].online, a.jobs()[1].online);
    }

    #[test]
    fn invalid_warm_start_ranges_are_rejected_by_name() {
        for range in [
            (70.0, 50.0),
            (f64::NAN, 60.0),
            (50.0, f64::INFINITY),
            (-f64::MAX, f64::MAX),
        ] {
            let spec = ScenarioSpec {
                warm_start_range: Some(range),
                ..ScenarioSpec::default()
            };
            match spec.build() {
                Err(ServiceError::InvalidSpec { field, .. }) => {
                    assert_eq!(field, "warm_start_range")
                }
                other => panic!("expected InvalidSpec for {range:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn trace_family_labels_roundtrip_through_parse() {
        for family in [
            TraceFamily::Ramp,
            TraceFamily::Periodic,
            TraceFamily::IdleGap,
        ] {
            assert_eq!(TraceFamily::parse(family.label()), Some(family));
        }
        assert_eq!(TraceFamily::parse("square"), None);
    }

    #[test]
    fn derived_seeds_are_spread() {
        let seeds: Vec<u64> = (0..16).map(|i| derive_seed(1, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }
}
