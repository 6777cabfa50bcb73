//! Cross-crate integration tests: the thermal-aware scheduler driving the RC
//! thermal simulator over the library systems.

use std::borrow::Cow;

use thermsched::{
    CoreOrdering, ScheduleError, SchedulerConfig, SessionModelOptions, SessionThermalModel,
    ThermalAwareScheduler,
};
use thermsched_soc::{library, GeneratorConfig, SocGenerator};
use thermsched_thermal::{PackageConfig, RcThermalSimulator, SimulationFidelity, ThermalSimulator};

fn alpha_setup() -> (thermsched_soc::SystemUnderTest, RcThermalSimulator) {
    let sut = library::alpha21364_sut();
    let sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
    (sut, sim)
}

#[test]
fn full_sweep_point_is_reproducible() {
    // The scheduler is deterministic: running the same configuration twice
    // must yield identical schedules and costs.
    let (sut, sim) = alpha_setup();
    let config = SchedulerConfig::new(155.0, 60.0).unwrap();
    let a = ThermalAwareScheduler::new(&sut, &sim, config)
        .unwrap()
        .schedule()
        .unwrap();
    let b = ThermalAwareScheduler::new(&sut, &sim, config)
        .unwrap()
        .schedule()
        .unwrap();
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.simulation_effort, b.simulation_effort);
    assert_eq!(a.discarded_sessions, b.discarded_sessions);
}

#[test]
fn every_committed_session_respects_the_limit_across_the_paper_grid_corners() {
    let (sut, sim) = alpha_setup();
    for tl in [145.0, 185.0] {
        for stcl in [20.0, 100.0] {
            let config = SchedulerConfig::new(tl, stcl).unwrap();
            let outcome = ThermalAwareScheduler::new(&sut, &sim, config)
                .unwrap()
                .schedule()
                .unwrap();
            assert!(outcome.schedule.covers_exactly_once(sut.core_count()));
            assert!(
                outcome.max_temperature < tl,
                "TL={tl} STCL={stcl}: {:.1} C",
                outcome.max_temperature
            );
            // Simulation effort is at least the schedule length: every
            // committed session was simulated exactly once.
            assert!(outcome.simulation_effort >= outcome.schedule_length() - 1e-9);
        }
    }
}

#[test]
fn schedule_is_never_longer_than_sequential_testing() {
    let (sut, sim) = alpha_setup();
    for stcl in [20.0, 50.0, 100.0] {
        let config = SchedulerConfig::new(165.0, stcl).unwrap();
        let outcome = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .schedule()
            .unwrap();
        assert!(outcome.schedule_length() <= sut.sequential_test_time() + 1e-9);
    }
}

#[test]
fn steady_state_fidelity_is_more_conservative_than_transient() {
    // With the steady-state validator (the paper's upper-bound argument),
    // schedules can only get longer or equal, never less safe.
    let (sut, _) = alpha_setup();
    let transient_sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
    let steady_sim = RcThermalSimulator::from_floorplan(sut.floorplan())
        .unwrap()
        .with_fidelity(SimulationFidelity::SteadyState);
    let config = SchedulerConfig::new(160.0, 70.0).unwrap();
    let transient = ThermalAwareScheduler::new(&sut, &transient_sim, config)
        .unwrap()
        .schedule()
        .unwrap();
    let steady = ThermalAwareScheduler::new(&sut, &steady_sim, config)
        .unwrap()
        .schedule()
        .unwrap();
    assert!(steady.schedule_length() >= transient.schedule_length() - 1e-9);
    assert!(steady.max_temperature < 160.0);
}

#[test]
fn scheduler_works_with_a_custom_package_and_explicit_model() {
    let sut = library::alpha21364_sut();
    let package = PackageConfig::default()
        .with_ambient(35.0)
        .with_convection_resistance(0.2);
    let sim = RcThermalSimulator::new(sut.floorplan(), &package, Default::default()).unwrap();
    assert_eq!(sim.ambient(), 35.0);
    let options = SessionModelOptions::paper();
    let model = SessionThermalModel::new(&sut, &package, options).unwrap();
    let config = SchedulerConfig::new(150.0, 50.0).unwrap();
    let outcome = ThermalAwareScheduler::with_model(&sut, &sim, config, Cow::Owned(model))
        .unwrap()
        .schedule()
        .unwrap();
    assert!(outcome.schedule.covers_exactly_once(sut.core_count()));
    assert!(outcome.max_temperature < 150.0);
}

#[test]
fn generated_grid_systems_are_schedulable() {
    // Seeded random systems from the generator must schedule cleanly, which
    // exercises floorplan, thermal model and scheduler together on a
    // structure different from the library SoCs.
    let mut generator = SocGenerator::new(11, GeneratorConfig::default()).unwrap();
    let sut = generator.generate().unwrap();
    let sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
    let config = SchedulerConfig::new(160.0, 60.0)
        .unwrap()
        .with_ordering(CoreOrdering::DescendingCharacteristic);
    let outcome = ThermalAwareScheduler::new(&sut, &sim, config)
        .unwrap()
        .schedule()
        .unwrap();
    assert!(outcome.schedule.covers_exactly_once(sut.core_count()));
    assert!(outcome.max_temperature < 160.0);
}

#[test]
fn infeasible_core_is_reported_with_context() {
    let (sut, sim) = alpha_setup();
    // 100 C is below several single-core maxima, so phase 1 must fail.
    let config = SchedulerConfig::new(100.0, 50.0).unwrap();
    let err = ThermalAwareScheduler::new(&sut, &sim, config)
        .unwrap()
        .schedule()
        .unwrap_err();
    match err {
        ScheduleError::CoreLevelViolation { bcmt, limit, .. } => {
            assert!(bcmt >= limit);
            assert_eq!(limit, 100.0);
        }
        other => panic!("expected a core-level violation, got {other}"),
    }
}

#[test]
fn figure1_system_schedules_separate_hot_cores() {
    // On the Figure 1 system the thermal-aware scheduler must avoid testing
    // all three small cores concurrently at a tight temperature limit.
    let sut = library::figure1_sut();
    let sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
    let fp = sut.floorplan();
    let small: Vec<usize> = ["C2", "C3"]
        .iter()
        .map(|n| fp.index_of(n).unwrap())
        .collect();
    let config = SchedulerConfig::new(90.0, 40.0).unwrap();
    let outcome = ThermalAwareScheduler::new(&sut, &sim, config)
        .unwrap()
        .schedule()
        .unwrap();
    assert!(outcome.schedule.covers_exactly_once(sut.core_count()));
    assert!(outcome.max_temperature < 90.0);
    // The two interior small cores must not share a session at this limit.
    let together = outcome
        .schedule
        .iter()
        .any(|s| small.iter().all(|&c| s.contains(c)));
    assert!(
        !together,
        "C2 and C3 tested concurrently would overheat at TL = 90 C"
    );
}

#[test]
fn scheduler_accepts_the_grid_simulator_as_validator() {
    // The scheduler is generic over `ThermalSimulator`; the fine-grained grid
    // model (HotSpot's "grid mode" analogue) can replace the block-level RC
    // model as the validating simulator — on its full-fidelity
    // transient path (coarse 10 ms steps keep the debug-build run cheap; the
    // path is exact at any step size).
    use thermsched_thermal::{
        GridResolution, GridThermalSimulator, PackageConfig, TransientConfig,
    };

    let sut = library::alpha21364_sut();
    let grid = GridThermalSimulator::with_config(
        sut.floorplan(),
        &PackageConfig::default(),
        GridResolution::new(16, 16).unwrap(),
        TransientConfig {
            time_step: 1e-2,
            ..TransientConfig::default()
        },
    )
    .unwrap();
    let config = SchedulerConfig::new(170.0, 60.0).unwrap();
    let outcome = ThermalAwareScheduler::new(&sut, &grid, config)
        .unwrap()
        .schedule()
        .unwrap();
    assert!(outcome.schedule.covers_exactly_once(sut.core_count()));
    assert!(outcome.max_temperature < 170.0);

    // The block-level validator at the same operating point produces a
    // schedule of comparable length (within one session either way).
    let rc = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
    let rc_outcome = ThermalAwareScheduler::new(&sut, &rc, config)
        .unwrap()
        .schedule()
        .unwrap();
    assert!((outcome.schedule_length() - rc_outcome.schedule_length()).abs() <= 2.0);
}
