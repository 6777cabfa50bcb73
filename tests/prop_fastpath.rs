//! Property-based equivalence of the transient solver's precomputed-operator
//! fast path (the library default since the `ThermalBackend` redesign)
//! against the sequential implicit-Euler reference, plus cache-correctness
//! properties of the scheduler's session-result cache — at the solver level,
//! the scheduler level, and through the `Engine` facade.

use proptest::prelude::*;

use thermsched::{Engine, SchedulerConfig, SessionCacheHandle, TestSession, ThermalAwareScheduler};
use thermsched_floorplan::{library as fp_library, Floorplan};
use thermsched_soc::library;
use thermsched_thermal::{
    GridResolution, GridThermalSimulator, PackageConfig, PowerMap, PowerTrace, RcThermalSimulator,
    ThermalSimulator, TransientConfig, TransientMethod, TransientSolver,
};

/// The two library floorplans the paper evaluates on.
fn library_floorplans() -> [Floorplan; 2] {
    [fp_library::alpha21364(), fp_library::figure1_system()]
}

/// Strategy: index selecting one of the two library floorplans.
fn floorplan_index() -> impl Strategy<Value = usize> {
    0usize..2
}

/// Strategy: a random per-block power level for the largest floorplan; each
/// case truncates it to the selected floorplan's block count.
fn power_levels() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..25.0, 15)
}

/// See `tests/prop_invariants.rs` for why the RNG seed is pinned (vendored
/// proptest stub only; drop when swapping in the real crate).
const PINNED_RNG_SEED: u64 = 0xFA57_2005_0002;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(PINNED_RNG_SEED))]

    #[test]
    fn fast_path_matches_implicit_euler_reference(
        fp_idx in floorplan_index(),
        levels in power_levels(),
        duration in 0.004f64..1.6,
    ) {
        let fp = &library_floorplans()[fp_idx];
        let reference = RcThermalSimulator::reference_from_floorplan(fp).unwrap();
        // Default construction selects the fast path automatically.
        let fast = RcThermalSimulator::from_floorplan(fp).unwrap();
        let power =
            PowerMap::from_vec(levels[..fp.block_count()].to_vec()).unwrap();

        let r = reference.simulate_session(&power, duration).unwrap();
        let f = fast.simulate_session(&power, duration).unwrap();
        prop_assert_eq!(r.duration, f.duration);
        for (i, (a, b)) in r
            .max_block_temperatures
            .iter()
            .zip(&f.max_block_temperatures)
            .enumerate()
        {
            prop_assert!(
                (a - b).abs() < 1e-6,
                "block {} max differs: {} vs {}", i, a, b
            );
        }
        for (a, b) in r
            .final_temperatures
            .node_temperatures()
            .iter()
            .zip(f.final_temperatures.node_temperatures())
        {
            prop_assert!((a - b).abs() < 1e-6, "final {} vs {}", a, b);
        }
    }

    #[test]
    fn fast_path_agrees_with_arbitrary_time_steps(
        levels in power_levels(),
        step_exp in 1u32..5,
    ) {
        // Equivalence must hold for non-default time steps too (different
        // step counts exercise different squaring chains).
        let fp = fp_library::alpha21364();
        let net = thermsched_thermal::ThermalNetwork::build(
            &fp,
            &thermsched_thermal::PackageConfig::default(),
        )
        .unwrap();
        let time_step = 1e-3 * f64::from(1 << step_exp);
        let config = TransientConfig {
            time_step,
            ..TransientConfig::default()
        };
        let reference = TransientSolver::new(
            &net,
            config.with_method(TransientMethod::ImplicitEuler),
        )
        .unwrap();
        let fast = TransientSolver::new(&net, config).unwrap();
        let power = PowerMap::from_vec(levels[..fp.block_count()].to_vec()).unwrap();
        let r = reference.simulate_from_ambient(&power, 0.9).unwrap();
        let f = fast.simulate_from_ambient(&power, 0.9).unwrap();
        for (a, b) in r
            .max_block_temperatures
            .iter()
            .zip(&f.max_block_temperatures)
        {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn identical_phases_are_bit_identical_to_one_constant_session(
        fp_idx in floorplan_index(),
        levels in power_levels(),
        k in 2usize..6,
        d_idx in 0usize..3,
    ) {
        // A trace of k bit-identical constant-power phases canonicalises to
        // one phase whose duration is the exact dyadic sum, so the traced
        // path must reproduce the plain constant-power session *bit for
        // bit* — the contract that keeps traced corpora from perturbing any
        // constant-power golden. Dyadic phase durations keep the summed
        // duration exactly representable.
        let fp = &library_floorplans()[fp_idx];
        let power = PowerMap::from_vec(levels[..fp.block_count()].to_vec()).unwrap();
        let phase = [0.125f64, 0.25, 0.5][d_idx];
        let total = phase * k as f64;
        let trace = PowerTrace::new(vec![(power.clone(), phase); k]).unwrap();
        prop_assert_eq!(trace.canonical().phase_count(), 1);

        let rc = RcThermalSimulator::from_floorplan(fp).unwrap();
        let t = rc.simulate_trace(&trace, None).unwrap();
        let s = rc.simulate_session(&power, total).unwrap();
        prop_assert_eq!(t.duration.to_bits(), s.duration.to_bits());
        for (a, b) in t.max_block_temperatures.iter().zip(&s.max_block_temperatures) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in t
            .final_temperatures
            .node_temperatures()
            .iter()
            .zip(s.final_temperatures.node_temperatures())
        {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // The same identity holds on the grid backend (alpha21364 only:
        // the default resolution is known to cover its every block).
        if fp_idx == 0 {
            let grid = GridThermalSimulator::new(
                fp,
                &PackageConfig::default(),
                GridResolution::default(),
            )
            .unwrap();
            let t = grid.simulate_trace(&trace, None).unwrap();
            let s = grid.simulate_session(&power, total).unwrap();
            prop_assert_eq!(t.duration.to_bits(), s.duration.to_bits());
            for (a, b) in t.max_block_temperatures.iter().zip(&s.max_block_temperatures) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in t
                .final_temperatures
                .node_temperatures()
                .iter()
                .zip(s.final_temperatures.node_temperatures())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn cached_session_result_is_identical_to_a_fresh_simulation(
        cores in proptest::collection::btree_set(0usize..15, 1..6),
    ) {
        let sut = library::alpha21364_sut();
        let sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
        let session = TestSession::new(cores.iter().copied(), &sut);
        let power = session.power_map(&sut).unwrap();
        let first = sim.simulate_session(&power, session.duration()).unwrap();

        let cache = SessionCacheHandle::new();
        cache.store(session.cores().collect(), first);
        let fresh = sim.simulate_session(&power, session.duration()).unwrap();
        let key: Vec<usize> = cores.iter().copied().collect();
        prop_assert_eq!(cache.lookup(&key), Some(fresh));
    }
}

/// The acceptance property of the fast path at the scheduler level: with the
/// session cache always on, the fast-path simulator must reproduce the
/// reference path's schedule exactly — same session sets, same simulation
/// effort, same discard count — on both library systems.
#[test]
fn scheduler_outputs_are_identical_between_solver_paths() {
    for (sut, label) in [
        (library::alpha21364_sut(), "alpha21364"),
        (library::figure1_sut(), "figure1"),
    ] {
        let reference_sim = RcThermalSimulator::reference_from_floorplan(sut.floorplan()).unwrap();
        let fast_sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
        for (tl, stcl) in [(150.0, 40.0), (165.0, 50.0), (165.0, 90.0), (180.0, 70.0)] {
            let config = SchedulerConfig::new(tl, stcl).unwrap();
            let r = ThermalAwareScheduler::new(&sut, &reference_sim, config)
                .unwrap()
                .schedule()
                .unwrap();
            let f = ThermalAwareScheduler::new(&sut, &fast_sim, config)
                .unwrap()
                .schedule()
                .unwrap();
            assert_eq!(r.schedule, f.schedule, "{label} TL={tl} STCL={stcl}");
            assert_eq!(r.simulation_effort, f.simulation_effort, "{label}");
            assert_eq!(r.discarded_sessions, f.discarded_sessions, "{label}");
            assert_eq!(r.cached_validations, f.cached_validations, "{label}");
            assert!((r.max_temperature - f.max_temperature).abs() < 1e-6);
        }
    }
}

/// The acceptance property of the redesign: `Engine::builder()` with default
/// settings auto-selects the fast path on both library SUTs and produces
/// schedules identical to the explicit implicit-Euler reference path — same
/// session sets, same effort, and per-session temperatures within 1e-6 °C.
#[test]
fn default_engine_matches_a_reference_backend_engine() {
    for (sut, label) in [
        (library::alpha21364_sut(), "alpha21364"),
        (library::figure1_sut(), "figure1"),
    ] {
        let fast_engine = Engine::builder().sut(&sut).build().unwrap();
        assert!(
            fast_engine.backend().supports_fast_path(),
            "{label}: the default engine must auto-select the fast path"
        );
        let reference_sim = RcThermalSimulator::reference_from_floorplan(sut.floorplan()).unwrap();
        let reference_engine = Engine::builder()
            .sut(&sut)
            .backend(&reference_sim)
            .build()
            .unwrap();
        assert!(!reference_engine.backend().supports_fast_path());

        for (tl, stcl) in [(150.0, 40.0), (165.0, 50.0), (165.0, 90.0), (180.0, 70.0)] {
            let config = SchedulerConfig::new(tl, stcl).unwrap();
            let f = fast_engine.schedule_with(config).unwrap();
            let r = reference_engine.schedule_with(config).unwrap();
            assert_eq!(f.schedule, r.schedule, "{label} TL={tl} STCL={stcl}");
            assert_eq!(f.simulation_effort, r.simulation_effort, "{label}");
            assert_eq!(f.discarded_sessions, r.discarded_sessions, "{label}");
            assert!((f.max_temperature - r.max_temperature).abs() < 1e-6);
            for (fr, rr) in f.session_records.iter().zip(&r.session_records) {
                for (a, b) in fr
                    .block_max_temperatures
                    .iter()
                    .zip(&rr.block_max_temperatures)
                {
                    assert!(
                        (a - b).abs() < 1e-6,
                        "{label} TL={tl} STCL={stcl}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

/// Caching must not change the paper's simulation-effort accounting: every
/// attempt — cached or simulated — accrues the full session duration, so the
/// effort identity of the seed suite still holds even when cache hits occur.
#[test]
fn simulation_effort_is_unchanged_by_caching() {
    let sut = library::alpha21364_sut();
    let sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
    // weight_factor == 1.0 freezes the weights, so discarded candidates
    // recur identically and are guaranteed to be served from the cache.
    let config = SchedulerConfig::new(150.0, 90.0)
        .unwrap()
        .with_weight_factor(1.0);
    let outcome = ThermalAwareScheduler::new(&sut, &sim, config)
        .unwrap()
        .schedule()
        .unwrap();
    let expected = outcome.schedule_length() + outcome.discarded_sessions as f64 * 1.0;
    assert!((outcome.simulation_effort - expected).abs() < 1e-9);
    assert!(
        outcome.discarded_sessions == 0 || outcome.cached_validations > 0,
        "recurring discarded candidates should hit the cache"
    );
}
