//! Differential-testing harness over the two thermal backend families.
//!
//! Both simulators are driven through identical schedules behind
//! `dyn ThermalBackend` and their answers are compared against each other
//! and against their own bounds:
//!
//! 1. **Grid transient ≤ grid steady state** — the transient response of a
//!    first-order thermal network under constant power from ambient never
//!    overshoots its steady state, so the full-fidelity grid path must sit
//!    at or below the modification-1 upper-bound path, block by block and
//!    session by session.
//! 2. **RC vs grid agreement on matched floorplans** — the two models share
//!    the physics but differ in spreading fidelity (one node per block vs a
//!    cell mesh), so they must name the same hottest block and agree on the
//!    temperature *rise* within a documented factor band:
//!    `0.5 × rc < grid < 2.0 × rc` (the band the grid model's own unit
//!    suite established for steady state, inherited here by the long-session
//!    transient limits).
//! 3. **Worker-count invariance with the operator cache on** — sharing one
//!    backend instance across same-shape scenarios must leave the service's
//!    per-job results byte-identical at any worker count, for both backend
//!    kinds.
//! 4. **ADI vs banded** — the Peaceman–Rachford stepper is a different
//!    `O(Δt)` discretisation of the same cell network, so per session every
//!    block must track the banded implicit-Euler reference within a
//!    documented fraction of that session's peak rise.
//! 5. **Operator-key distinctness** — backend kinds that build different
//!    operators (different time step, method or cells-per-core) must never
//!    alias one operator-cache entry.

use thermsched::{ScheduleValidator, SequentialScheduler, TestSchedule};
use thermsched_service::{BackendKind, ScenarioSpec, ServiceConfig, ServiceRunner};
use thermsched_soc::{library, SystemUnderTest};
use thermsched_thermal::{
    GridResolution, GridThermalSimulator, PackageConfig, RcThermalSimulator, SimulationFidelity,
    ThermalBackend, ThermalSimulator, TransientConfig, TransientMethod,
};

/// Documented RC-vs-grid tolerance: the factor band on the temperature rise
/// of matched blocks. The models agree on physics, not on spreading
/// resolution, so rises match within a factor of two in either direction.
const RC_GRID_RISE_BAND: (f64, f64) = (0.5, 2.0);

fn coarse() -> TransientConfig {
    // 10 ms steps: exact at any step size, cheap in debug builds.
    TransientConfig {
        time_step: 1e-2,
        ..TransientConfig::default()
    }
}

fn grid_backend(sut: &SystemUnderTest, fidelity: SimulationFidelity) -> GridThermalSimulator {
    GridThermalSimulator::with_config(
        sut.floorplan(),
        &PackageConfig::default(),
        GridResolution::new(16, 16).unwrap(),
        coarse(),
    )
    .unwrap()
    .with_fidelity(fidelity)
}

/// The identical schedule every backend is driven through: the sequential
/// baseline (one core per session) plus a handful of hand-built multi-core
/// sessions covering light and heavy load.
fn shared_schedule(sut: &SystemUnderTest) -> TestSchedule {
    let mut schedule = SequentialScheduler::new().schedule(sut);
    for cores in [vec![0, 1], vec![2, 5, 9], vec![3, 7, 11, 14]] {
        schedule.push(thermsched::TestSession::new(cores, sut));
    }
    schedule
}

#[test]
fn grid_transient_never_exceeds_the_grid_steady_state_bound() {
    let sut = library::alpha21364_sut();
    let transient = grid_backend(&sut, SimulationFidelity::Transient);
    let steady = grid_backend(&sut, SimulationFidelity::SteadyState);
    let schedule = shared_schedule(&sut);

    let eval_t = ScheduleValidator::new(&sut, &transient as &dyn ThermalBackend)
        .unwrap()
        .evaluate(&schedule)
        .unwrap();
    let eval_s = ScheduleValidator::new(&sut, &steady as &dyn ThermalBackend)
        .unwrap()
        .evaluate(&schedule)
        .unwrap();
    assert_eq!(eval_t.sessions.len(), eval_s.sessions.len());
    for (t, s) in eval_t.sessions.iter().zip(&eval_s.sessions) {
        assert_eq!(t.cores, s.cores);
        for (block, (bt, bs)) in t
            .block_max_temperatures
            .iter()
            .zip(&s.block_max_temperatures)
            .enumerate()
        {
            assert!(
                bt <= &(bs + 1e-6),
                "session {:?} block {block}: transient {bt} above steady bound {bs}",
                t.cores
            );
        }
        assert!(t.max_temperature <= s.max_temperature + 1e-6);
    }
}

#[test]
fn rc_and_grid_transients_agree_within_the_documented_band() {
    let sut = library::alpha21364_sut();
    let rc = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
    let grid = grid_backend(&sut, SimulationFidelity::Transient);
    let backends: [&dyn ThermalBackend; 2] = [&rc, &grid];
    let schedule = shared_schedule(&sut);

    let evals: Vec<_> = backends
        .iter()
        .map(|backend| {
            ScheduleValidator::new(&sut, *backend)
                .unwrap()
                .evaluate(&schedule)
                .unwrap()
        })
        .collect();
    let ambient = rc.network().ambient();
    for (e_rc, e_grid) in evals[0].sessions.iter().zip(&evals[1].sessions) {
        // Same hottest block on every single-core session: with one heat
        // source there is no ambiguity for spreading fidelity to resolve
        // differently. (Multi-core sessions may legitimately rank near-tied
        // active cores differently; they are held to the rise band below.)
        let hottest = |e: &thermsched::SessionEvaluation| {
            e.block_max_temperatures
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap()
        };
        if e_rc.cores.len() == 1 {
            assert_eq!(
                hottest(e_rc),
                hottest(e_grid),
                "session {:?}: models disagree on the hottest block",
                e_rc.cores
            );
        }
        // Rise within the documented factor band, per active core.
        for &core in &e_rc.cores {
            let rise_rc = e_rc.block_max_temperatures[core] - ambient;
            let rise_grid = e_grid.block_max_temperatures[core] - ambient;
            assert!(
                rise_grid > RC_GRID_RISE_BAND.0 * rise_rc
                    && rise_grid < RC_GRID_RISE_BAND.1 * rise_rc,
                "session {:?} core {core}: grid rise {rise_grid:.2} outside \
                 [{:.1}x, {:.1}x] of rc rise {rise_rc:.2}",
                e_rc.cores,
                RC_GRID_RISE_BAND.0,
                RC_GRID_RISE_BAND.1
            );
        }
    }
}

#[test]
fn long_sessions_converge_toward_each_backends_steady_state() {
    // As sessions grow, each transient backend converges to its *own*
    // steady state — and those steady states again sit within the
    // documented band of each other. (The RC model's package nodes keep it
    // converging for tens of seconds, so it is compared at a looser bound.)
    let sut = library::alpha21364_sut();
    let rc = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
    let grid = grid_backend(&sut, SimulationFidelity::Transient);
    let mut power = thermsched_thermal::PowerMap::zeros(sut.core_count());
    power.set(5, 14.0).unwrap();
    power.set(12, 10.0).unwrap();

    let grid_long = grid.simulate_session(&power, 3.0).unwrap();
    let grid_ss = grid.steady_state(&power).unwrap();
    for block in 0..sut.core_count() {
        let rise = (grid_ss.block(block) - grid.ambient()).abs().max(1.0);
        assert!(
            (grid_long.block_max_temperature(block) - grid_ss.block(block)).abs() < 0.02 * rise,
            "grid block {block} not settled after 3 s"
        );
    }

    let rc_long = rc.simulate_session(&power, 3.0).unwrap();
    let rc_ss = rc.steady_state(&power).unwrap();
    for block in 0..sut.core_count() {
        let t = rc_long.block_max_temperature(block);
        assert!(t <= rc_ss.block(block) + 1e-6, "rc never overshoots");
    }

    // Cross-model: the steady limits stay inside the documented band.
    for block in [5usize, 12] {
        let rise_rc = rc_ss.block(block) - rc.ambient();
        let rise_grid = grid_ss.block(block) - grid.ambient();
        assert!(
            rise_grid > RC_GRID_RISE_BAND.0 * rise_rc && rise_grid < RC_GRID_RISE_BAND.1 * rise_rc,
            "steady-state rises diverged on block {block}: {rise_grid:.2} vs {rise_rc:.2}"
        );
    }
}

/// Documented ADI-vs-banded tolerance: per session, every block's maximum
/// must sit within this fraction of the *session's peak rise* of the banded
/// reference. The two steppers discretise the same network with the same
/// `O(Δt)` order, but split the operator differently, so they differ by a
/// small fraction of the dominant excursion — never by a fraction of every
/// block's own (possibly tiny) far-field rise.
const ADI_BANDED_PEAK_RISE_BAND: f64 = 0.05;

#[test]
fn adi_grid_tracks_the_banded_grid_within_the_documented_band() {
    let sut = library::alpha21364_sut();
    let banded = grid_backend(&sut, SimulationFidelity::Transient);
    let adi = GridThermalSimulator::with_config(
        sut.floorplan(),
        &PackageConfig::default(),
        GridResolution::new(16, 16).unwrap(),
        coarse().with_method(TransientMethod::Adi),
    )
    .unwrap();
    assert_eq!(ThermalBackend::backend_name(&adi), "grid-transient-adi");
    assert!(!adi.supports_fast_path(), "ADI maxima are tracked per step");
    let backends: [&dyn ThermalBackend; 2] = [&banded, &adi];
    let schedule = shared_schedule(&sut);

    let evals: Vec<_> = backends
        .iter()
        .map(|backend| {
            ScheduleValidator::new(&sut, *backend)
                .unwrap()
                .evaluate(&schedule)
                .unwrap()
        })
        .collect();
    let ambient = banded.ambient();
    for (e_banded, e_adi) in evals[0].sessions.iter().zip(&evals[1].sessions) {
        assert_eq!(e_banded.cores, e_adi.cores);
        let peak_rise = e_banded
            .block_max_temperatures
            .iter()
            .map(|t| t - ambient)
            .fold(0.0, f64::max);
        assert!(peak_rise > 0.0);
        for (block, (tb, ta)) in e_banded
            .block_max_temperatures
            .iter()
            .zip(&e_adi.block_max_temperatures)
            .enumerate()
        {
            assert!(
                (ta - tb).abs() <= ADI_BANDED_PEAK_RISE_BAND * peak_rise,
                "session {:?} block {block}: adi {ta:.4} vs banded {tb:.4} \
                 (peak rise {peak_rise:.4})",
                e_banded.cores
            );
        }
    }
}

#[test]
fn operator_keys_cannot_alias_backends_differing_in_step_or_resolution() {
    // Satellite of the PR-6 bugfix sweep: the operator-cache key must carry
    // *everything* backend construction depends on. Two kinds differing only
    // in Δt (down to the last bit), in method, or in cells-per-core build
    // different operators and must never share a cache entry.
    let corpus = ScenarioSpec {
        seed: 7,
        scenarios: 1,
        grid_shapes: vec![(3, 3)],
        stc_limits: vec![40.0],
        ..ScenarioSpec::default()
    }
    .build()
    .unwrap();
    let scenario = &corpus.scenarios()[0];
    let kinds = [
        BackendKind::RcCompact,
        BackendKind::GridTransient { cells_per_core: 3 },
        BackendKind::GridTransient { cells_per_core: 4 },
        BackendKind::GridAdi {
            cells_per_core: 3,
            time_step: 1e-3,
        },
        BackendKind::GridAdi {
            cells_per_core: 3,
            time_step: 1e-2,
        },
        BackendKind::GridAdi {
            cells_per_core: 3,
            // One ulp away from 1e-3: a rounded decimal rendering would
            // collapse this onto the key above.
            time_step: f64::from_bits(1e-3_f64.to_bits() + 1),
        },
        BackendKind::GridAdi {
            cells_per_core: 4,
            time_step: 1e-3,
        },
    ];
    let keys: Vec<String> = kinds
        .iter()
        .map(|kind| kind.key(scenario).to_string())
        .collect();
    let unique: std::collections::HashSet<&String> = keys.iter().collect();
    assert_eq!(unique.len(), kinds.len(), "operator keys alias: {keys:#?}");
    // The key is a pure function of (kind, scenario): recomputing it must
    // reproduce the same entry, else caching would never hit at all.
    for (kind, key) in kinds.iter().zip(&keys) {
        assert_eq!(&kind.key(scenario).to_string(), key);
    }
}

#[test]
fn operator_cache_results_are_worker_count_invariant() {
    // Every scenario shares one grid shape — maximal operator-cache reuse —
    // and the per-job results must be byte-identical at any worker count,
    // for both backend kinds.
    let spec = ScenarioSpec {
        seed: 91,
        scenarios: 3,
        grid_shapes: vec![(3, 3)],
        stc_limits: vec![40.0],
        ..ScenarioSpec::default()
    };
    let corpus = spec.build().unwrap();
    for backend in [
        BackendKind::RcCompact,
        BackendKind::GridTransient { cells_per_core: 3 },
    ] {
        let run = |workers: usize| {
            ServiceRunner::new(ServiceConfig {
                workers,
                backend,
                ..ServiceConfig::default()
            })
            .unwrap()
            .run(&corpus)
            .unwrap()
        };
        let reference = run(1);
        assert_eq!(
            reference.stats().completed,
            corpus.jobs().len(),
            "{backend:?}: corpus must complete"
        );
        assert_eq!(reference.stats().operator_cache.misses, 1);
        assert_eq!(reference.stats().operator_cache.hits, 2);
        for workers in [2, 4] {
            let report = run(workers);
            assert_eq!(
                report.jobs(),
                reference.jobs(),
                "{backend:?} at {workers} workers changed a job result"
            );
            assert_eq!(report.render_jobs(), reference.render_jobs());
            assert_eq!(
                report.stats().operator_cache,
                reference.stats().operator_cache
            );
        }
    }
}
