//! An executable Algorithm 1: the paper's pseudocode as directly as it
//! reads, checked against [`ThermalAwareScheduler::run`].
//!
//! The oracle tests each core alone for its best-case maximum temperature
//! (lines 1–7), grows every session greedily while its session thermal
//! characteristic, recomputed from scratch for each grown session, stays at
//! or under STCL (lines 9–15), validates every attempt with one fresh
//! `simulate_session` and no memo or store (lines 16–23), and then either
//! discards the candidate and reweights its violators (lines 19–22) or
//! commits it (lines 24–27). The repository's three extensions are plain
//! functions: `RaiseLimit`, the least-characteristic single-core fallback
//! and the frozen-weights livelock guard.
//!
//! The scheduler must give the oracle's outcome in every field but its two
//! cache counters, on every offline job of the golden corpora and on seeded
//! generated systems across orderings, weight factors, violation policies
//! and TL/STCL pairs, each run three ways: with no store, with a fresh
//! store, and with a store other configurations of the same system have
//! already characterised, run in a seeded random order.

use thermsched::{
    CoreOrdering, CoreViolationPolicy, CoreWeights, ScheduleError, ScheduleOutcome,
    SchedulerConfig, SessionCacheHandle, SessionRecord, SessionThermalModel, TestSchedule,
    TestSession, ThermalAwareScheduler,
};
use thermsched_service::Corpus;
use thermsched_soc::{GeneratorConfig, SocGenerator, SystemUnderTest};
use thermsched_thermal::{PackageConfig, RcThermalSimulator, SessionThermalResult, ThermalBackend};
use thermsched_wire::{from_document, JsonValue};

type Outcome = Result<ScheduleOutcome, ScheduleError>;

/// Algorithm 1 on `sut`, validating on `backend`, under `config`.
fn algorithm1(
    sut: &SystemUnderTest,
    backend: &dyn ThermalBackend,
    config: SchedulerConfig,
) -> Outcome {
    let model = SessionThermalModel::new(sut, &PackageConfig::default(), config.session_model)?;
    let n = sut.core_count();
    let simulate = |cores: &[usize]| -> Result<(TestSession, SessionThermalResult), ScheduleError> {
        let session = TestSession::new(cores.iter().copied(), sut);
        let result = backend.simulate_session(&session.power_map(sut)?, session.duration())?;
        Ok((session, result))
    };

    // Lines 1-7: every core tested alone.
    let mut bcmt = Vec::new();
    let mut characterization_effort = 0.0;
    for core in 0..n {
        let (session, result) = simulate(&[core])?;
        bcmt.push(result.block_max_temperature(core));
        characterization_effort += session.duration();
    }
    let limit = temperature_limit(&config, &bcmt)?;

    // Lines 8-29: session generation.
    let mut available: Vec<usize> = (0..n).collect();
    let mut weights = CoreWeights::ones(n);
    let mut schedule = TestSchedule::new();
    let mut session_records = Vec::new();
    let mut simulation_effort = 0.0;
    let mut discarded_sessions = 0;
    let mut max_temperature = f64::NEG_INFINITY;
    let mut final_temperatures = None;
    let mut discards: Vec<(Vec<usize>, usize)> = Vec::new();
    let mut iterations = 0;
    while !available.is_empty() {
        iterations += 1;
        if iterations > config.max_iterations {
            return Err(ScheduleError::IterationBudgetExhausted {
                iterations: iterations - 1,
                remaining: available.len(),
            });
        }
        // Lines 9-15: grow the session under STCL.
        let ordered = order(sut, &model, config.ordering, &available, &weights);
        let mut active: Vec<usize> = Vec::new();
        for &core in &ordered {
            let mut grown = active.clone();
            grown.push(core);
            if model.session_characteristic(&grown, &weights) <= config.stc_limit {
                active = grown;
            }
        }
        if active.is_empty() {
            active.push(least_characteristic(&model, &ordered, &weights));
        }
        if config.weight_factor == 1.0 {
            shrink_known_discards(&mut active, &discards);
        }

        // Lines 16-23: validate the candidate.
        let (session, result) = simulate(&active)?;
        simulation_effort += session.duration();
        let temperature = |core: usize| result.block_max_temperature(core);
        let violators: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&core| temperature(core) >= limit)
            .collect();
        if violators.is_empty() {
            // Lines 24-27: commit.
            let session_max = active
                .iter()
                .map(|&core| temperature(core))
                .fold(f64::NEG_INFINITY, f64::max);
            max_temperature = max_temperature.max(session_max);
            available.retain(|core| !active.contains(core));
            session_records.push(SessionRecord {
                block_max_temperatures: result.max_block_temperatures.clone(),
                max_temperature: session_max,
            });
            final_temperatures = Some(result.final_temperatures.clone());
            schedule.push(session);
        } else {
            // Lines 19-22: discard and reweight.
            discarded_sessions += 1;
            let mut hottest = violators[0];
            for &core in &violators[1..] {
                if temperature(core) >= temperature(hottest) {
                    hottest = core;
                }
            }
            let mut set = active.clone();
            set.sort_unstable();
            discards.push((set, hottest));
            for &core in &violators {
                weights.multiply(core, config.weight_factor);
            }
        }
    }
    Ok(ScheduleOutcome {
        schedule,
        session_records,
        simulation_effort,
        characterization_effort,
        discarded_sessions,
        cached_validations: 0,
        warm_cache_hits: 0,
        max_temperature,
        bcmt,
        effective_temperature_limit: limit,
        final_weights: weights,
        final_temperatures,
    })
}

/// Lines 4-6: a core that reaches TL alone fails the run, or under
/// `RaiseLimit` lifts TL to its best-case maximum plus the margin.
fn temperature_limit(config: &SchedulerConfig, bcmt: &[f64]) -> Result<f64, ScheduleError> {
    let mut limit = config.temperature_limit;
    for (core, &hottest) in bcmt.iter().enumerate() {
        if hottest >= limit {
            match config.core_violation_policy {
                CoreViolationPolicy::Fail => {
                    return Err(ScheduleError::CoreLevelViolation {
                        core,
                        bcmt: hottest,
                        limit: config.temperature_limit,
                    })
                }
                CoreViolationPolicy::RaiseLimit { margin } => limit = hottest + margin,
            }
        }
    }
    Ok(limit)
}

/// The order the fill considers the available cores in. Hottest-first is
/// the coolest-first order reversed.
fn order(
    sut: &SystemUnderTest,
    model: &SessionThermalModel,
    ordering: CoreOrdering,
    available: &[usize],
    weights: &CoreWeights,
) -> Vec<usize> {
    let mut ordered = available.to_vec();
    let alone = |core: usize| model.session_characteristic(&[core], weights);
    match ordering {
        CoreOrdering::AsGiven => {}
        CoreOrdering::DescendingPower => {
            ordered.sort_by(|&a, &b| sut.test_power(b).total_cmp(&sut.test_power(a)));
        }
        CoreOrdering::AscendingCharacteristic => {
            ordered.sort_by(|&a, &b| alone(a).total_cmp(&alone(b)));
        }
        CoreOrdering::DescendingCharacteristic => {
            ordered.sort_by(|&a, &b| alone(a).total_cmp(&alone(b)));
            ordered.reverse();
        }
    }
    ordered
}

/// When no core fits under STCL, the first core of `ordered` with the
/// least characteristic alone is tested alone.
fn least_characteristic(
    model: &SessionThermalModel,
    ordered: &[usize],
    weights: &CoreWeights,
) -> usize {
    let mut least = ordered[0];
    for &core in &ordered[1..] {
        if model.session_characteristic(&[core], weights)
            < model.session_characteristic(&[least], weights)
        {
            least = core;
        }
    }
    least
}

/// With frozen weights a discarded candidate would recur forever, so while
/// the candidate is one already discarded, its hottest violator leaves it.
fn shrink_known_discards(active: &mut Vec<usize>, discards: &[(Vec<usize>, usize)]) {
    while active.len() > 1 {
        let mut set = active.clone();
        set.sort_unstable();
        match discards
            .iter()
            .rev()
            .find(|(discarded, _)| *discarded == set)
        {
            Some(&(_, violator)) => active.retain(|&core| core != violator),
            None => break,
        }
    }
}

/// The scheduler's outcome with its cache counters cleared, as the oracle
/// reports them.
fn without_cache_counters(outcome: Outcome) -> Outcome {
    outcome.map(|outcome| ScheduleOutcome {
        cached_validations: 0,
        warm_cache_hits: 0,
        ..outcome
    })
}

/// One system under test with the configurations it is scheduled under.
struct Case {
    name: String,
    sut: SystemUnderTest,
    configs: Vec<SchedulerConfig>,
}

/// Checks every configuration of `case` against the oracle three ways, and
/// returns the oracle's outcomes; `seed` orders the runs over the shared
/// store.
fn check(case: &Case, seed: u64) -> Vec<Outcome> {
    let backend = RcThermalSimulator::from_floorplan(case.sut.floorplan()).unwrap();
    let expected: Vec<Outcome> = case
        .configs
        .iter()
        .map(|&config| algorithm1(&case.sut, &backend, config))
        .collect();
    let scheduler = |config| ThermalAwareScheduler::new(&case.sut, &backend, config).unwrap();
    for (index, (&config, expected)) in case.configs.iter().zip(&expected).enumerate() {
        let fresh = SessionCacheHandle::new();
        for (way, store) in [("no store", None), ("a fresh store", Some(&fresh))] {
            let actual = without_cache_counters(scheduler(config).run(store, None));
            assert_eq!(&actual, expected, "{} config {index} with {way}", case.name);
        }
    }
    let shared = SessionCacheHandle::new();
    for index in shuffled(case.configs.len(), seed) {
        let actual =
            without_cache_counters(scheduler(case.configs[index]).run(Some(&shared), None));
        assert_eq!(
            actual, expected[index],
            "{} config {index} with a shared store",
            case.name
        );
    }
    expected
}

/// `0..len` in an order drawn from `seed` (Fisher–Yates over splitmix64).
fn shuffled(len: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

fn golden_corpus(name: &str) -> Corpus {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("golden corpus is readable");
    from_document(&JsonValue::parse(&text).expect("golden corpus parses"))
        .expect("golden corpus decodes")
}

#[test]
fn the_scheduler_is_algorithm_1_on_every_offline_golden_job() {
    let mut jobs = 0;
    for (index, name) in ["corpus_seed7.json", "corpus_seed2005.json"]
        .iter()
        .enumerate()
    {
        let corpus = golden_corpus(name);
        for (scenario_index, scenario) in corpus.scenarios().iter().enumerate() {
            let configs: Vec<SchedulerConfig> = corpus
                .jobs()
                .iter()
                .filter(|job| job.scenario == scenario_index && job.online.is_empty())
                .map(|job| job.config)
                .collect();
            jobs += configs.len();
            let case = Case {
                name: format!("{name} {}", scenario.name),
                sut: scenario.sut.clone(),
                configs,
            };
            check(&case, index as u64);
        }
    }
    assert_eq!(jobs, 6, "the golden corpora hold six offline jobs");
}

#[test]
fn the_scheduler_is_algorithm_1_on_seeded_generated_systems() {
    let shapes = [(3, 3), (4, 3), (4, 4), (5, 3)];
    let limits = [(95.0, 15.0), (110.0, 30.0), (120.0, 60.0), (150.0, 120.0)];
    let policies = [
        CoreViolationPolicy::Fail,
        CoreViolationPolicy::RaiseLimit { margin: 5.0 },
    ];
    // Every (ordering, weight factor, policy, TL/STCL) combination, twice
    // over, eight to a system.
    let mut combinations = Vec::new();
    for ordering in CoreOrdering::ALL {
        for weight_factor in [1.0, 1.1] {
            for policy in policies {
                for (tl, stcl) in limits {
                    let config = SchedulerConfig::new(tl, stcl)
                        .unwrap()
                        .with_ordering(ordering)
                        .with_weight_factor(weight_factor)
                        .with_core_violation_policy(policy);
                    combinations.push(config);
                }
            }
        }
    }
    let (mut discarded, mut single_core, mut failed) = (0, 0, 0);
    for seed in 0..16u64 {
        let (columns, rows) = shapes[seed as usize % shapes.len()];
        let mut generator = SocGenerator::new(
            seed,
            GeneratorConfig {
                grid_columns: columns,
                grid_rows: rows,
                min_test_time: 0.5,
                max_test_time: 2.0,
                ..GeneratorConfig::default()
            },
        )
        .unwrap();
        let sut = generator.generate().unwrap();
        // Plus one whose STCL is exactly core 0's characteristic alone, so
        // the fill's first candidate sits on the limit.
        let model =
            SessionThermalModel::new(&sut, &PackageConfig::default(), Default::default()).unwrap();
        let boundary = SchedulerConfig::new(150.0, model.singleton_characteristic(0)).unwrap();
        let first = seed as usize * 8 % combinations.len();
        let mut configs = combinations[first..first + 8].to_vec();
        configs.push(boundary.with_core_violation_policy(policies[1]));
        let case = Case {
            name: format!("generated system {seed}"),
            sut,
            configs,
        };
        for outcome in check(&case, seed) {
            match outcome {
                Ok(outcome) => {
                    discarded += outcome.discarded_sessions;
                    single_core += outcome
                        .schedule
                        .iter()
                        .filter(|session| session.core_count() == 1)
                        .count();
                }
                Err(_) => failed += 1,
            }
        }
    }
    // The cases reach discards, single-core sessions and failures.
    assert!(discarded > 0);
    assert!(single_core > 0);
    assert!(failed > 0);
}
