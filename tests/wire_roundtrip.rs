//! Property-based round-trip tests for every [`Wire`] type in the
//! workspace, plus malformed-input typed-error coverage.
//!
//! The codec contract under test: for any value `v` of a wire type,
//! `decode(encode(v))` re-encodes to byte-identical output in *both*
//! encodings (canonical JSON text and framed binary), finite `f64` fields
//! included bit-for-bit. Types without `PartialEq` (corpus, scenario) are
//! checked through their canonical renderings, which is the same identity —
//! the canonical JSON of a value *is* its equality witness on the wire.
//!
//! Every property derives its cases from a pinned base seed (see
//! `tests/prop_invariants.rs` for the rationale), so CI failures replay
//! identically anywhere.

use proptest::prelude::*;

use thermsched::{
    CoreOrdering, CoreViolationPolicy, OperatorCacheStats, SchedulerConfig, SessionModelOptions,
    StoreStats, TestSchedule, TestSession, TraceSegment,
};
use thermsched_floorplan::{Block, Floorplan, Rect};
use thermsched_obs::{Attr, AttrValue, HistogramSnapshot, SpanRecord};
use thermsched_service::{
    worker_serve, BackendKind, ClockKind, FaultPlan, JobMetrics, JobOutcome, JobResult,
    LatencyStats, Rejected, RetryPolicy, ScenarioSpec, ServiceConfig, ServiceError, ServiceReport,
    ServiceRunner, ServiceStats, ShedCause, PROTOCOL_VERSION,
};
use thermsched_soc::{library as soc_library, GeneratorConfig, SocGenerator, SystemUnderTest};
use thermsched_thermal::{Material, PackageConfig, PowerMap};
use thermsched_wire::frame::write_frame;
use thermsched_wire::{
    decode_value, encode_value, from_document, obj, to_document, JsonValue, Wire, WireError,
};

/// Base RNG seed pinned for CI reproducibility (vendored-stub API; see the
/// note in `tests/prop_invariants.rs`).
const PINNED_RNG_SEED: u64 = 0xDA7E_2005_0008;

/// The core round-trip identity, checked without needing `PartialEq`:
/// decoding either encoding and re-encoding must reproduce the exact bytes,
/// and the document envelope must survive a full out-and-back.
fn roundtrip<T: Wire>(value: &T) -> Result<(), TestCaseError> {
    let fail = |stage: &str, e: WireError| TestCaseError::fail(format!("{stage}: {e}"));
    let json = value.to_json().map_err(|e| fail("to_json", e))?;
    let back = T::from_json(&json).map_err(|e| fail("from_json", e))?;
    prop_assert_eq!(
        back.to_json().map_err(|e| fail("re-encode json", e))?,
        json.clone()
    );
    let binary = value.to_binary().map_err(|e| fail("to_binary", e))?;
    let back = T::from_binary(&binary).map_err(|e| fail("from_binary", e))?;
    prop_assert_eq!(
        back.to_binary().map_err(|e| fail("re-encode binary", e))?,
        binary
    );
    let document = to_document(value);
    let text = document
        .render_pretty()
        .map_err(|e| fail("render document", e))?;
    let back: T = from_document(&JsonValue::parse(&text).map_err(|e| fail("parse document", e))?)
        .map_err(|e| fail("from_document", e))?;
    prop_assert_eq!(back.to_json().map_err(|e| fail("re-encode doc", e))?, json);
    Ok(())
}

/// Round-trip plus value equality, for types with `PartialEq`.
fn roundtrip_eq<T: Wire + PartialEq + std::fmt::Debug>(value: &T) -> Result<(), TestCaseError> {
    roundtrip(value)?;
    prop_assert_eq!(&T::from_json(&value.to_json().unwrap()).unwrap(), value);
    prop_assert_eq!(&T::from_binary(&value.to_binary().unwrap()).unwrap(), value);
    Ok(())
}

/// Folds arbitrary bits into a *finite* f64 keeping the interesting
/// structure (sign, mantissa, subnormals): a NaN/Inf bit pattern has all
/// exponent bits set, so flipping them off yields a subnormal instead.
fn finite_f64(bits: u64) -> f64 {
    let f = f64::from_bits(bits);
    if f.is_finite() {
        f
    } else {
        f64::from_bits(bits ^ (0x7ff << 52))
    }
}

/// SplitMix64 step — the tests' own tiny deterministic stream for growing
/// recursive structures from a single sampled seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An arbitrary JSON tree: every node kind, escaped and multi-byte string
/// content, extreme integers, bit-pattern floats.
fn arbitrary_json(state: &mut u64, depth: usize) -> JsonValue {
    let pick = mix(state) % if depth == 0 { 7 } else { 9 };
    match pick {
        0 => JsonValue::Null,
        1 => JsonValue::from(mix(state).is_multiple_of(2)),
        2 => JsonValue::from(mix(state)),
        3 => JsonValue::from(mix(state) as i64),
        4 => JsonValue::from(finite_f64(mix(state))),
        5 => {
            let glyphs = ["a", "\"", "\\", "\n", "\t", "µ", "温", "\u{1}", " ", "0"];
            let n = (mix(state) % 12) as usize;
            let s: String = (0..n)
                .map(|_| glyphs[(mix(state) % glyphs.len() as u64) as usize])
                .collect();
            JsonValue::from(s)
        }
        6 => JsonValue::from(i64::MIN + (mix(state) % 3) as i64),
        7 => {
            let n = (mix(state) % 4) as usize;
            JsonValue::Array((0..n).map(|_| arbitrary_json(state, depth - 1)).collect())
        }
        _ => {
            let n = (mix(state) % 4) as usize;
            JsonValue::Object(
                (0..n)
                    .map(|i| (format!("k{i}").into(), arbitrary_json(state, depth - 1)))
                    .collect(),
            )
        }
    }
}

fn backend_kind(sel: u64, cells: usize, dt: f64) -> BackendKind {
    match sel % 3 {
        0 => BackendKind::RcCompact,
        1 => BackendKind::GridTransient {
            cells_per_core: cells,
        },
        _ => BackendKind::GridAdi {
            cells_per_core: cells,
            time_step: dt,
        },
    }
}

const ORDERINGS: [CoreOrdering; 4] = [
    CoreOrdering::AsGiven,
    CoreOrdering::DescendingPower,
    CoreOrdering::DescendingCharacteristic,
    CoreOrdering::AscendingCharacteristic,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(PINNED_RNG_SEED))]

    /// Finite f64 values survive the JSON text encoding bit-for-bit
    /// (shortest-round-trip printing + correctly-rounded parsing) and the
    /// binary encoding trivially; non-finite values are rejected with the
    /// typed `NonFinite` error, never silently mangled.
    #[test]
    fn f64_bits_roundtrip_exactly_or_reject(bits in 0u64..=u64::MAX) {
        let f = f64::from_bits(bits);
        let value = obj().field("x", f).build();
        if f.is_finite() {
            let text = value.render_pretty().unwrap();
            let parsed = JsonValue::parse(&text).unwrap();
            prop_assert_eq!(parsed.decode::<f64>("t", "x").unwrap().to_bits(), bits);
            let binary = encode_value(&value).unwrap();
            let decoded = decode_value(&binary).unwrap();
            prop_assert_eq!(decoded.decode::<f64>("t", "x").unwrap().to_bits(), bits);
        } else {
            prop_assert!(matches!(value.render_pretty(), Err(WireError::NonFinite { .. })));
            prop_assert!(matches!(encode_value(&value), Err(WireError::NonFinite { .. })));
        }
    }

    /// Arbitrary JSON trees round-trip through both codecs: text
    /// render→parse→render and binary encode→decode→encode are identities.
    #[test]
    fn arbitrary_json_trees_roundtrip(seed in 0u64..=u64::MAX, depth in 1usize..4) {
        let mut state = seed;
        let value = arbitrary_json(&mut state, depth);
        let text = value.render_pretty().unwrap();
        let reparsed = JsonValue::parse(&text).unwrap();
        prop_assert_eq!(reparsed.render_pretty().unwrap(), text);
        let binary = encode_value(&value).unwrap();
        let decoded = decode_value(&binary).unwrap();
        prop_assert_eq!(encode_value(&decoded).unwrap(), binary);
    }

    /// Floorplans (and through them blocks and rects) built on an arbitrary
    /// grid round-trip by value.
    #[test]
    fn floorplans_roundtrip(
        cols in 1usize..5,
        rows in 1usize..4,
        w in 0.5f64..8.0,
        h in 0.5f64..8.0,
    ) {
        let blocks: Vec<Block> = (0..cols * rows)
            .map(|i| {
                Block::from_mm(
                    format!("c{i}"),
                    w,
                    h,
                    (i % cols) as f64 * w,
                    (i / cols) as f64 * h,
                )
            })
            .collect();
        let fp = Floorplan::new(blocks).unwrap();
        roundtrip_eq(&fp)?;
        roundtrip_eq(fp.blocks().first().unwrap())?;
        roundtrip_eq(fp.blocks().first().unwrap().rect())?;
    }

    /// Generator-produced systems under test (floorplan + per-core specs)
    /// round-trip by value, whatever the seed.
    #[test]
    fn generated_suts_roundtrip(seed in 0u64..=u64::MAX, cols in 1usize..4, rows in 1usize..4) {
        let sut = SocGenerator::new(
            seed,
            GeneratorConfig {
                grid_columns: cols,
                grid_rows: rows,
                ..GeneratorConfig::default()
            },
        )
        .unwrap()
        .generate()
        .unwrap();
        roundtrip_eq(&sut)?;
        roundtrip_eq(sut.test_specs().first().unwrap())?;
    }

    /// Thermal configuration types with randomized finite parameters.
    #[test]
    fn thermal_types_roundtrip(
        cond in 0.5f64..400.0,
        cap in 1e5f64..5e6,
        ambient in 10.0f64..60.0,
        bits in proptest::collection::vec(0u64..=u64::MAX, 0..6),
    ) {
        let material = Material::new(cond, cap).unwrap();
        roundtrip_eq(&material)?;
        let package = PackageConfig::default().with_ambient(ambient);
        roundtrip_eq(&package)?;
        let powers: Vec<f64> = bits.iter().map(|&b| finite_f64(b).abs()).collect();
        roundtrip_eq(&PowerMap::from_vec(powers).unwrap())?;
    }

    /// Scheduler configuration and its nested enums round-trip by value.
    #[test]
    fn scheduler_configs_roundtrip(
        tl in 120.0f64..200.0,
        stc in 5.0f64..100.0,
        wf in 1.0f64..3.0,
        ordering_sel in 0usize..4,
        policy_sel in 0usize..2,
        margin in 0.5f64..20.0,
    ) {
        let ordering = ORDERINGS[ordering_sel];
        let policy = if policy_sel == 0 {
            CoreViolationPolicy::Fail
        } else {
            CoreViolationPolicy::RaiseLimit { margin }
        };
        let config = SchedulerConfig::new(tl, stc)
            .unwrap()
            .with_weight_factor(wf)
            .with_ordering(ordering)
            .with_core_violation_policy(policy);
        roundtrip_eq(&config)?;
        roundtrip_eq(&ordering)?;
        roundtrip_eq(&policy)?;
        roundtrip_eq(&config.session_model)?;
    }

    /// Sessions over arbitrary core subsets, and schedules made of them,
    /// round-trip without needing the system under test they came from.
    #[test]
    fn schedules_roundtrip(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0usize..15, 1..6),
            0..5,
        ),
    ) {
        let sut = soc_library::alpha21364_sut();
        let schedule: TestSchedule = sets
            .iter()
            .map(|cores| TestSession::new(cores.iter().copied(), &sut))
            .collect();
        for session in schedule.sessions() {
            roundtrip_eq(session)?;
        }
        roundtrip_eq(&schedule)?;
    }

    /// Cache statistics with arbitrary u64 counters.
    #[test]
    fn cache_stats_roundtrip(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX, c in 0u64..=u64::MAX) {
        roundtrip_eq(&StoreStats { lookups: a, hits: b, insertions: c, contended_locks: a ^ b })?;
        roundtrip_eq(&OperatorCacheStats { hits: a, misses: c })?;
    }

    /// Service configuration: every backend and clock kind, fault plans
    /// and retry policies with randomized (valid) parameters.
    #[test]
    fn service_configs_roundtrip(
        workers in 1usize..9,
        backend_sel in 0u64..=u64::MAX,
        cells in 1usize..5,
        dt in 0.001f64..0.1,
        rate in 0.0f64..0.25,
        delay in 0.0f64..0.1,
        seed in 0u64..=u64::MAX,
        attempts in 1u32..6,
        deadline in 0usize..2,
        effort in 0.5f64..100.0,
    ) {
        let faults = FaultPlan {
            seed,
            panic_rate: rate,
            error_rate: rate / 2.0,
            delay_rate: rate / 3.0,
            delay_seconds: delay,
            poison_rate: rate / 4.0,
        };
        let retry = RetryPolicy {
            max_attempts: attempts,
            backoff_base_seconds: delay,
            backoff_multiplier: 1.0 + rate,
            backoff_jitter: rate,
            seed,
        };
        let config = ServiceConfig {
            workers,
            backend: backend_kind(backend_sel, cells, dt),
            faults,
            retry,
            clock: if seed % 2 == 0 { ClockKind::Wall } else { ClockKind::Virtual },
            deadline_effort: (deadline == 1).then_some(effort),
        };
        roundtrip_eq(&faults)?;
        roundtrip_eq(&retry)?;
        roundtrip_eq(&config.backend)?;
        roundtrip_eq(&config.clock)?;
        roundtrip_eq(&config)?;
    }

    /// Every job outcome variant — including the nested rejection and shed
    /// causes — round-trips inside a full job result.
    #[test]
    fn job_outcomes_roundtrip(
        sel in 0usize..10,
        bits in 0u64..=u64::MAX,
        attempts in 1u32..6,
        n in 0usize..1000,
    ) {
        let metric = finite_f64(bits).abs();
        let outcome = match sel {
            0 => JobOutcome::Completed(JobMetrics {
                schedule_length: metric,
                session_count: n,
                simulation_effort: metric * 2.0,
                characterization_effort: metric / 2.0,
                discarded_sessions: n / 3,
                max_temperature: finite_f64(bits.rotate_left(13)),
                effective_temperature_limit: 120.0,
                attempts,
            }),
            1 => JobOutcome::Failed {
                error: format!("error {n}"),
                retryable: n % 2 == 0,
                attempts,
            },
            2 => JobOutcome::Panicked {
                message: format!("panic \"{n}\"\n"),
                attempts,
            },
            3 => JobOutcome::DeadlineExceeded {
                spent_effort: metric,
                budget: metric / 2.0,
                attempts,
            },
            4 => JobOutcome::Shed(ShedCause::Displaced),
            5 => JobOutcome::Shed(ShedCause::Drained),
            6 => JobOutcome::Rejected(Rejected::QueueFull { capacity: n }),
            7 => JobOutcome::Rejected(Rejected::Draining),
            8 => JobOutcome::Rejected(Rejected::UnknownScenario {
                scenario: n,
                scenario_count: n / 2,
            }),
            _ => JobOutcome::Rejected(Rejected::InvalidDeadline),
        };
        roundtrip_eq(&outcome)?;
        let result = JobResult {
            index: n,
            scenario: n % 7,
            scenario_name: format!("s{n}"),
            label: format!("TL=µ {n}"),
            outcome,
        };
        roundtrip_eq(&result)?;
        roundtrip_eq(&LatencyStats::from_samples(&[metric, metric / 2.0, metric * 3.0]))?;
    }
}

proptest! {
    // Corpus construction generates full systems under test per case, so
    // this block runs fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(8).with_rng_seed(PINNED_RNG_SEED))]

    /// Scenario specs round-trip by value; the corpora they expand to
    /// (scenarios, jobs, systems under test) round-trip by canonical
    /// rendering, which is the same identity without `PartialEq`.
    #[test]
    fn specs_and_corpora_roundtrip(
        seed in 0u64..=u64::MAX,
        scenarios in 1usize..3,
        tl in 110.0f64..150.0,
        stc in 20.0f64..80.0,
        margin_sel in 0usize..2,
    ) {
        let spec = ScenarioSpec {
            seed,
            scenarios,
            grid_shapes: vec![(3, 3), (4, 3)],
            temperature_limits: vec![tl],
            stc_limits: vec![stc],
            raise_limit_margin: (margin_sel == 1).then_some(5.0),
            ..ScenarioSpec::default()
        };
        roundtrip_eq(&spec)?;
        let corpus = spec.build().unwrap();
        roundtrip(&corpus)?;
        for scenario in corpus.scenarios() {
            roundtrip(scenario)?;
        }
        for job in corpus.jobs() {
            roundtrip_eq(job)?;
        }
    }

    /// A real batch report — produced by the in-process runner on a small
    /// random corpus — round-trips by value, stats and all.
    #[test]
    fn service_reports_roundtrip(seed in 0u64..=u64::MAX) {
        let corpus = ScenarioSpec {
            seed,
            scenarios: 1,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        let report = ServiceRunner::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        roundtrip_eq(&report)?;
        roundtrip_eq(report.stats())?;
    }
}

/// Malformed input must produce *typed* errors — never panics, never
/// default-filled values. One probe per error variant class.
#[test]
fn malformed_inputs_are_typed_errors() {
    // Truncated binary stream.
    let bytes = FaultPlan::none().to_binary().unwrap();
    assert!(matches!(
        FaultPlan::from_binary(&bytes[..bytes.len() - 3]),
        Err(WireError::Truncated { .. })
    ));
    // An unknown binary tag byte.
    assert!(matches!(
        decode_value(&[0xee]),
        Err(WireError::BadTag { tag: 0xee })
    ));
    // JSON grammar defects.
    assert!(matches!(
        JsonValue::parse("{\"a\": tru"),
        Err(WireError::Parse { .. })
    ));
    // Structurally fine, domain-invalid: a fault rate outside [0, 1].
    let bad = obj()
        .field("seed", 1u64)
        .field("panic_rate", 2.0)
        .field("error_rate", 0.0)
        .field("delay_rate", 0.0)
        .field("delay_seconds", 0.0)
        .field("poison_rate", 0.0)
        .build();
    assert!(matches!(
        FaultPlan::from_wire(&bad),
        Err(WireError::Invalid {
            type_name: "fault_plan",
            ..
        })
    ));
    // Unknown enum variant.
    assert!(matches!(
        ClockKind::from_wire(&JsonValue::from("sundial")),
        Err(WireError::UnknownVariant { .. })
    ));
    // Document envelope defects: foreign version, wrong type tag.
    let mut doc = to_document(&FaultPlan::none());
    if let JsonValue::Object(entries) = &mut doc {
        for (key, value) in entries.iter_mut() {
            if key == "version" {
                *value = JsonValue::from(9u64);
            }
        }
    }
    assert!(matches!(
        from_document::<FaultPlan>(&doc),
        Err(WireError::UnsupportedVersion { found: 9, .. })
    ));
    assert!(matches!(
        from_document::<RetryPolicy>(&to_document(&FaultPlan::none())),
        Err(WireError::WrongDocumentType { .. })
    ));
}

/// The documented edge shapes: an empty corpus is a legal wire value; an
/// empty (zero-core) floorplan is not a legal domain value and decodes to
/// the typed domain error instead of a hollow structure.
#[test]
fn empty_structures_have_defined_wire_behaviour() {
    let empty = thermsched_service::Corpus::from_json("{\"scenarios\": [], \"jobs\": []}").unwrap();
    assert!(empty.jobs().is_empty());
    assert_eq!(
        thermsched_service::Corpus::from_json(&empty.to_json().unwrap())
            .unwrap()
            .to_json()
            .unwrap(),
        empty.to_json().unwrap()
    );
    assert!(matches!(
        Floorplan::from_json("{\"blocks\": []}"),
        Err(WireError::Invalid {
            type_name: "floorplan",
            ..
        })
    ));
    assert!(matches!(
        SystemUnderTest::from_json("{\"floorplan\": {\"blocks\": []}, \"test_specs\": []}"),
        Err(WireError::Invalid { .. })
    ));
    // An empty schedule is legal — it is just a schedule with no sessions.
    let empty_schedule = TestSchedule::new();
    assert_eq!(
        TestSchedule::from_json(&empty_schedule.to_json().unwrap()).unwrap(),
        empty_schedule
    );
}

/// A value of another JSON type than `value`, which no decoder of that
/// slot accepts (scalars become strings or booleans, containers strings).
fn wrong_typed(value: &JsonValue) -> JsonValue {
    match value {
        JsonValue::String(_) | JsonValue::Array(_) => JsonValue::Bool(true),
        _ => JsonValue::from("wrong"),
    }
}

/// Every field of an object-shaped type is required and typed: dropping
/// one reports `MissingField` with the type's tag and the field's name,
/// and a wrong-typed value reports `WrongType`. `untyped` names fields
/// that accept any scalar, which skip the wrong-type probe.
fn check_fields<T: Wire>(value: &T, untyped: &[&str]) {
    let JsonValue::Object(entries) = value.to_wire() else {
        panic!("{} encodes as an object", T::WIRE_TYPE);
    };
    for (i, (name, field)) in entries.iter().enumerate() {
        let mut without = entries.clone();
        without.remove(i);
        match T::from_wire(&JsonValue::Object(without)).err() {
            Some(WireError::MissingField {
                type_name,
                field: missing,
            }) => assert_eq!((type_name, missing), (T::WIRE_TYPE, name.as_str())),
            other => panic!("{}: dropping `{name}` gave {other:?}", T::WIRE_TYPE),
        }
        if untyped.contains(&name.as_str()) {
            continue;
        }
        let mut wrong = entries.clone();
        wrong[i].1 = wrong_typed(field);
        let error = T::from_wire(&JsonValue::Object(wrong)).err();
        assert!(
            matches!(error, Some(WireError::WrongType { .. })),
            "{}: a wrong-typed `{name}` gave {error:?}",
            T::WIRE_TYPE
        );
    }
}

/// An enum label no variant carries reports `UnknownVariant` with the
/// enum's tag — as the whole value of a string enum, or as the `kind` of a
/// tagged one.
fn check_unknown_label<T: Wire>(value: &T) {
    let unknown = match value.to_wire() {
        JsonValue::String(_) => JsonValue::from("no_such_variant"),
        JsonValue::Object(mut entries) => {
            for (key, slot) in entries.iter_mut() {
                if key == "kind" {
                    *slot = JsonValue::from("no_such_variant");
                }
            }
            JsonValue::Object(entries)
        }
        other => panic!("{}: unexpected enum encoding {other:?}", T::WIRE_TYPE),
    };
    let error = T::from_wire(&unknown).err();
    assert!(
        matches!(error, Some(WireError::UnknownVariant { type_name, .. }) if type_name == T::WIRE_TYPE),
        "{}: an unknown label gave {error:?}",
        T::WIRE_TYPE
    );
}

/// The error surface of every type whose wire form is declared as a list
/// of fields or labels: missing and wrong-typed fields, unknown labels.
#[test]
fn declared_types_report_missing_fields_wrong_types_and_unknown_labels() {
    let sut = soc_library::alpha21364_sut();
    let session = TestSession::new(0..3, &sut);
    check_fields(&SessionModelOptions::default(), &[]);
    check_fields(&SchedulerConfig::new(165.0, 50.0).unwrap(), &[]);
    check_fields(&session, &[]);
    check_fields(&std::iter::once(session).collect::<TestSchedule>(), &[]);
    check_fields(&TraceSegment::new(0.5, 1.0), &[]);
    check_fields(
        &StoreStats {
            lookups: 4,
            hits: 3,
            insertions: 1,
            contended_locks: 0,
        },
        &[],
    );
    check_fields(&OperatorCacheStats { hits: 2, misses: 1 }, &[]);
    check_fields(&Rect::new(0.0, 0.0, 1e-3, 2e-3), &[]);
    check_fields(&Block::from_mm("core", 1.0, 2.0, 0.0, 0.0), &[]);
    check_fields(&PackageConfig::default(), &[]);
    let attr = Attr {
        key: "index".to_owned(),
        value: AttrValue::Unsigned(7),
        structural: true,
    };
    check_fields(&attr, &["value"]);
    check_fields(
        &SpanRecord {
            name: "job".to_owned(),
            job: Some(7),
            seq: 0,
            parent: None,
            start_seconds: 0.5,
            duration_seconds: 0.25,
            attrs: vec![attr],
        },
        &[],
    );
    check_fields(
        &HistogramSnapshot {
            name: "job.latency_seconds".to_owned(),
            bounds: vec![0.1, 1.0],
            counts: vec![0, 1, 0],
            sum: 0.4,
            count: 1,
        },
        &[],
    );
    check_fields(&FaultPlan::none(), &[]);
    check_fields(&RetryPolicy::retries(3), &[]);
    let metrics = JobMetrics {
        schedule_length: 6.25,
        session_count: 4,
        simulation_effort: 9.0,
        characterization_effort: 12.0,
        discarded_sessions: 1,
        max_temperature: 151.125,
        effective_temperature_limit: 165.0,
        attempts: 1,
    };
    check_fields(&metrics, &[]);
    check_fields(
        &LatencyStats {
            samples: 3,
            p50_seconds: 0.5,
            p99_seconds: 0.75,
            max_seconds: 1.0,
        },
        &[],
    );
    let result = JobResult {
        index: 0,
        scenario: 0,
        scenario_name: "s0".to_owned(),
        label: "tl165".to_owned(),
        outcome: JobOutcome::Completed(metrics.clone()),
    };
    check_fields(&result, &[]);
    let report = ServiceReport::from_wire(
        &obj()
            .field("jobs", vec![result.to_wire()])
            .field("stats", ServiceStats::default().to_wire())
            .build(),
    )
    .unwrap();
    check_fields(&report, &[]);

    for policy in [
        CoreViolationPolicy::Fail,
        CoreViolationPolicy::RaiseLimit { margin: 5.0 },
    ] {
        check_fields(&policy, &[]);
        check_unknown_label(&policy);
    }
    for sel in 0..3 {
        let backend = backend_kind(sel, 4, 1e-3);
        check_fields(&backend, &[]);
        check_unknown_label(&backend);
    }
    for rejected in [
        Rejected::QueueFull { capacity: 4 },
        Rejected::Draining,
        Rejected::UnknownScenario {
            scenario: 9,
            scenario_count: 2,
        },
        Rejected::InvalidDeadline,
    ] {
        check_fields(&rejected, &[]);
        check_unknown_label(&rejected);
    }
    for outcome in [
        JobOutcome::Completed(metrics),
        JobOutcome::Failed {
            error: "budget".to_owned(),
            retryable: true,
            attempts: 1,
        },
        JobOutcome::Panicked {
            message: "boom".to_owned(),
            attempts: 2,
        },
        JobOutcome::DeadlineExceeded {
            spent_effort: 3.5,
            budget: 2.0,
            attempts: 1,
        },
        JobOutcome::Shed(ShedCause::Drained),
        JobOutcome::Rejected(Rejected::Draining),
    ] {
        check_fields(&outcome, &[]);
        check_unknown_label(&outcome);
    }
    for ordering in ORDERINGS {
        check_unknown_label(&ordering);
    }
    check_unknown_label(&ClockKind::Virtual);
    check_unknown_label(&ShedCause::Displaced);
}

/// An encoded object with `extra` fields spliced in after the field named
/// `after`.
fn with_fields(value: JsonValue, after: &str, extra: Vec<(&str, JsonValue)>) -> JsonValue {
    let JsonValue::Object(mut entries) = value else {
        panic!("encodes as an object");
    };
    let at = entries.iter().position(|(k, _)| k == after).expect("field") + 1;
    let extra = extra.into_iter().map(|(k, v)| (k.into(), v));
    entries.splice(at..at, extra);
    JsonValue::Object(entries)
}

/// Documents written before the session store had one form keep decoding,
/// and a worker refuses a HELLO of the protocol version that wrote them, as
/// it refuses a version-2 HELLO carrying the whole corpus and a version-3
/// HELLO, whose jobs came apart from their scenarios.
#[test]
fn legacy_service_documents_decode_and_version_1_hellos_are_refused() {
    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    // A version-1 config, as it was written: a store kind and two switches.
    let legacy_config = |store: JsonValue| {
        let with_store = with_fields(config.to_wire(), "workers", vec![("store", store)]);
        with_fields(
            with_store,
            "backend",
            vec![
                ("operator_cache", JsonValue::from(true)),
                ("batch_same_shape", JsonValue::from(true)),
            ],
        )
    };
    for store in [
        obj()
            .field("kind", "sharded")
            .field("shards", 8usize)
            .build(),
        obj().field("kind", "mutex").build(),
    ] {
        let legacy = legacy_config(store);
        assert_eq!(ServiceConfig::from_wire(&legacy).unwrap(), config);
        let binary = encode_value(&legacy).unwrap();
        assert_eq!(
            ServiceConfig::from_wire(&decode_value(&binary).unwrap()).unwrap(),
            config
        );
    }
    let stats = ServiceStats {
        workers: 2,
        backend_name: "rc-compact".to_owned(),
        ..ServiceStats::default()
    };
    let legacy_stats = with_fields(
        with_fields(
            stats.to_wire(),
            "workers",
            vec![
                ("store_name", JsonValue::from("sharded(8)")),
                ("shard_count", JsonValue::from(8usize)),
            ],
        ),
        "backend_name",
        vec![("operator_cache_enabled", JsonValue::from(true))],
    );
    assert_eq!(ServiceStats::from_wire(&legacy_stats).unwrap(), stats);

    // A version-1 coordinator's HELLO: refused by version, with a typed
    // error and no reply.
    let corpus = ScenarioSpec {
        scenarios: 1,
        seed: 3,
        ..ScenarioSpec::default()
    }
    .build()
    .unwrap();
    assert_eq!(PROTOCOL_VERSION, 4);
    // Version 1 wrote the legacy config; versions 2 and 3 the current one.
    // Versions 1 and 2 carried the corpus, version 3 a trace flag.
    for (version, config) in [
        (1u64, legacy_config(obj().field("kind", "mutex").build())),
        (2, config.to_wire()),
        (3, config.to_wire()),
    ] {
        let hello = obj()
            .field("protocol", version)
            .field("worker", 0usize)
            .field("config", config);
        let hello = if version < 3 {
            hello.field("corpus", corpus.to_wire())
        } else {
            hello.field("trace", false)
        };
        let hello = encode_value(&hello.build()).unwrap();
        let mut input = Vec::new();
        write_frame(&mut input, 1, &hello).unwrap();
        let mut output = Vec::new();
        match worker_serve(input.as_slice(), &mut output, None) {
            Err(ServiceError::Multiproc { message }) => {
                let expected = format!("protocol version {version}");
                assert!(message.contains(&expected), "{message}");
            }
            other => panic!("a version-{version} HELLO must be refused, got {other:?}"),
        }
        assert!(output.is_empty(), "a refused worker replies nothing");
    }
}
