//! [`Wire`] codecs for the service layer: scenario specs, expanded corpora,
//! the runner configuration, and the full report.
//!
//! Two conventions worth noting:
//!
//! * A [`Scenario`] serialises its *generated* system under test, so a
//!   decoded corpus is self-contained — no generator run (and no seed
//!   stability promise) is needed to re-execute it. This is what the
//!   multi-process coordinator ships to its workers.
//! * Sum types ([`BackendKind`], [`JobOutcome`], ...) encode as tagged
//!   objects (`{"kind": "...", ...}`); unit-only enums ([`ShedCause`], and
//!   [`ClockKind`](crate::ClockKind) from `thermsched_obs`) as plain
//!   strings. Unknown tags are typed [`WireError::UnknownVariant`] errors,
//!   never panics.

use thermsched::{OnlineContext, TraceProfile};
use thermsched_wire::{
    wire_struct, wire_tagged_enum, wire_unit_enum, ArraySink, ObjectSink, Result, Sink, View, Wire,
    WireError,
};

use crate::{
    BackendKind, Corpus, FaultPlan, JobMetrics, JobOutcome, JobResult, JobSpec, LatencyStats,
    Rejected, RetryPolicy, Scenario, ScenarioSpec, ServiceConfig, ServiceReport, ServiceStats,
    ShedCause, TraceFamily,
};

/// Writes a pair as a two-element array.
fn write_pair<S: Sink, T: Wire>(sink: S, (a, b): &(T, T)) -> Result<()> {
    let mut array = sink.array(2)?;
    a.write(array.item())?;
    b.write(array.item())?;
    array.end()
}

/// Reads a two-element array back into a pair; `names` names its two
/// elements in the length error.
fn read_pair<'a, T: Wire>(
    value: impl View<'a>,
    type_name: &'static str,
    names: &str,
) -> Result<(T, T)> {
    let mut items = value.items()?;
    match (items.len(), items.next(), items.next()) {
        (2, Some(a), Some(b)) => Ok((T::read(a)?, T::read(b)?)),
        (len, ..) => Err(WireError::Invalid {
            type_name,
            message: format!("expected a [{names}] pair, got {len} elements"),
        }),
    }
}

/// The labels are [`TraceFamily::label`]'s, which the CLI parses too.
impl Wire for TraceFamily {
    const WIRE_TYPE: &'static str = "trace_family";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        sink.str(self.label())
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        let name = value.as_str()?;
        TraceFamily::parse(name).ok_or_else(|| WireError::UnknownVariant {
            type_name: Self::WIRE_TYPE,
            variant: name.to_owned(),
        })
    }
}

impl Wire for ScenarioSpec {
    const WIRE_TYPE: &'static str = "scenario_spec";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        // The online fields are omitted entirely when inactive so documents
        // (and golden bytes) from offline-only versions stay unchanged.
        let families = !self.trace_families.is_empty();
        let len = 11 + usize::from(families) + usize::from(self.warm_start_range.is_some());
        let mut spec = sink.object(len)?;
        spec.field("seed", &self.seed)?;
        spec.field("scenarios", &self.scenarios)?;
        let mut shapes = spec.entry("grid_shapes")?.array(self.grid_shapes.len())?;
        for shape in &self.grid_shapes {
            write_pair(shapes.item(), shape)?;
        }
        shapes.end()?;
        spec.field("core_size_mm", &self.core_size_mm)?;
        write_pair(spec.entry("power_density")?, &self.power_density)?;
        write_pair(spec.entry("test_time")?, &self.test_time)?;
        spec.field("temperature_limits", &self.temperature_limits)?;
        spec.field("stc_limits", &self.stc_limits)?;
        spec.field("weight_factors", &self.weight_factors)?;
        spec.field("orderings", &self.orderings)?;
        spec.field("raise_limit_margin", &self.raise_limit_margin)?;
        if families {
            spec.field("trace_families", &self.trace_families)?;
        }
        if let Some(range) = &self.warm_start_range {
            write_pair(spec.entry("warm_start_range")?, range)?;
        }
        spec.end()
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        const T: &str = "scenario_spec";
        Ok(ScenarioSpec {
            trace_families: match value.get("trace_families") {
                Some(families) => Wire::read(families)?,
                None => vec![],
            },
            warm_start_range: value
                .get("warm_start_range")
                .map(|range| read_pair(range, T, "low, high"))
                .transpose()?,
            seed: value.decode(T, "seed")?,
            scenarios: value.decode(T, "scenarios")?,
            grid_shapes: value
                .field(T, "grid_shapes")?
                .items()?
                .map(|shape| read_pair(shape, T, "columns, rows"))
                .collect::<Result<Vec<_>>>()?,
            core_size_mm: value.decode(T, "core_size_mm")?,
            power_density: read_pair(value.field(T, "power_density")?, T, "low, high")?,
            test_time: read_pair(value.field(T, "test_time")?, T, "low, high")?,
            temperature_limits: value.decode(T, "temperature_limits")?,
            stc_limits: value.decode(T, "stc_limits")?,
            weight_factors: value.decode(T, "weight_factors")?,
            orderings: value.decode(T, "orderings")?,
            raise_limit_margin: value.decode(T, "raise_limit_margin")?,
        })
    }
}

/// `grid` is a `[columns, rows]` pair whose length error names this type;
/// its product must be the system's core count.
impl Wire for Scenario {
    const WIRE_TYPE: &'static str = "scenario";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        let mut scenario = sink.object(5)?;
        scenario.field("name", &self.name)?;
        scenario.field("seed", &self.seed)?;
        write_pair(scenario.entry("grid")?, &self.grid)?;
        scenario.field("core_size_mm", &self.core_size_mm)?;
        scenario.field("sut", &self.sut)?;
        scenario.end()
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        const T: &str = "scenario";
        let scenario = Scenario {
            name: value.decode(T, "name")?,
            seed: value.decode(T, "seed")?,
            grid: read_pair(value.field(T, "grid")?, T, "columns, rows")?,
            core_size_mm: value.decode(T, "core_size_mm")?,
            sut: value.decode(T, "sut")?,
        };
        // The grid backends size their cell grid from this label, so it
        // must cover exactly the floorplan's cores.
        let (columns, rows) = scenario.grid;
        if columns.checked_mul(rows) != Some(scenario.sut.core_count()) {
            return Err(WireError::Invalid {
                type_name: T,
                message: format!(
                    "grid {columns}x{rows} does not hold the {} cores of the system under test",
                    scenario.sut.core_count()
                ),
            });
        }
        Ok(scenario)
    }
}

/// The online context travels as two optional fields, `trace` and
/// `warm_start`, and decodes through the validating [`OnlineContext`]
/// builders, which refuse an empty or non-finite warm start.
impl Wire for JobSpec {
    const WIRE_TYPE: &'static str = "job_spec";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        let trace = self.online.trace();
        let warm = self.online.warm_start();
        let len = 3 + usize::from(trace.is_some()) + usize::from(warm.is_some());
        let mut spec = sink.object(len)?;
        spec.field("scenario", &self.scenario)?;
        spec.field("label", &self.label)?;
        spec.field("config", &self.config)?;
        // Omitted when absent, for byte-compatibility with offline documents.
        if let Some(trace) = trace {
            spec.field("trace", trace)?;
        }
        if let Some(warm) = warm {
            spec.entry("warm_start")?
                .items(warm.block_temperatures().iter())?;
        }
        spec.end()
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        const T: &str = "job_spec";
        let scenario = value.decode(T, "scenario")?;
        let label = value.decode(T, "label")?;
        let config = value.decode(T, "config")?;
        let mut online = OnlineContext::new();
        if let Some(trace) = value.get("trace") {
            online = online.with_trace(TraceProfile::read(trace)?);
        }
        if let Some(warm) = value.get("warm_start") {
            online = online
                .with_warm_start(Wire::read(warm)?)
                .map_err(WireError::invalid(T))?;
        }
        Ok(JobSpec {
            scenario,
            label,
            config,
            online,
        })
    }
}

/// Decodes through `Corpus::from_parts`, which checks that every job
/// names a scenario of the corpus and that every warm start holds one
/// temperature per core of its scenario.
impl Wire for Corpus {
    const WIRE_TYPE: &'static str = "corpus";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        let mut corpus = sink.object(2)?;
        corpus.entry("scenarios")?.items(self.scenarios().iter())?;
        corpus.entry("jobs")?.items(self.jobs().iter())?;
        corpus.end()
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        const T: &str = "corpus";
        Corpus::from_parts(value.decode(T, "scenarios")?, value.decode(T, "jobs")?)
    }
}

wire_tagged_enum! {
    "backend_kind" => BackendKind {
        "rc_compact" => RcCompact,
        "grid_transient" => GridTransient { cells_per_core },
        "grid_adi" => GridAdi { cells_per_core, time_step },
    }
    "rejected" => Rejected {
        "queue_full" => QueueFull { capacity },
        "draining" => Draining,
        "unknown_scenario" => UnknownScenario { scenario, scenario_count },
        "invalid_deadline" => InvalidDeadline,
    }
    "job_outcome" => JobOutcome {
        "completed" => Completed(metrics),
        "failed" => Failed { error, retryable, attempts },
        "panicked" => Panicked { message, attempts },
        "deadline_exceeded" => DeadlineExceeded { spent_effort, budget, attempts },
        "shed" => Shed(cause),
        "rejected" => Rejected(rejection),
    }
}

wire_unit_enum! {
    "shed_cause" => ShedCause { "displaced" => Displaced, "drained" => Drained }
}

wire_struct! {
    "fault_plan" => FaultPlan {
        seed,
        panic_rate,
        error_rate,
        delay_rate,
        delay_seconds,
        poison_rate,
    } validate FaultPlan::validate;
    "retry_policy" => RetryPolicy {
        max_attempts,
        backoff_base_seconds,
        backoff_multiplier,
        backoff_jitter,
        seed,
    } validate RetryPolicy::validate;
    "job_metrics" => JobMetrics {
        schedule_length,
        session_count,
        simulation_effort,
        characterization_effort,
        discarded_sessions,
        max_temperature,
        effective_temperature_limit,
        attempts,
    };
    "latency_stats" => LatencyStats { samples, p50_seconds, p99_seconds, max_seconds };
    "job_result" => JobResult { index, scenario, scenario_name, label, outcome };
    "service_report" => ServiceReport { jobs, stats };
    "service_config" => ServiceConfig {
        workers,
        backend,
        faults,
        retry,
        clock,
        deadline_effort,
    } validate ServiceConfig::validate;
    "service_stats" => ServiceStats {
        workers,
        backend_name,
        operator_cache,
        scenario_count,
        job_count,
        completed,
        failed,
        panicked,
        deadline_exceeded,
        shed,
        rejected,
        retried_attempts,
        injected_faults,
        worker_crashes,
        latency,
        wall_seconds,
        jobs_per_second,
        cached_validations,
        warm_cache_hits,
        prewarmed_sessions,
        store,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClockKind;
    use thermsched_wire::{obj, JsonValue};

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            scenarios: 2,
            seed: 77,
            raise_limit_margin: Some(7.5),
            ..ScenarioSpec::default()
        }
    }

    #[test]
    fn scenario_spec_roundtrips_including_optional_margin() {
        for spec in [
            spec(),
            ScenarioSpec {
                raise_limit_margin: None,
                ..spec()
            },
        ] {
            let json = spec.to_json().unwrap();
            assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec);
            let binary = spec.to_binary().unwrap();
            assert_eq!(ScenarioSpec::from_binary(&binary).unwrap(), spec);
        }
    }

    #[test]
    fn online_spec_fields_roundtrip_and_are_omitted_when_inactive() {
        // Offline specs serialise without the online keys at all, so
        // documents written before the online fields existed decode equal.
        let offline = spec().to_json().unwrap();
        assert!(!offline.contains("trace_families"));
        assert!(!offline.contains("warm_start_range"));

        let online = ScenarioSpec {
            trace_families: vec![TraceFamily::Periodic, TraceFamily::IdleGap],
            warm_start_range: Some((45.0, 65.0)),
            ..spec()
        };
        let json = online.to_json().unwrap();
        assert!(json.contains("trace_families"));
        assert!(json.contains("periodic") && json.contains("idle_gap"));
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), online);
        let binary = online.to_binary().unwrap();
        assert_eq!(ScenarioSpec::from_binary(&binary).unwrap(), online);

        // Unknown family names are typed errors.
        assert!(matches!(
            TraceFamily::from_wire(&JsonValue::from("sawtooth")),
            Err(WireError::UnknownVariant {
                type_name: "trace_family",
                ..
            })
        ));
    }

    #[test]
    fn online_job_specs_roundtrip_and_validate_on_decode() {
        let corpus = ScenarioSpec {
            scenarios: 1,
            trace_families: vec![TraceFamily::Ramp],
            warm_start_range: Some((50.0, 60.0)),
            ..spec()
        }
        .build()
        .unwrap();
        let job = corpus.jobs()[0].clone();
        assert!(!job.online.is_empty());
        let json = job.to_json().unwrap();
        assert_eq!(JobSpec::from_json(&json).unwrap(), job);
        let binary = job.to_binary().unwrap();
        assert_eq!(JobSpec::from_binary(&binary).unwrap(), job);

        // An offline job's wire form has no online keys, and documents
        // without them (pre-online writers) decode to offline jobs.
        let offline = JobSpec {
            online: OnlineContext::new(),
            ..job.clone()
        };
        let offline_json = offline.to_json().unwrap();
        assert!(!offline_json.contains("\"trace\""));
        assert!(!offline_json.contains("\"warm_start\""));
        assert_eq!(JobSpec::from_json(&offline_json).unwrap(), offline);

        // A malformed embedded trace fails profile validation on decode.
        let broken = offline_json.replacen(
            "\"label\"",
            "\"trace\": {\"segments\": [{\"scale\": 1.0, \"fraction\": 0.25}]}, \"label\"",
            1,
        );
        assert!(matches!(
            JobSpec::from_json(&broken),
            Err(WireError::Invalid {
                type_name: "trace_profile",
                ..
            })
        ));
    }

    /// An online state the scheduler would refuse is refused at decode: a
    /// `job_spec` with an empty warm start, and a `corpus` job whose warm
    /// start does not hold one temperature per core of its scenario.
    #[test]
    fn malformed_warm_starts_are_refused_at_decode() {
        let corpus = ScenarioSpec {
            warm_start_range: Some((50.0, 60.0)),
            ..spec()
        }
        .build()
        .unwrap();
        let json = corpus.jobs()[0].to_json().unwrap();
        let at = json
            .find("\"warm_start\"")
            .expect("an online job writes its warm start");
        let empty = format!("{}\"warm_start\": []}}", &json[..at]);
        assert!(
            matches!(
                JobSpec::from_json(&empty),
                Err(WireError::Invalid {
                    type_name: "job_spec",
                    ..
                })
            ),
            "{empty}"
        );

        // Scenario 0 has 9 cores and scenario 1 has 12: hand job 1, with
        // its 9 warm-start temperatures, to scenario 1. The error names the
        // job, its scenario's core count and the length found.
        assert_eq!(corpus.scenarios()[0].sut.core_count(), 9);
        assert_eq!(corpus.scenarios()[1].sut.core_count(), 12);
        let mut jobs: Vec<JobSpec> = corpus.jobs().to_vec();
        assert_eq!(jobs[1].scenario, 0);
        jobs[1].scenario = 1;
        let broken = obj()
            .field(
                "scenarios",
                corpus
                    .scenarios()
                    .iter()
                    .map(Wire::to_wire)
                    .collect::<Vec<_>>(),
            )
            .field("jobs", jobs.iter().map(Wire::to_wire).collect::<Vec<_>>())
            .build();
        let Err(WireError::Invalid {
            type_name: "corpus",
            message,
        }) = Corpus::from_wire(&broken)
        else {
            panic!("a warm start of the wrong length must be refused");
        };
        assert_eq!(
            message,
            "job 1 has a warm start of 9 temperatures, but its scenario 1 has 12 cores"
        );

        // A job naming a scenario past the corpus: the error names the job
        // and the corpus's scenario count.
        jobs[1].scenario = 0;
        jobs[2].scenario = 7;
        let broken = obj()
            .field(
                "scenarios",
                corpus
                    .scenarios()
                    .iter()
                    .map(Wire::to_wire)
                    .collect::<Vec<_>>(),
            )
            .field("jobs", jobs.iter().map(Wire::to_wire).collect::<Vec<_>>())
            .build();
        let Err(WireError::Invalid { message, .. }) = Corpus::from_wire(&broken) else {
            panic!("a dangling scenario index must be refused");
        };
        assert_eq!(
            message,
            format!(
                "job 2 names scenario 7, but the corpus has {} scenarios",
                corpus.scenarios().len()
            )
        );
    }

    #[test]
    fn corpus_roundtrips_as_a_self_contained_value() {
        // Corpus has no PartialEq (the SUT holds derived caches), so the
        // identity check compares canonical wire renderings.
        let corpus = spec().build().unwrap();
        let json = corpus.to_json().unwrap();
        let decoded = Corpus::from_json(&json).unwrap();
        assert_eq!(decoded.to_json().unwrap(), json);
        assert_eq!(decoded.jobs(), corpus.jobs());
        assert_eq!(decoded.scenarios().len(), corpus.scenarios().len());
        assert_eq!(decoded.total_cores(), corpus.total_cores());
        let binary = corpus.to_binary().unwrap();
        assert_eq!(
            Corpus::from_binary(&binary).unwrap().to_json().unwrap(),
            json
        );
        // The empty corpus is a legal wire value (edge-case satellite).
        let empty = Corpus::from_parts(Vec::new(), Vec::new()).unwrap();
        let empty_json = empty.to_json().unwrap();
        let empty_decoded = Corpus::from_json(&empty_json).unwrap();
        assert!(empty_decoded.jobs().is_empty());
        assert!(empty_decoded.scenarios().is_empty());
    }

    #[test]
    fn corpus_with_dangling_job_reference_is_rejected() {
        let corpus = spec().build().unwrap();
        let mut jobs: Vec<JobSpec> = corpus.jobs().to_vec();
        jobs[0].scenario = corpus.scenarios().len();
        let broken = obj()
            .field(
                "scenarios",
                corpus
                    .scenarios()
                    .iter()
                    .map(Wire::to_wire)
                    .collect::<Vec<_>>(),
            )
            .field("jobs", jobs.iter().map(Wire::to_wire).collect::<Vec<_>>())
            .build();
        assert!(matches!(
            Corpus::from_wire(&broken),
            Err(WireError::Invalid {
                type_name: "corpus",
                ..
            })
        ));
    }

    #[test]
    fn service_config_roundtrips_across_every_kind() {
        for backend in [
            BackendKind::RcCompact,
            BackendKind::GridTransient { cells_per_core: 3 },
            BackendKind::GridAdi {
                cells_per_core: 4,
                time_step: 1e-3,
            },
        ] {
            for (clock, deadline) in [(ClockKind::Wall, None), (ClockKind::Virtual, Some(12.5))] {
                let config = ServiceConfig {
                    workers: 3,
                    backend,
                    faults: FaultPlan {
                        seed: 9,
                        error_rate: 0.25,
                        ..FaultPlan::none()
                    },
                    retry: RetryPolicy::retries(3),
                    clock,
                    deadline_effort: deadline,
                };
                let json = config.to_json().unwrap();
                assert_eq!(ServiceConfig::from_json(&json).unwrap(), config);
                let binary = config.to_binary().unwrap();
                assert_eq!(ServiceConfig::from_binary(&binary).unwrap(), config);
            }
        }
    }

    #[test]
    fn documents_with_the_mutex_store_or_the_operator_cache_switch_still_decode() {
        // The removed switches and store names are no longer written...
        let config = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        let stats = ServiceStats::default();
        let written = [config.to_json().unwrap(), stats.to_json().unwrap()];
        for (document, legacy) in [
            (0, "\"store\""),
            (0, "batch_same_shape"),
            (0, "operator_cache"),
            (1, "store_name"),
            (1, "shard_count"),
            (1, "operator_cache_enabled"),
        ] {
            assert!(
                !written[document].contains(legacy),
                "{legacy} is still written"
            );
        }

        // ...but documents that still carry them decode to the same values.
        let with = |value: JsonValue, fields: Vec<(&str, JsonValue)>| {
            let JsonValue::Object(mut entries) = value else {
                panic!("encodes as an object");
            };
            entries.extend(fields.into_iter().map(|(k, v)| (k.into(), v)));
            JsonValue::Object(entries)
        };
        for store in [
            obj().field("kind", "mutex").build(),
            obj()
                .field("kind", "sharded")
                .field("shards", 8usize)
                .build(),
        ] {
            let legacy = with(
                config.to_wire(),
                vec![
                    ("store", store),
                    ("operator_cache", JsonValue::from(false)),
                    ("batch_same_shape", JsonValue::from(false)),
                ],
            );
            assert_eq!(ServiceConfig::from_wire(&legacy).unwrap(), config);
        }
        let legacy = with(
            stats.to_wire(),
            vec![
                ("store_name", JsonValue::from("sharded(8)")),
                ("shard_count", JsonValue::from(8usize)),
                ("operator_cache_enabled", JsonValue::from(true)),
            ],
        );
        assert_eq!(ServiceStats::from_wire(&legacy).unwrap(), stats);
    }

    #[test]
    fn invalid_configs_fail_domain_validation_on_decode() {
        let mut config = ServiceConfig::default();
        config.faults.panic_rate = 0.5;
        let mut wire = config.to_wire();
        if let JsonValue::Object(entries) = &mut wire {
            for (key, value) in entries.iter_mut() {
                if key == "faults" {
                    if let JsonValue::Object(fault_entries) = value {
                        for (fkey, fvalue) in fault_entries.iter_mut() {
                            if fkey == "panic_rate" {
                                *fvalue = JsonValue::from(1.5);
                            }
                        }
                    }
                }
            }
        }
        assert!(matches!(
            ServiceConfig::from_wire(&wire),
            Err(WireError::Invalid {
                type_name: "fault_plan",
                ..
            })
        ));
        assert!(matches!(
            BackendKind::from_wire(&obj().field("kind", "quantum").build()),
            Err(WireError::UnknownVariant {
                type_name: "backend_kind",
                ..
            })
        ));
    }

    #[test]
    fn every_job_outcome_variant_roundtrips() {
        let metrics = JobMetrics {
            schedule_length: 6.25,
            session_count: 4,
            simulation_effort: 9.0,
            characterization_effort: 12.0,
            discarded_sessions: 1,
            max_temperature: 151.125,
            effective_temperature_limit: 165.0,
            attempts: 2,
        };
        let outcomes = [
            JobOutcome::Completed(metrics),
            JobOutcome::Failed {
                error: "iteration budget exhausted".to_owned(),
                retryable: false,
                attempts: 1,
            },
            JobOutcome::Panicked {
                message: "boom".to_owned(),
                attempts: 3,
            },
            JobOutcome::DeadlineExceeded {
                spent_effort: 3.5,
                budget: 2.0,
                attempts: 1,
            },
            JobOutcome::Shed(ShedCause::Displaced),
            JobOutcome::Shed(ShedCause::Drained),
            JobOutcome::Rejected(Rejected::QueueFull { capacity: 4 }),
            JobOutcome::Rejected(Rejected::Draining),
            JobOutcome::Rejected(Rejected::UnknownScenario {
                scenario: 9,
                scenario_count: 2,
            }),
            JobOutcome::Rejected(Rejected::InvalidDeadline),
        ];
        for outcome in outcomes {
            let json = outcome.to_json().unwrap();
            assert_eq!(JobOutcome::from_json(&json).unwrap(), outcome);
            let binary = outcome.to_binary().unwrap();
            assert_eq!(JobOutcome::from_binary(&binary).unwrap(), outcome);
        }
    }

    #[test]
    fn a_real_report_roundtrips_bit_exactly() {
        use crate::ServiceRunner;
        let corpus = spec().build().unwrap();
        let report = ServiceRunner::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        let json = report.to_json().unwrap();
        let decoded = ServiceReport::from_json(&json).unwrap();
        assert_eq!(&decoded, &report);
        assert_eq!(decoded.render_jobs(), report.render_jobs());
        let binary = report.to_binary().unwrap();
        assert_eq!(ServiceReport::from_binary(&binary).unwrap(), report);
    }
}
