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
//!   objects (`{"kind": "...", ...}`); unit-only enums ([`ClockKind`],
//!   [`ShedCause`]) as plain strings. Unknown tags are typed
//!   [`WireError::UnknownVariant`] errors, never panics.

use thermsched_wire::{obj, JsonValue, Result, Wire, WireError};

use crate::{
    BackendKind, ClockKind, Corpus, FaultPlan, JobMetrics, JobOutcome, JobResult, JobSpec,
    LatencyStats, Rejected, RetryPolicy, Scenario, ScenarioSpec, ServiceConfig, ServiceReport,
    ServiceStats, ShedCause, StoreKind, TraceFamily,
};
use thermsched::{CoreOrdering, OperatorCacheStats, SchedulerConfig, StoreStats, TraceProfile};
use thermsched_soc::SystemUnderTest;

/// Decodes an optional finite f64 stored as `null` or a number.
fn optional_f64(
    value: &JsonValue,
    type_name: &'static str,
    name: &'static str,
) -> Result<Option<f64>> {
    match value.field(type_name, name)? {
        JsonValue::Null => Ok(None),
        other => other.as_f64().map(Some),
    }
}

/// Encodes a `(usize, usize)` pair as a two-element array.
fn pair_usize(pair: (usize, usize)) -> JsonValue {
    JsonValue::from(vec![JsonValue::from(pair.0), JsonValue::from(pair.1)])
}

/// Decodes a two-element array back into a `(usize, usize)` pair.
fn decode_pair_usize(value: &JsonValue, type_name: &'static str) -> Result<(usize, usize)> {
    let items = value.as_array()?;
    if items.len() != 2 {
        return Err(WireError::Invalid {
            type_name,
            message: format!(
                "expected a [columns, rows] pair, got {} elements",
                items.len()
            ),
        });
    }
    Ok((items[0].as_usize()?, items[1].as_usize()?))
}

/// Encodes an `(f64, f64)` range as a two-element array.
fn pair_f64(pair: (f64, f64)) -> JsonValue {
    JsonValue::from(vec![JsonValue::from(pair.0), JsonValue::from(pair.1)])
}

/// Decodes a two-element array back into an `(f64, f64)` range.
fn decode_pair_f64(value: &JsonValue, type_name: &'static str) -> Result<(f64, f64)> {
    let items = value.as_array()?;
    if items.len() != 2 {
        return Err(WireError::Invalid {
            type_name,
            message: format!("expected a [low, high] pair, got {} elements", items.len()),
        });
    }
    Ok((items[0].as_f64()?, items[1].as_f64()?))
}

fn f64_array(values: &[f64]) -> JsonValue {
    JsonValue::from(
        values
            .iter()
            .map(|&v| JsonValue::from(v))
            .collect::<Vec<_>>(),
    )
}

fn decode_f64_array(value: &JsonValue) -> Result<Vec<f64>> {
    value.as_array()?.iter().map(JsonValue::as_f64).collect()
}

impl Wire for TraceFamily {
    const WIRE_TYPE: &'static str = "trace_family";

    fn to_wire(&self) -> JsonValue {
        JsonValue::from(self.label())
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        let name = value.as_str()?;
        TraceFamily::parse(name).ok_or_else(|| WireError::UnknownVariant {
            type_name: "trace_family",
            variant: name.to_owned(),
        })
    }
}

impl Wire for ScenarioSpec {
    const WIRE_TYPE: &'static str = "scenario_spec";

    fn to_wire(&self) -> JsonValue {
        let grid_shapes: Vec<JsonValue> = self.grid_shapes.iter().map(|&s| pair_usize(s)).collect();
        let orderings: Vec<JsonValue> = self.orderings.iter().map(Wire::to_wire).collect();
        let mut spec = obj()
            .field("seed", self.seed)
            .field("scenarios", self.scenarios)
            .field("grid_shapes", grid_shapes)
            .field("core_size_mm", self.core_size_mm)
            .field("power_density", pair_f64(self.power_density))
            .field("test_time", pair_f64(self.test_time))
            .field("temperature_limits", f64_array(&self.temperature_limits))
            .field("stc_limits", f64_array(&self.stc_limits))
            .field("weight_factors", f64_array(&self.weight_factors))
            .field("orderings", orderings)
            .field("raise_limit_margin", self.raise_limit_margin);
        // The online fields are omitted entirely when inactive so documents
        // (and golden bytes) from offline-only versions stay unchanged.
        if !self.trace_families.is_empty() {
            let families: Vec<JsonValue> = self.trace_families.iter().map(Wire::to_wire).collect();
            spec = spec.field("trace_families", families);
        }
        if let Some(range) = self.warm_start_range {
            spec = spec.field("warm_start_range", pair_f64(range));
        }
        spec.build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "scenario_spec";
        Ok(ScenarioSpec {
            trace_families: match value.get("trace_families") {
                Some(families) => families
                    .as_array()?
                    .iter()
                    .map(TraceFamily::from_wire)
                    .collect::<Result<Vec<_>>>()?,
                None => vec![],
            },
            warm_start_range: match value.get("warm_start_range") {
                Some(range) => Some(decode_pair_f64(range, T)?),
                None => None,
            },
            seed: value.field_u64(T, "seed")?,
            scenarios: value.field_usize(T, "scenarios")?,
            grid_shapes: value
                .field_array(T, "grid_shapes")?
                .iter()
                .map(|shape| decode_pair_usize(shape, T))
                .collect::<Result<Vec<_>>>()?,
            core_size_mm: value.field_f64(T, "core_size_mm")?,
            power_density: decode_pair_f64(value.field(T, "power_density")?, T)?,
            test_time: decode_pair_f64(value.field(T, "test_time")?, T)?,
            temperature_limits: decode_f64_array(value.field(T, "temperature_limits")?)?,
            stc_limits: decode_f64_array(value.field(T, "stc_limits")?)?,
            weight_factors: decode_f64_array(value.field(T, "weight_factors")?)?,
            orderings: value
                .field_array(T, "orderings")?
                .iter()
                .map(CoreOrdering::from_wire)
                .collect::<Result<Vec<_>>>()?,
            raise_limit_margin: optional_f64(value, T, "raise_limit_margin")?,
        })
    }
}

impl Wire for Scenario {
    const WIRE_TYPE: &'static str = "scenario";

    fn to_wire(&self) -> JsonValue {
        obj()
            .field("name", self.name.as_str())
            .field("seed", self.seed)
            .field("grid", pair_usize(self.grid))
            .field("core_size_mm", self.core_size_mm)
            .field("sut", self.sut.to_wire())
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "scenario";
        Ok(Scenario {
            name: value.field_str(T, "name")?.to_owned(),
            seed: value.field_u64(T, "seed")?,
            grid: decode_pair_usize(value.field(T, "grid")?, T)?,
            core_size_mm: value.field_f64(T, "core_size_mm")?,
            sut: SystemUnderTest::from_wire(value.field(T, "sut")?)?,
        })
    }
}

impl Wire for JobSpec {
    const WIRE_TYPE: &'static str = "job_spec";

    fn to_wire(&self) -> JsonValue {
        let mut spec = obj()
            .field("scenario", self.scenario)
            .field("label", self.label.as_str())
            .field("config", self.config.to_wire());
        // Omitted when absent, for byte-compatibility with offline documents.
        if let Some(trace) = &self.trace {
            spec = spec.field("trace", trace.to_wire());
        }
        if let Some(warm) = &self.warm_start {
            spec = spec.field("warm_start", f64_array(warm));
        }
        spec.build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "job_spec";
        Ok(JobSpec {
            scenario: value.field_usize(T, "scenario")?,
            label: value.field_str(T, "label")?.to_owned(),
            config: SchedulerConfig::from_wire(value.field(T, "config")?)?,
            trace: match value.get("trace") {
                Some(trace) => Some(TraceProfile::from_wire(trace)?),
                None => None,
            },
            warm_start: match value.get("warm_start") {
                Some(warm) => Some(decode_f64_array(warm)?),
                None => None,
            },
        })
    }
}

impl Wire for Corpus {
    const WIRE_TYPE: &'static str = "corpus";

    fn to_wire(&self) -> JsonValue {
        let scenarios: Vec<JsonValue> = self.scenarios().iter().map(Wire::to_wire).collect();
        let jobs: Vec<JsonValue> = self.jobs().iter().map(Wire::to_wire).collect();
        obj()
            .field("scenarios", scenarios)
            .field("jobs", jobs)
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "corpus";
        let scenarios = value
            .field_array(T, "scenarios")?
            .iter()
            .map(Scenario::from_wire)
            .collect::<Result<Vec<_>>>()?;
        let jobs = value
            .field_array(T, "jobs")?
            .iter()
            .map(JobSpec::from_wire)
            .collect::<Result<Vec<_>>>()?;
        Corpus::from_parts(scenarios, jobs).map_err(|e| WireError::Invalid {
            type_name: T,
            message: e.to_string(),
        })
    }
}

impl Wire for BackendKind {
    const WIRE_TYPE: &'static str = "backend_kind";

    fn to_wire(&self) -> JsonValue {
        match self {
            BackendKind::RcCompact => obj().field("kind", "rc_compact").build(),
            BackendKind::GridTransient { cells_per_core } => obj()
                .field("kind", "grid_transient")
                .field("cells_per_core", *cells_per_core)
                .build(),
            BackendKind::GridAdi {
                cells_per_core,
                time_step,
            } => obj()
                .field("kind", "grid_adi")
                .field("cells_per_core", *cells_per_core)
                .field("time_step", *time_step)
                .build(),
        }
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "backend_kind";
        match value.field_str(T, "kind")? {
            "rc_compact" => Ok(BackendKind::RcCompact),
            "grid_transient" => Ok(BackendKind::GridTransient {
                cells_per_core: value.field_usize(T, "cells_per_core")?,
            }),
            "grid_adi" => Ok(BackendKind::GridAdi {
                cells_per_core: value.field_usize(T, "cells_per_core")?,
                time_step: value.field_f64(T, "time_step")?,
            }),
            other => Err(WireError::UnknownVariant {
                type_name: T,
                variant: other.to_owned(),
            }),
        }
    }
}

impl Wire for StoreKind {
    const WIRE_TYPE: &'static str = "store_kind";

    fn to_wire(&self) -> JsonValue {
        let StoreKind::Sharded { shards } = self;
        obj()
            .field("kind", "sharded")
            .field("shards", *shards)
            .build()
    }

    /// `"mutex"`, the former single-lock store, decodes to one shard.
    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "store_kind";
        match value.field_str(T, "kind")? {
            "mutex" => Ok(StoreKind::Sharded { shards: 1 }),
            "sharded" => Ok(StoreKind::Sharded {
                shards: value.field_usize(T, "shards")?,
            }),
            other => Err(WireError::UnknownVariant {
                type_name: T,
                variant: other.to_owned(),
            }),
        }
    }
}

impl Wire for ClockKind {
    const WIRE_TYPE: &'static str = "clock_kind";

    fn to_wire(&self) -> JsonValue {
        JsonValue::from(match self {
            ClockKind::Wall => "wall",
            ClockKind::Virtual => "virtual",
        })
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        match value.as_str()? {
            "wall" => Ok(ClockKind::Wall),
            "virtual" => Ok(ClockKind::Virtual),
            other => Err(WireError::UnknownVariant {
                type_name: "clock_kind",
                variant: other.to_owned(),
            }),
        }
    }
}

impl Wire for FaultPlan {
    const WIRE_TYPE: &'static str = "fault_plan";

    fn to_wire(&self) -> JsonValue {
        obj()
            .field("seed", self.seed)
            .field("panic_rate", self.panic_rate)
            .field("error_rate", self.error_rate)
            .field("delay_rate", self.delay_rate)
            .field("delay_seconds", self.delay_seconds)
            .field("poison_rate", self.poison_rate)
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "fault_plan";
        let plan = FaultPlan {
            seed: value.field_u64(T, "seed")?,
            panic_rate: value.field_f64(T, "panic_rate")?,
            error_rate: value.field_f64(T, "error_rate")?,
            delay_rate: value.field_f64(T, "delay_rate")?,
            delay_seconds: value.field_f64(T, "delay_seconds")?,
            poison_rate: value.field_f64(T, "poison_rate")?,
        };
        plan.validate().map_err(|e| WireError::Invalid {
            type_name: T,
            message: e.to_string(),
        })?;
        Ok(plan)
    }
}

impl Wire for RetryPolicy {
    const WIRE_TYPE: &'static str = "retry_policy";

    fn to_wire(&self) -> JsonValue {
        obj()
            .field("max_attempts", self.max_attempts)
            .field("backoff_base_seconds", self.backoff_base_seconds)
            .field("backoff_multiplier", self.backoff_multiplier)
            .field("backoff_jitter", self.backoff_jitter)
            .field("seed", self.seed)
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "retry_policy";
        let policy = RetryPolicy {
            max_attempts: value.field_u32(T, "max_attempts")?,
            backoff_base_seconds: value.field_f64(T, "backoff_base_seconds")?,
            backoff_multiplier: value.field_f64(T, "backoff_multiplier")?,
            backoff_jitter: value.field_f64(T, "backoff_jitter")?,
            seed: value.field_u64(T, "seed")?,
        };
        policy.validate().map_err(|e| WireError::Invalid {
            type_name: T,
            message: e.to_string(),
        })?;
        Ok(policy)
    }
}

impl Wire for ServiceConfig {
    const WIRE_TYPE: &'static str = "service_config";

    fn to_wire(&self) -> JsonValue {
        obj()
            .field("workers", self.workers)
            .field("store", self.store.to_wire())
            .field("backend", self.backend.to_wire())
            .field("operator_cache", true)
            .field("batch_same_shape", self.batch_same_shape)
            .field("faults", self.faults.to_wire())
            .field("retry", self.retry.to_wire())
            .field("clock", self.clock.to_wire())
            .field("deadline_effort", self.deadline_effort)
            .build()
    }

    /// The operator cache is exact and always on, so the document's
    /// `operator_cache` field is written as `true` (readers that still
    /// require it keep decoding) and ignored on decode.
    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "service_config";
        let config = ServiceConfig {
            workers: value.field_usize(T, "workers")?,
            store: StoreKind::from_wire(value.field(T, "store")?)?,
            backend: BackendKind::from_wire(value.field(T, "backend")?)?,
            batch_same_shape: value.field_bool(T, "batch_same_shape")?,
            faults: FaultPlan::from_wire(value.field(T, "faults")?)?,
            retry: RetryPolicy::from_wire(value.field(T, "retry")?)?,
            clock: ClockKind::from_wire(value.field(T, "clock")?)?,
            deadline_effort: optional_f64(value, T, "deadline_effort")?,
        };
        config.validate().map_err(|e| WireError::Invalid {
            type_name: T,
            message: e.to_string(),
        })?;
        Ok(config)
    }
}

impl Wire for JobMetrics {
    const WIRE_TYPE: &'static str = "job_metrics";

    fn to_wire(&self) -> JsonValue {
        obj()
            .field("schedule_length", self.schedule_length)
            .field("session_count", self.session_count)
            .field("simulation_effort", self.simulation_effort)
            .field("characterization_effort", self.characterization_effort)
            .field("discarded_sessions", self.discarded_sessions)
            .field("max_temperature", self.max_temperature)
            .field(
                "effective_temperature_limit",
                self.effective_temperature_limit,
            )
            .field("attempts", self.attempts)
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "job_metrics";
        Ok(JobMetrics {
            schedule_length: value.field_f64(T, "schedule_length")?,
            session_count: value.field_usize(T, "session_count")?,
            simulation_effort: value.field_f64(T, "simulation_effort")?,
            characterization_effort: value.field_f64(T, "characterization_effort")?,
            discarded_sessions: value.field_usize(T, "discarded_sessions")?,
            max_temperature: value.field_f64(T, "max_temperature")?,
            effective_temperature_limit: value.field_f64(T, "effective_temperature_limit")?,
            attempts: value.field_u32(T, "attempts")?,
        })
    }
}

impl Wire for LatencyStats {
    const WIRE_TYPE: &'static str = "latency_stats";

    fn to_wire(&self) -> JsonValue {
        obj()
            .field("samples", self.samples)
            .field("p50_seconds", self.p50_seconds)
            .field("p99_seconds", self.p99_seconds)
            .field("max_seconds", self.max_seconds)
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "latency_stats";
        Ok(LatencyStats {
            samples: value.field_usize(T, "samples")?,
            p50_seconds: value.field_f64(T, "p50_seconds")?,
            p99_seconds: value.field_f64(T, "p99_seconds")?,
            max_seconds: value.field_f64(T, "max_seconds")?,
        })
    }
}

impl Wire for Rejected {
    const WIRE_TYPE: &'static str = "rejected";

    fn to_wire(&self) -> JsonValue {
        match self {
            Rejected::QueueFull { capacity } => obj()
                .field("kind", "queue_full")
                .field("capacity", *capacity)
                .build(),
            Rejected::Draining => obj().field("kind", "draining").build(),
            Rejected::UnknownScenario {
                scenario,
                scenario_count,
            } => obj()
                .field("kind", "unknown_scenario")
                .field("scenario", *scenario)
                .field("scenario_count", *scenario_count)
                .build(),
            Rejected::InvalidDeadline => obj().field("kind", "invalid_deadline").build(),
        }
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "rejected";
        match value.field_str(T, "kind")? {
            "queue_full" => Ok(Rejected::QueueFull {
                capacity: value.field_usize(T, "capacity")?,
            }),
            "draining" => Ok(Rejected::Draining),
            "unknown_scenario" => Ok(Rejected::UnknownScenario {
                scenario: value.field_usize(T, "scenario")?,
                scenario_count: value.field_usize(T, "scenario_count")?,
            }),
            "invalid_deadline" => Ok(Rejected::InvalidDeadline),
            other => Err(WireError::UnknownVariant {
                type_name: T,
                variant: other.to_owned(),
            }),
        }
    }
}

impl Wire for ShedCause {
    const WIRE_TYPE: &'static str = "shed_cause";

    fn to_wire(&self) -> JsonValue {
        JsonValue::from(match self {
            ShedCause::Displaced => "displaced",
            ShedCause::Drained => "drained",
        })
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        match value.as_str()? {
            "displaced" => Ok(ShedCause::Displaced),
            "drained" => Ok(ShedCause::Drained),
            other => Err(WireError::UnknownVariant {
                type_name: "shed_cause",
                variant: other.to_owned(),
            }),
        }
    }
}

impl Wire for JobOutcome {
    const WIRE_TYPE: &'static str = "job_outcome";

    fn to_wire(&self) -> JsonValue {
        match self {
            JobOutcome::Completed(metrics) => obj()
                .field("kind", "completed")
                .field("metrics", metrics.to_wire())
                .build(),
            JobOutcome::Failed {
                error,
                retryable,
                attempts,
            } => obj()
                .field("kind", "failed")
                .field("error", error.as_str())
                .field("retryable", *retryable)
                .field("attempts", *attempts)
                .build(),
            JobOutcome::Panicked { message, attempts } => obj()
                .field("kind", "panicked")
                .field("message", message.as_str())
                .field("attempts", *attempts)
                .build(),
            JobOutcome::DeadlineExceeded {
                spent_effort,
                budget,
                attempts,
            } => obj()
                .field("kind", "deadline_exceeded")
                .field("spent_effort", *spent_effort)
                .field("budget", *budget)
                .field("attempts", *attempts)
                .build(),
            JobOutcome::Shed(cause) => obj()
                .field("kind", "shed")
                .field("cause", cause.to_wire())
                .build(),
            JobOutcome::Rejected(rejection) => obj()
                .field("kind", "rejected")
                .field("rejection", rejection.to_wire())
                .build(),
        }
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "job_outcome";
        match value.field_str(T, "kind")? {
            "completed" => Ok(JobOutcome::Completed(JobMetrics::from_wire(
                value.field(T, "metrics")?,
            )?)),
            "failed" => Ok(JobOutcome::Failed {
                error: value.field_str(T, "error")?.to_owned(),
                retryable: value.field_bool(T, "retryable")?,
                attempts: value.field_u32(T, "attempts")?,
            }),
            "panicked" => Ok(JobOutcome::Panicked {
                message: value.field_str(T, "message")?.to_owned(),
                attempts: value.field_u32(T, "attempts")?,
            }),
            "deadline_exceeded" => Ok(JobOutcome::DeadlineExceeded {
                spent_effort: value.field_f64(T, "spent_effort")?,
                budget: value.field_f64(T, "budget")?,
                attempts: value.field_u32(T, "attempts")?,
            }),
            "shed" => Ok(JobOutcome::Shed(ShedCause::from_wire(
                value.field(T, "cause")?,
            )?)),
            "rejected" => Ok(JobOutcome::Rejected(Rejected::from_wire(
                value.field(T, "rejection")?,
            )?)),
            other => Err(WireError::UnknownVariant {
                type_name: T,
                variant: other.to_owned(),
            }),
        }
    }
}

impl Wire for JobResult {
    const WIRE_TYPE: &'static str = "job_result";

    fn to_wire(&self) -> JsonValue {
        obj()
            .field("index", self.index)
            .field("scenario", self.scenario)
            .field("scenario_name", self.scenario_name.as_str())
            .field("label", self.label.as_str())
            .field("outcome", self.outcome.to_wire())
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "job_result";
        Ok(JobResult {
            index: value.field_usize(T, "index")?,
            scenario: value.field_usize(T, "scenario")?,
            scenario_name: value.field_str(T, "scenario_name")?.to_owned(),
            label: value.field_str(T, "label")?.to_owned(),
            outcome: JobOutcome::from_wire(value.field(T, "outcome")?)?,
        })
    }
}

impl Wire for ServiceStats {
    const WIRE_TYPE: &'static str = "service_stats";

    fn to_wire(&self) -> JsonValue {
        obj()
            .field("workers", self.workers)
            .field("store_name", self.store_name.as_str())
            .field("shard_count", self.shard_count)
            .field("backend_name", self.backend_name.as_str())
            .field("operator_cache_enabled", true)
            .field("operator_cache", self.operator_cache.to_wire())
            .field("scenario_count", self.scenario_count)
            .field("job_count", self.job_count)
            .field("completed", self.completed)
            .field("failed", self.failed)
            .field("panicked", self.panicked)
            .field("deadline_exceeded", self.deadline_exceeded)
            .field("shed", self.shed)
            .field("rejected", self.rejected)
            .field("retried_attempts", self.retried_attempts)
            .field("injected_faults", self.injected_faults)
            .field("worker_crashes", self.worker_crashes)
            .field("latency", self.latency.to_wire())
            .field("wall_seconds", self.wall_seconds)
            .field("jobs_per_second", self.jobs_per_second)
            .field("cached_validations", self.cached_validations)
            .field("warm_cache_hits", self.warm_cache_hits)
            .field("prewarmed_sessions", self.prewarmed_sessions)
            .field("store", self.store.to_wire())
            .build()
    }

    /// `operator_cache_enabled` is written as `true` and ignored on decode,
    /// as for [`ServiceConfig`].
    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "service_stats";
        Ok(ServiceStats {
            workers: value.field_usize(T, "workers")?,
            store_name: value.field_str(T, "store_name")?.to_owned(),
            shard_count: value.field_usize(T, "shard_count")?,
            backend_name: value.field_str(T, "backend_name")?.to_owned(),
            operator_cache: OperatorCacheStats::from_wire(value.field(T, "operator_cache")?)?,
            scenario_count: value.field_usize(T, "scenario_count")?,
            job_count: value.field_usize(T, "job_count")?,
            completed: value.field_usize(T, "completed")?,
            failed: value.field_usize(T, "failed")?,
            panicked: value.field_usize(T, "panicked")?,
            deadline_exceeded: value.field_usize(T, "deadline_exceeded")?,
            shed: value.field_usize(T, "shed")?,
            rejected: value.field_usize(T, "rejected")?,
            retried_attempts: value.field_usize(T, "retried_attempts")?,
            injected_faults: value.field_usize(T, "injected_faults")?,
            worker_crashes: value.field_usize(T, "worker_crashes")?,
            latency: LatencyStats::from_wire(value.field(T, "latency")?)?,
            wall_seconds: value.field_f64(T, "wall_seconds")?,
            jobs_per_second: value.field_f64(T, "jobs_per_second")?,
            cached_validations: value.field_usize(T, "cached_validations")?,
            warm_cache_hits: value.field_usize(T, "warm_cache_hits")?,
            prewarmed_sessions: value.field_usize(T, "prewarmed_sessions")?,
            store: StoreStats::from_wire(value.field(T, "store")?)?,
        })
    }
}

impl Wire for ServiceReport {
    const WIRE_TYPE: &'static str = "service_report";

    fn to_wire(&self) -> JsonValue {
        let jobs: Vec<JsonValue> = self.jobs().iter().map(Wire::to_wire).collect();
        obj()
            .field("jobs", jobs)
            .field("stats", self.stats().to_wire())
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        const T: &str = "service_report";
        let jobs = value
            .field_array(T, "jobs")?
            .iter()
            .map(JobResult::from_wire)
            .collect::<Result<Vec<_>>>()?;
        let stats = ServiceStats::from_wire(value.field(T, "stats")?)?;
        Ok(ServiceReport::new(jobs, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(job.is_online());
        let json = job.to_json().unwrap();
        assert_eq!(JobSpec::from_json(&json).unwrap(), job);
        let binary = job.to_binary().unwrap();
        assert_eq!(JobSpec::from_binary(&binary).unwrap(), job);

        // An offline job's wire form has no online keys, and documents
        // without them (pre-online writers) decode to offline jobs.
        let offline = JobSpec {
            trace: None,
            warm_start: None,
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
            for (store, clock, deadline) in [
                (StoreKind::Sharded { shards: 1 }, ClockKind::Wall, None),
                (
                    StoreKind::Sharded { shards: 8 },
                    ClockKind::Virtual,
                    Some(12.5),
                ),
            ] {
                let config = ServiceConfig {
                    workers: 3,
                    store,
                    backend,
                    faults: FaultPlan {
                        seed: 9,
                        error_rate: 0.25,
                        ..FaultPlan::none()
                    },
                    retry: RetryPolicy::retries(3),
                    clock,
                    deadline_effort: deadline,
                    ..ServiceConfig::default()
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
        // Documents keep the switch fields, so readers that require them
        // still decode what this version writes.
        let config = ServiceConfig {
            workers: 2,
            store: StoreKind::Sharded { shards: 1 },
            ..ServiceConfig::default()
        };
        assert!(config
            .to_json()
            .unwrap()
            .contains("\"operator_cache\": true"));
        let stats = ServiceStats::default();
        assert!(stats
            .to_json()
            .unwrap()
            .contains("\"operator_cache_enabled\": true"));

        // What earlier versions could write: the single-lock store and the
        // switches off.
        let JsonValue::Object(mut entries) = config.to_wire() else {
            panic!("a config encodes as an object");
        };
        for (key, value) in entries.iter_mut() {
            match key.as_str() {
                "store" => *value = obj().field("kind", "mutex").build(),
                "operator_cache" => *value = JsonValue::from(false),
                _ => {}
            }
        }
        assert_eq!(
            ServiceConfig::from_wire(&JsonValue::Object(entries)).unwrap(),
            config
        );
        let JsonValue::Object(mut entries) = stats.to_wire() else {
            panic!("stats encode as an object");
        };
        for (key, value) in entries.iter_mut() {
            if key == "operator_cache_enabled" {
                *value = JsonValue::from(false);
            }
        }
        assert_eq!(
            ServiceStats::from_wire(&JsonValue::Object(entries)).unwrap(),
            stats
        );
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
        use crate::{ServiceRunner, StoreKind};
        let corpus = spec().build().unwrap();
        let report = ServiceRunner::new(ServiceConfig {
            workers: 2,
            store: StoreKind::Sharded { shards: 4 },
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
