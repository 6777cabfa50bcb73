//! [`Wire`] codecs for the scheduler configuration, schedules and cache
//! statistics.
//!
//! A [`TestSession`] serialises its core set together with the duration and
//! total power that were derived from the system under test when the
//! session was built; decode therefore needs no SUT, which is what lets a
//! schedule live in a golden file on its own.

use thermsched_wire::{
    obj, wire_struct, wire_tagged_enum, wire_unit_enum, JsonValue, Result, Wire, WireError,
};

use crate::{
    CoreOrdering, CoreViolationPolicy, OperatorCacheStats, SchedulerConfig, SessionModelOptions,
    StoreStats, TestSchedule, TestSession, TraceProfile, TraceSegment,
};

wire_unit_enum! {
    "core_ordering" => CoreOrdering {
        "as_given" => AsGiven,
        "descending_power" => DescendingPower,
        "descending_characteristic" => DescendingCharacteristic,
        "ascending_characteristic" => AscendingCharacteristic,
    }
}

wire_tagged_enum! {
    "core_violation_policy" => CoreViolationPolicy {
        "fail" => Fail,
        "raise_limit" => RaiseLimit { margin },
    }
}

wire_struct! {
    "session_model_options" => SessionModelOptions {
        keep_active_active_paths,
        include_vertical_path,
        stc_scale,
    };
    "scheduler_config" => SchedulerConfig {
        temperature_limit,
        stc_limit,
        weight_factor,
        ordering,
        core_violation_policy,
        session_model,
        max_iterations,
    } validate SchedulerConfig::validate;
    "test_session" => TestSession { cores, duration, total_power };
    "test_schedule" => TestSchedule { sessions };
    "trace_segment" => TraceSegment { scale, fraction };
    "store_stats" => StoreStats { lookups, hits, insertions, contended_locks };
    "operator_cache_stats" => OperatorCacheStats { hits, misses };
}

/// Decodes through the validating [`TraceProfile::new`].
impl Wire for TraceProfile {
    const WIRE_TYPE: &'static str = "trace_profile";

    fn to_wire(&self) -> JsonValue {
        let segments = self.segments().iter().map(Wire::to_wire).collect();
        obj().field("segments", JsonValue::Array(segments)).build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        TraceProfile::new(value.decode(Self::WIRE_TYPE, "segments")?)
            .map_err(WireError::invalid(Self::WIRE_TYPE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermsched_soc::library;

    #[test]
    fn scheduler_config_roundtrips() {
        let config = SchedulerConfig::new(165.0, 50.0)
            .unwrap()
            .with_weight_factor(1.25)
            .with_ordering(CoreOrdering::DescendingPower)
            .with_core_violation_policy(CoreViolationPolicy::RaiseLimit { margin: 5.0 });
        let json = config.to_json().unwrap();
        assert_eq!(SchedulerConfig::from_json(&json).unwrap(), config);
        let binary = config.to_binary().unwrap();
        assert_eq!(SchedulerConfig::from_binary(&binary).unwrap(), config);
    }

    #[test]
    fn invalid_configs_fail_domain_validation() {
        let mut wire = SchedulerConfig::new(165.0, 50.0).unwrap().to_wire();
        if let JsonValue::Object(entries) = &mut wire {
            for (key, value) in entries.iter_mut() {
                if key == "weight_factor" {
                    *value = JsonValue::from(0.5);
                }
            }
        }
        assert!(matches!(
            SchedulerConfig::from_wire(&wire),
            Err(WireError::Invalid {
                type_name: "scheduler_config",
                ..
            })
        ));
    }

    #[test]
    fn unknown_ordering_is_a_typed_error() {
        assert!(matches!(
            CoreOrdering::from_wire(&JsonValue::from("sideways")),
            Err(WireError::UnknownVariant {
                type_name: "core_ordering",
                ..
            })
        ));
    }

    #[test]
    fn schedules_roundtrip_without_a_sut() {
        let sut = library::alpha21364_sut();
        let schedule: TestSchedule = vec![
            TestSession::new(0..5, &sut),
            TestSession::new(5..10, &sut),
            TestSession::new(10..15, &sut),
        ]
        .into_iter()
        .collect();
        let json = schedule.to_json().unwrap();
        assert_eq!(TestSchedule::from_json(&json).unwrap(), schedule);
        let binary = schedule.to_binary().unwrap();
        assert_eq!(TestSchedule::from_binary(&binary).unwrap(), schedule);
        // The empty schedule is a legal wire value too.
        let empty = TestSchedule::new();
        assert_eq!(
            TestSchedule::from_json(&empty.to_json().unwrap()).unwrap(),
            empty
        );
    }

    #[test]
    fn trace_profiles_roundtrip_and_validate_on_decode() {
        let profile = TraceProfile::new(vec![
            TraceSegment::new(1.0, 0.5),
            TraceSegment::new(0.25, 0.5),
        ])
        .unwrap();
        let json = profile.to_json().unwrap();
        assert_eq!(TraceProfile::from_json(&json).unwrap(), profile);
        let binary = profile.to_binary().unwrap();
        assert_eq!(TraceProfile::from_binary(&binary).unwrap(), profile);

        // Fractions that do not sum to one fail domain validation on decode.
        assert!(matches!(
            TraceProfile::from_json("{\"segments\": [{\"scale\": 1.0, \"fraction\": 0.25}]}"),
            Err(WireError::Invalid {
                type_name: "trace_profile",
                ..
            })
        ));
    }

    #[test]
    fn stats_roundtrip() {
        let store = StoreStats {
            lookups: 10,
            hits: 7,
            insertions: 3,
            contended_locks: 1,
        };
        assert_eq!(
            StoreStats::from_json(&store.to_json().unwrap()).unwrap(),
            store
        );
        let cache = OperatorCacheStats { hits: 5, misses: 2 };
        assert_eq!(
            OperatorCacheStats::from_json(&cache.to_json().unwrap()).unwrap(),
            cache
        );
    }
}
