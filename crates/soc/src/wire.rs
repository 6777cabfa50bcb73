//! [`Wire`] codecs for the system-under-test types.
//!
//! Both types decode through their validating constructors, so the
//! one-spec-per-block invariant of [`SystemUnderTest`] holds for wire input
//! exactly as it does for programmatic construction.

use thermsched_wire::{ObjectSink, Result, Sink, View, Wire, WireError};

use crate::{SystemUnderTest, TestSpec};

impl Wire for TestSpec {
    const WIRE_TYPE: &'static str = "test_spec";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        let mut object = sink.object(4)?;
        object.entry("core_name")?.str(self.core_name())?;
        object.field("test_power", &self.test_power())?;
        object.field("test_time", &self.test_time())?;
        object.field("functional_power", &self.functional_power())?;
        object.end()
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        const T: &str = "test_spec";
        let spec = TestSpec::new(
            value.field_str(T, "core_name")?,
            value.decode(T, "test_power")?,
            value.decode(T, "test_time")?,
        )
        .map_err(WireError::invalid(T))?;
        match value.decode(T, "functional_power")? {
            Some(power) => spec
                .with_functional_power(power)
                .map_err(WireError::invalid(T)),
            None => Ok(spec),
        }
    }
}

impl Wire for SystemUnderTest {
    const WIRE_TYPE: &'static str = "system_under_test";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        let mut object = sink.object(2)?;
        object.field("floorplan", self.floorplan())?;
        object
            .entry("test_specs")?
            .items(self.test_specs().iter())?;
        object.end()
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        const T: &str = "system_under_test";
        SystemUnderTest::new(
            value.decode(T, "floorplan")?,
            value.decode(T, "test_specs")?,
        )
        .map_err(WireError::invalid(T))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermsched_wire::{obj, JsonValue};

    #[test]
    fn sut_roundtrips_both_encodings() {
        let sut = crate::library::alpha21364_sut();
        let json = sut.to_json().unwrap();
        assert_eq!(SystemUnderTest::from_json(&json).unwrap(), sut);
        let binary = sut.to_binary().unwrap();
        assert_eq!(SystemUnderTest::from_binary(&binary).unwrap(), sut);
    }

    #[test]
    fn optional_functional_power_roundtrips() {
        let with = TestSpec::new("cpu", 8.0, 1.5)
            .unwrap()
            .with_functional_power(2.0)
            .unwrap();
        let without = TestSpec::new("cpu", 8.0, 1.5).unwrap();
        for spec in [with, without] {
            let json = spec.to_json().unwrap();
            assert_eq!(TestSpec::from_json(&json).unwrap(), spec);
        }
    }

    #[test]
    fn missing_spec_is_a_typed_error() {
        let sut = crate::library::figure1_sut();
        let mut wire = sut.to_wire();
        // Drop one test spec: the decode must fail SUT validation.
        if let JsonValue::Object(entries) = &mut wire {
            for (key, value) in entries.iter_mut() {
                if key == "test_specs" {
                    if let JsonValue::Array(items) = value {
                        items.pop();
                    }
                }
            }
        }
        assert!(matches!(
            SystemUnderTest::from_wire(&wire),
            Err(WireError::Invalid {
                type_name: "system_under_test",
                ..
            })
        ));
    }

    #[test]
    fn invalid_spec_values_are_typed_errors() {
        let bad = obj()
            .field("core_name", "cpu")
            .field("test_power", -1.0)
            .field("test_time", 1.0)
            .field("functional_power", JsonValue::Null)
            .build();
        assert!(matches!(
            TestSpec::from_wire(&bad),
            Err(WireError::Invalid {
                type_name: "test_spec",
                ..
            })
        ));
    }
}
