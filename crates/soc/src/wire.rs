//! [`Wire`] codecs for the system-under-test types.
//!
//! Both types decode through their validating constructors, so the
//! one-spec-per-block invariant of [`SystemUnderTest`] holds for wire input
//! exactly as it does for programmatic construction.

use thermsched_wire::{obj, JsonValue, Result, Wire, WireError};

use crate::{SystemUnderTest, TestSpec};

impl Wire for TestSpec {
    const WIRE_TYPE: &'static str = "test_spec";

    fn to_wire(&self) -> JsonValue {
        obj()
            .field("core_name", self.core_name())
            .field("test_power", self.test_power())
            .field("test_time", self.test_time())
            .field("functional_power", self.functional_power())
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
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

    fn to_wire(&self) -> JsonValue {
        let specs = self.test_specs().iter().map(Wire::to_wire).collect();
        obj()
            .field("floorplan", self.floorplan().to_wire())
            .field("test_specs", JsonValue::Array(specs))
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
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
