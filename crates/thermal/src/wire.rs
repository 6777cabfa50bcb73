//! [`Wire`] codecs for the thermal-model configuration types.

use thermsched_wire::{wire_struct, ArraySink, ObjectSink, Result, Sink, View, Wire, WireError};

use crate::{Material, PackageConfig, PowerMap, PowerTrace};

wire_struct! {
    "material" => Material { conductivity, volumetric_heat_capacity }
        validate |m: &Material| Material::new(m.conductivity, m.volumetric_heat_capacity);
    "package_config" => PackageConfig {
        die_material,
        die_thickness,
        interface_material,
        interface_thickness,
        spreader_material,
        spreader_thickness,
        spreader_side,
        sink_thickness,
        sink_side,
        sink_material,
        convection_resistance,
        edge_resistance_per_meter,
        ambient,
    } validate PackageConfig::validate;
}

impl Wire for PowerMap {
    const WIRE_TYPE: &'static str = "power_map";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        let mut object = sink.object(1)?;
        object.entry("powers")?.items(self.as_slice().iter())?;
        object.end()
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        PowerMap::from_vec(value.decode(Self::WIRE_TYPE, "powers")?)
            .map_err(WireError::invalid(Self::WIRE_TYPE))
    }
}

/// Each phase is a `{"power", "duration"}` object.
impl Wire for PowerTrace {
    const WIRE_TYPE: &'static str = "power_trace";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        let mut object = sink.object(1)?;
        let mut phases = object.entry("phases")?.array(self.phases().len())?;
        for (power, duration) in self.phases() {
            let mut phase = phases.item().object(2)?;
            phase.field("power", power)?;
            phase.field("duration", duration)?;
            phase.end()?;
        }
        phases.end()?;
        object.end()
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        const T: &str = "power_trace";
        let phases = value
            .field(T, "phases")?
            .items()?
            .map(|phase| Ok((phase.decode(T, "power")?, phase.decode(T, "duration")?)))
            .collect::<Result<Vec<_>>>()?;
        PowerTrace::new(phases).map_err(WireError::invalid(T))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_config_roundtrips() {
        let config = PackageConfig::default().with_ambient(25.0);
        let json = config.to_json().unwrap();
        assert_eq!(PackageConfig::from_json(&json).unwrap(), config);
        let binary = config.to_binary().unwrap();
        assert_eq!(PackageConfig::from_binary(&binary).unwrap(), config);
    }

    #[test]
    fn power_map_roundtrips_including_empty() {
        for map in [
            PowerMap::zeros(0),
            PowerMap::from_vec(vec![0.0, 12.5, 0.125]).unwrap(),
        ] {
            let json = map.to_json().unwrap();
            assert_eq!(PowerMap::from_json(&json).unwrap(), map);
        }
    }

    #[test]
    fn power_trace_roundtrips_and_validates() {
        let trace = PowerTrace::new(vec![
            (PowerMap::from_vec(vec![5.0, 0.0]).unwrap(), 0.5),
            (PowerMap::zeros(2), 0.25),
        ])
        .unwrap();
        let json = trace.to_json().unwrap();
        assert_eq!(PowerTrace::from_json(&json).unwrap(), trace);
        let binary = trace.to_binary().unwrap();
        assert_eq!(PowerTrace::from_binary(&binary).unwrap(), trace);

        assert!(matches!(
            PowerTrace::from_json("{\"phases\": []}"),
            Err(WireError::Invalid {
                type_name: "power_trace",
                ..
            })
        ));
    }

    #[test]
    fn domain_validation_fires_on_decode() {
        assert!(matches!(
            Material::from_json("{\"conductivity\": -1.0, \"volumetric_heat_capacity\": 1.0}"),
            Err(WireError::Invalid {
                type_name: "material",
                ..
            })
        ));
        assert!(matches!(
            PowerMap::from_json("{\"powers\": [1.0, -2.0]}"),
            Err(WireError::Invalid {
                type_name: "power_map",
                ..
            })
        ));
    }
}
