//! [`Wire`] codecs for the floorplan types.
//!
//! A [`Floorplan`] serialises as its block list only; the name index and
//! bounding box are derived state that [`Floorplan::new`] rebuilds (and
//! re-validates) on decode, so malformed input — overlapping blocks,
//! duplicate names, an empty list — is rejected with a typed error instead
//! of producing an inconsistent value.

use thermsched_wire::{obj, wire_struct, JsonValue, Result, Wire, WireError};

use crate::{Block, Floorplan, Rect};

wire_struct! {
    "rect" => Rect { x, y, width, height };
    "block" => Block { name, rect };
}

impl Wire for Floorplan {
    const WIRE_TYPE: &'static str = "floorplan";

    fn to_wire(&self) -> JsonValue {
        let blocks = self.blocks().iter().map(Wire::to_wire).collect();
        obj().field("blocks", JsonValue::Array(blocks)).build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        Floorplan::new(value.decode(Self::WIRE_TYPE, "blocks")?)
            .map_err(WireError::invalid(Self::WIRE_TYPE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floorplan_roundtrips_and_revalidates() {
        let fp = crate::library::figure1_system();
        let json = fp.to_json().unwrap();
        assert_eq!(Floorplan::from_json(&json).unwrap(), fp);
        let binary = fp.to_binary().unwrap();
        assert_eq!(Floorplan::from_binary(&binary).unwrap(), fp);
    }

    #[test]
    fn invalid_floorplans_are_rejected_on_decode() {
        // Empty block list.
        let err = Floorplan::from_json("{\"blocks\": []}").unwrap_err();
        assert!(matches!(
            err,
            WireError::Invalid {
                type_name: "floorplan",
                ..
            }
        ));
        // Overlapping blocks survive the structural decode but fail domain
        // validation.
        let overlapping = obj()
            .field(
                "blocks",
                vec![
                    Block::from_mm("a", 2.0, 2.0, 0.0, 0.0).to_wire(),
                    Block::from_mm("b", 2.0, 2.0, 1.0, 0.0).to_wire(),
                ],
            )
            .build();
        let err = Floorplan::from_wire(&overlapping).unwrap_err();
        assert!(matches!(err, WireError::Invalid { .. }));
    }
}
