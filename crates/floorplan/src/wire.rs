//! [`Wire`] codecs for the floorplan types.
//!
//! A [`Floorplan`] serialises as its block list only; the name index and
//! bounding box are derived state that [`Floorplan::new`] rebuilds (and
//! re-validates) on decode, so malformed input — overlapping blocks,
//! duplicate names, an empty list — is rejected with a typed error instead
//! of producing an inconsistent value.

use thermsched_wire::{wire_struct, ObjectSink, Result, Sink, View, Wire, WireError};

use crate::{Block, Floorplan, Rect};

wire_struct! {
    "rect" => Rect { x, y, width, height };
    "block" => Block { name, rect };
}

impl Wire for Floorplan {
    const WIRE_TYPE: &'static str = "floorplan";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        let mut object = sink.object(1)?;
        object.entry("blocks")?.items(self.blocks().iter())?;
        object.end()
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        Floorplan::new(value.decode(Self::WIRE_TYPE, "blocks")?)
            .map_err(WireError::invalid(Self::WIRE_TYPE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermsched_wire::obj;

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
