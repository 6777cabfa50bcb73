//! Ready-made floorplans used by the paper's experiments and by tests.
//!
//! * [`alpha21364`] — a 15-block floorplan with the structural flavour of the
//!   Compaq Alpha 21364 (ev6 core plus surrounding L2) used by the DATE 2005
//!   experiments. The exact block coordinates of the HotSpot release are not
//!   reproduced; what matters for the paper's results is the *spread of block
//!   areas* (large cool cache arrays next to small hot datapath blocks), which
//!   this floorplan preserves. See DESIGN.md for the substitution note.
//! * [`figure1_system`] — the hypothetical 7-core SoC of the paper's Figure 1,
//!   where every core dissipates the same test power but core areas differ by
//!   4×, so power densities differ by 4×.
//! * [`uniform_grid`] — synthetic n×m grids for scaling studies and property
//!   tests.

use crate::{Block, Floorplan};

/// Minimum and maximum of a value set, or `None` when it is empty.
pub fn value_spread(values: impl IntoIterator<Item = f64>) -> Option<(f64, f64)> {
    values.into_iter().fold(None, |acc, v| match acc {
        None => Some((v, v)),
        Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
    })
}

/// The 15-block Alpha-21364-like floorplan used by the paper's experimental
/// evaluation (Section 4).
///
/// The die is 16 mm × 16 mm and is exactly tiled: three large L2 cache banks
/// wrap the bottom, left and right edges, and the centre/top of the die holds
/// twelve small architectural blocks (caches, integer and floating-point
/// datapath, branch predictor, TLB, load/store queue). Block areas span
/// roughly 4 mm² to 96 mm², giving the 1–2 orders of magnitude of power
/// density variation that drives the paper's observations.
///
/// # Example
///
/// ```
/// let fp = thermsched_floorplan::library::alpha21364();
/// assert_eq!(fp.block_count(), 15);
/// assert!(fp.coverage() > 0.999);
/// ```
pub fn alpha21364() -> Floorplan {
    // All coordinates in millimetres; die is 16 x 16 mm.
    let blocks = vec![
        // Large cache banks around the periphery.
        Block::from_mm("L2_bottom", 16.0, 6.0, 0.0, 0.0),
        Block::from_mm("L2_left", 3.0, 10.0, 0.0, 6.0),
        Block::from_mm("L2_right", 3.0, 10.0, 13.0, 6.0),
        // First row above the bottom L2: level-1 caches.
        Block::from_mm("Icache", 5.0, 3.0, 3.0, 6.0),
        Block::from_mm("Dcache", 5.0, 3.0, 8.0, 6.0),
        // Second row: load/store queue, integer execution, integer registers.
        Block::from_mm("LdStQ", 3.0, 2.5, 3.0, 9.0),
        Block::from_mm("IntExec", 4.0, 2.5, 6.0, 9.0),
        Block::from_mm("IntReg", 3.0, 2.5, 10.0, 9.0),
        // Third row: integer map/queue, branch predictor, data TLB.
        Block::from_mm("IntMap", 3.0, 2.0, 3.0, 11.5),
        Block::from_mm("IntQ", 3.0, 2.0, 6.0, 11.5),
        Block::from_mm("Bpred", 2.0, 2.0, 9.0, 11.5),
        Block::from_mm("DTB", 2.0, 2.0, 11.0, 11.5),
        // Fourth row: floating-point units.
        Block::from_mm("FPAdd", 4.0, 2.5, 3.0, 13.5),
        Block::from_mm("FPMul", 3.0, 2.5, 7.0, 13.5),
        Block::from_mm("FPReg", 3.0, 2.5, 10.0, 13.5),
    ];
    Floorplan::new(blocks).expect("alpha21364 library floorplan is valid by construction")
}

/// The hypothetical 7-core SoC of the paper's Figure 1.
///
/// The die is 20 mm × 20 mm and is exactly tiled. Core `C1` is a tall block
/// along the west edge; cores `C5`–`C7` are large 80 mm² blocks wrapping the
/// south, east and north periphery (well coupled to the die boundary and to
/// the large passive `C1`); cores `C2`–`C3` are small 20 mm² blocks buried in
/// the middle of the die with `C4` tucked into the north-east corner. With
/// equal test power on every core, the power density of `C2`–`C4` is 4× that
/// of `C5`–`C7`, which is exactly the situation the paper uses to show that a
/// chip-level power constraint cannot distinguish a safe session from an
/// overheating one: testing the interior small cores together concentrates
/// heat, while testing the peripheral large cores together does not.
///
/// # Example
///
/// ```
/// let fp = thermsched_floorplan::library::figure1_system();
/// let c2 = fp.block_by_name("C2").unwrap();
/// let c5 = fp.block_by_name("C5").unwrap();
/// assert!((c5.area() / c2.area() - 4.0).abs() < 1e-9);
/// ```
pub fn figure1_system() -> Floorplan {
    let blocks = vec![
        Block::from_mm("C1", 5.0, 20.0, 0.0, 0.0),
        Block::from_mm("C2", 5.0, 4.0, 5.0, 8.0),
        Block::from_mm("C3", 5.0, 4.0, 10.0, 8.0),
        Block::from_mm("C4", 5.0, 4.0, 15.0, 16.0),
        Block::from_mm("C5", 5.0, 16.0, 15.0, 0.0),
        Block::from_mm("C6", 10.0, 8.0, 5.0, 12.0),
        Block::from_mm("C7", 10.0, 8.0, 5.0, 0.0),
    ];
    Floorplan::new(blocks).expect("figure1 library floorplan is valid by construction")
}

/// A synthetic `nx × ny` grid of identical square blocks, each
/// `block_mm` × `block_mm` millimetres, named `b<x>_<y>`.
///
/// Useful for scaling benchmarks and property-based tests where a regular,
/// easily-reasoned-about adjacency structure is wanted.
///
/// # Panics
///
/// Panics if `nx` or `ny` is zero or `block_mm` is not strictly positive.
///
/// # Example
///
/// ```
/// let fp = thermsched_floorplan::library::uniform_grid(4, 3, 2.0);
/// assert_eq!(fp.block_count(), 12);
/// ```
pub fn uniform_grid(nx: usize, ny: usize, block_mm: f64) -> Floorplan {
    assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
    assert!(
        block_mm > 0.0 && block_mm.is_finite(),
        "block size must be positive"
    );
    let mut blocks = Vec::with_capacity(nx * ny);
    for ix in 0..nx {
        for iy in 0..ny {
            blocks.push(Block::from_mm(
                format!("b{ix}_{iy}"),
                block_mm,
                block_mm,
                ix as f64 * block_mm,
                iy as f64 * block_mm,
            ));
        }
    }
    Floorplan::new(blocks).expect("uniform grid floorplan is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha21364_is_a_valid_fully_tiled_15_block_die() {
        let fp = alpha21364();
        assert_eq!(fp.block_count(), 15);
        let b = fp.bounds();
        assert!((b.width - 16e-3).abs() < 1e-9);
        assert!((b.height - 16e-3).abs() < 1e-9);
        // Exact tiling: block areas sum to the die area.
        assert!((fp.coverage() - 1.0).abs() < 1e-9);
        // Every block has a lateral escape path.
        assert!(fp.adjacency().all_blocks_have_lateral_paths());
    }

    #[test]
    fn alpha21364_has_wide_area_spread() {
        let fp = alpha21364();
        let areas = fp.blocks().iter().map(|b| b.area_mm2());
        let (min, max) = value_spread(areas).expect("floorplan has blocks");
        // Paper relies on a large power-density spread; area spread of >10x.
        assert!(max / min > 10.0, "area spread too small: {min} .. {max}");
    }

    #[test]
    fn value_spread_of_an_empty_set_is_none_not_an_infinite_sentinel() {
        // Regression: the old INFINITY/0.0 fold seeds turned an empty slice
        // into an infinite spread that vacuously passed ratio checks.
        assert_eq!(value_spread([]), None);
        assert_eq!(value_spread([2.5]), Some((2.5, 2.5)));
        assert_eq!(value_spread([3.0, -1.0, 2.0]), Some((-1.0, 3.0)));
    }

    #[test]
    fn alpha21364_block_names_are_the_expected_architectural_units() {
        let fp = alpha21364();
        for name in [
            "L2_bottom",
            "L2_left",
            "L2_right",
            "Icache",
            "Dcache",
            "LdStQ",
            "IntExec",
            "IntReg",
            "IntMap",
            "IntQ",
            "Bpred",
            "DTB",
            "FPAdd",
            "FPMul",
            "FPReg",
        ] {
            assert!(fp.index_of(name).is_some(), "missing block {name}");
        }
    }

    #[test]
    fn figure1_matches_paper_power_density_ratio() {
        let fp = figure1_system();
        assert_eq!(fp.block_count(), 7);
        assert!((fp.coverage() - 1.0).abs() < 1e-6);
        let small = fp.block_by_name("C2").unwrap().area();
        let large = fp.block_by_name("C5").unwrap().area();
        assert!((large / small - 4.0).abs() < 1e-6);
        // C2..C4 identical, C5..C7 identical.
        for n in ["C3", "C4"] {
            assert!((fp.block_by_name(n).unwrap().area() - small).abs() < 1e-12);
        }
        for n in ["C6", "C7"] {
            assert!((fp.block_by_name(n).unwrap().area() - large).abs() < 1e-9);
        }
    }

    #[test]
    fn figure1_small_cores_are_interior_and_clustered() {
        // C2 and C3 abut each other in the middle of the die (no boundary
        // exposure at all), so testing them together concentrates heat; the
        // large cores all touch the die boundary.
        let fp = figure1_system();
        let adj = fp.adjacency();
        let c2 = fp.index_of("C2").unwrap();
        let c3 = fp.index_of("C3").unwrap();
        assert!(adj.shared_edge_length(c2, c3) > 0.0);
        assert_eq!(adj.boundary_exposure(c2).total(), 0.0);
        assert_eq!(adj.boundary_exposure(c3).total(), 0.0);
        for name in ["C5", "C6", "C7"] {
            let id = fp.index_of(name).unwrap();
            assert!(adj.boundary_exposure(id).total() > 0.0);
        }
    }

    #[test]
    fn uniform_grid_shapes() {
        let fp = uniform_grid(3, 2, 1.5);
        assert_eq!(fp.block_count(), 6);
        assert!((fp.bounds().width - 4.5e-3).abs() < 1e-9);
        assert!((fp.bounds().height - 3.0e-3).abs() < 1e-9);
        assert!((fp.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "grid dimensions must be positive")]
    fn uniform_grid_rejects_zero_dimension() {
        let _ = uniform_grid(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn uniform_grid_rejects_zero_block() {
        let _ = uniform_grid(2, 2, 0.0);
    }
}
