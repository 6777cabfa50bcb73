//! The [`Floorplan`] container.

use std::fmt;

use crate::{AdjacencyGraph, Block, FloorplanError, Rect, Result};

/// Index of a block within a [`Floorplan`]. Blocks keep their insertion order,
/// so a `BlockId` is stable for the lifetime of the floorplan.
pub type BlockId = usize;

/// A validated collection of non-overlapping blocks on a die.
///
/// Construct a floorplan through [`crate::FloorplanBuilder`], [`Floorplan::new`]
/// or the [`crate::parse_flp`] parser; all three run the same validation
/// (non-empty, unique names, positive dimensions, no overlaps).
///
/// # Example
///
/// ```
/// use thermsched_floorplan::{Block, Floorplan};
///
/// # fn main() -> Result<(), thermsched_floorplan::FloorplanError> {
/// let fp = Floorplan::new(vec![
///     Block::from_mm("a", 2.0, 2.0, 0.0, 0.0),
///     Block::from_mm("b", 2.0, 2.0, 2.0, 0.0),
/// ])?;
/// assert_eq!(fp.block_count(), 2);
/// assert_eq!(fp.index_of("b"), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    blocks: Vec<Block>,
    /// Every block id, sorted by block name: [`Floorplan::index_of`]
    /// binary-searches it.
    by_name: Vec<BlockId>,
    bounds: Rect,
}

impl Floorplan {
    /// Creates a floorplan from a list of blocks, validating it.
    ///
    /// # Errors
    ///
    /// * [`FloorplanError::EmptyFloorplan`] if `blocks` is empty.
    /// * [`FloorplanError::InvalidDimensions`] / [`FloorplanError::InvalidPosition`]
    ///   for malformed blocks.
    /// * [`FloorplanError::DuplicateName`] if two blocks share a name.
    /// * [`FloorplanError::OverlappingBlocks`] if any two blocks overlap by
    ///   more than the geometric tolerance.
    pub fn new(blocks: Vec<Block>) -> Result<Self> {
        if blocks.is_empty() {
            return Err(FloorplanError::EmptyFloorplan);
        }
        // A stable sort keeps equal names in list order, so the later block
        // of each adjacent equal pair repeats a name, and the smallest such
        // id is the first repeat in list order.
        let mut by_name: Vec<BlockId> = (0..blocks.len()).collect();
        by_name.sort_by(|&a, &b| blocks[a].name().cmp(blocks[b].name()));
        let first_repeat = by_name
            .windows(2)
            .filter(|pair| blocks[pair[0]].name() == blocks[pair[1]].name())
            .map(|pair| pair[1])
            .min();
        // Blocks are checked in list order, each for its dimensions, its
        // position and then whether it repeats an earlier name.
        for (i, b) in blocks.iter().enumerate() {
            if !(b.width() > 0.0
                && b.height() > 0.0
                && b.width().is_finite()
                && b.height().is_finite())
            {
                return Err(FloorplanError::InvalidDimensions {
                    block: b.name().to_owned(),
                    width: b.width(),
                    height: b.height(),
                });
            }
            if !(b.rect().x.is_finite() && b.rect().y.is_finite()) {
                return Err(FloorplanError::InvalidPosition {
                    block: b.name().to_owned(),
                });
            }
            if first_repeat == Some(i) {
                return Err(FloorplanError::DuplicateName {
                    name: b.name().to_owned(),
                });
            }
        }
        // Overlap check. The area tolerance scales with the smaller block so
        // that sliver overlaps from floating-point noise are not rejected.
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                let area = blocks[i].rect().overlap_area(blocks[j].rect());
                let min_area = blocks[i].area().min(blocks[j].area());
                if area > 1e-9 * min_area {
                    return Err(FloorplanError::OverlappingBlocks {
                        first: blocks[i].name().to_owned(),
                        second: blocks[j].name().to_owned(),
                        area,
                    });
                }
            }
        }
        let bounds = blocks
            .iter()
            .skip(1)
            .fold(*blocks[0].rect(), |acc, b| acc.union(b.rect()));
        Ok(Floorplan {
            blocks,
            by_name,
            bounds,
        })
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Borrows the blocks in insertion order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Iterates over `(BlockId, &Block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate()
    }

    /// Block with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::BlockIndexOutOfRange`] if `id` is out of range.
    pub fn block(&self, id: BlockId) -> Result<&Block> {
        self.blocks
            .get(id)
            .ok_or(FloorplanError::BlockIndexOutOfRange {
                index: id,
                count: self.blocks.len(),
            })
    }

    /// Block with the given name.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::UnknownBlock`] if no block has that name.
    pub fn block_by_name(&self, name: &str) -> Result<&Block> {
        self.index_of(name)
            .map(|i| &self.blocks[i])
            .ok_or_else(|| FloorplanError::UnknownBlock {
                name: name.to_owned(),
            })
    }

    /// Id of the block with the given name, if any.
    pub fn index_of(&self, name: &str) -> Option<BlockId> {
        self.by_name
            .binary_search_by(|&id| self.blocks[id].name().cmp(name))
            .ok()
            .map(|at| self.by_name[at])
    }

    /// Bounding box of all blocks (the die outline), in metres.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Total area covered by blocks, in square metres.
    pub fn total_block_area(&self) -> f64 {
        self.blocks.iter().map(Block::area).sum()
    }

    /// Fraction of the bounding box covered by blocks, in `[0, 1]`.
    ///
    /// Library floorplans tile their die exactly, so this is `~1.0` for them;
    /// values well below 1 indicate dead space between blocks, which weakens
    /// the lateral heat paths assumed by the session thermal model.
    pub fn coverage(&self) -> f64 {
        let die = self.bounds.area();
        if die <= 0.0 {
            0.0
        } else {
            (self.total_block_area() / die).min(1.0)
        }
    }

    /// Computes the adjacency graph (shared edges and boundary exposure).
    pub fn adjacency(&self) -> AdjacencyGraph {
        AdjacencyGraph::from_floorplan(self)
    }
}

impl fmt::Display for Floorplan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Floorplan: {} blocks, die {:.1} x {:.1} mm",
            self.blocks.len(),
            self.bounds.width * 1e3,
            self.bounds.height * 1e3
        )?;
        for b in &self.blocks {
            writeln!(f, "  {b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blocks() -> Vec<Block> {
        vec![
            Block::from_mm("a", 2.0, 2.0, 0.0, 0.0),
            Block::from_mm("b", 2.0, 2.0, 2.0, 0.0),
        ]
    }

    #[test]
    fn builds_valid_floorplan() {
        let fp = Floorplan::new(two_blocks()).unwrap();
        assert_eq!(fp.block_count(), 2);
        assert_eq!(fp.index_of("a"), Some(0));
        assert_eq!(fp.block(1).unwrap().name(), "b");
        assert!(fp.block(2).is_err());
        assert!(fp.block_by_name("missing").is_err());
        assert_eq!(fp.block_by_name("b").unwrap().name(), "b");
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            Floorplan::new(vec![]),
            Err(FloorplanError::EmptyFloorplan)
        ));
    }

    #[test]
    fn rejects_duplicate_names() {
        let blocks = vec![
            Block::from_mm("x", 1.0, 1.0, 0.0, 0.0),
            Block::from_mm("x", 1.0, 1.0, 5.0, 5.0),
        ];
        assert!(matches!(
            Floorplan::new(blocks),
            Err(FloorplanError::DuplicateName { .. })
        ));
    }

    #[test]
    fn rejects_overlap() {
        let blocks = vec![
            Block::from_mm("a", 2.0, 2.0, 0.0, 0.0),
            Block::from_mm("b", 2.0, 2.0, 1.0, 0.0),
        ];
        assert!(matches!(
            Floorplan::new(blocks),
            Err(FloorplanError::OverlappingBlocks { .. })
        ));
    }

    #[test]
    fn rejects_bad_dimensions_and_positions() {
        assert!(matches!(
            Floorplan::new(vec![Block::from_mm("z", 0.0, 1.0, 0.0, 0.0)]),
            Err(FloorplanError::InvalidDimensions { .. })
        ));
        assert!(matches!(
            Floorplan::new(vec![Block::new("z", 1.0, 1.0, f64::NAN, 0.0)]),
            Err(FloorplanError::InvalidPosition { .. })
        ));
    }

    /// Blocks named `names`, side by side; a `!` suffix gives that block a
    /// zero width and a `?` suffix a NaN position.
    fn row(names: &[&str]) -> Vec<Block> {
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let x = 2.0 * i as f64;
                match (name.strip_suffix('!'), name.strip_suffix('?')) {
                    (Some(name), _) => Block::from_mm(name, 0.0, 1.0, x, 0.0),
                    (_, Some(name)) => Block::new(name, 1e-3, 1e-3, f64::NAN, 0.0),
                    _ => Block::from_mm(*name, 1.0, 1.0, x, 0.0),
                }
            })
            .collect()
    }

    #[test]
    fn the_first_defect_in_list_order_is_reported() {
        let duplicate = |name: &str| {
            Err(FloorplanError::DuplicateName {
                name: name.to_owned(),
            })
        };
        let dimensions = |block: &str| {
            Err(FloorplanError::InvalidDimensions {
                block: block.to_owned(),
                width: 0.0,
                height: 1e-3,
            })
        };
        let position = |block: &str| {
            Err(FloorplanError::InvalidPosition {
                block: block.to_owned(),
            })
        };
        for (names, expected) in [
            // A duplicate name before a bad dimension.
            (&["a", "b", "a", "c!"][..], duplicate("a")),
            (&["a", "a", "b?"], duplicate("a")),
            // A bad dimension or position before a duplicate.
            (&["a", "c!", "a"], dimensions("c")),
            (&["a", "p?", "a"], position("p")),
            // The repeating block's own dimensions are checked first.
            (&["a", "a!"], dimensions("a")),
            (&["a", "a?"], position("a")),
            // Two different repeated names: the first repeat in list
            // order, whichever name sorts first.
            (&["a", "b", "b", "a"], duplicate("b")),
            (&["a", "b", "a", "b"], duplicate("a")),
            (&["z", "y", "y", "z"], duplicate("y")),
            (&["b", "a", "c", "a", "b"], duplicate("a")),
            (&["a", "a", "a"], duplicate("a")),
        ] {
            assert_eq!(Floorplan::new(row(names)), expected, "{names:?}");
        }
        // Duplicates are found before overlaps.
        let stacked = vec![
            Block::from_mm("a", 1.0, 1.0, 0.0, 0.0),
            Block::from_mm("a", 1.0, 1.0, 0.0, 0.0),
        ];
        assert_eq!(Floorplan::new(stacked), duplicate("a"));
    }

    #[test]
    fn index_of_agrees_with_a_linear_scan() {
        let floorplans = [
            crate::library::alpha21364(),
            crate::library::figure1_system(),
            crate::library::uniform_grid(1, 1, 1.0),
            crate::library::uniform_grid(5, 4, 2.0),
            crate::library::uniform_grid(12, 11, 0.5),
            Floorplan::new(row(&["m", "c", "x", "a", "q"])).unwrap(),
        ];
        for fp in &floorplans {
            for (id, block) in fp.iter() {
                let scanned = fp.blocks().iter().position(|b| b.name() == block.name());
                assert_eq!(scanned, Some(id));
                assert_eq!(fp.index_of(block.name()), scanned, "{}", block.name());
                // A prefix or an extension of a name is another name.
                let longer = format!("{}_", block.name());
                assert_eq!(fp.index_of(&longer), None);
            }
            for absent in ["", "missing", "\u{0}", "~~~", "b", "C"] {
                let scanned = fp.blocks().iter().position(|b| b.name() == absent);
                assert_eq!(fp.index_of(absent), scanned, "{absent:?}");
            }
        }
    }

    #[test]
    fn bounds_and_coverage() {
        let fp = Floorplan::new(two_blocks()).unwrap();
        let b = fp.bounds();
        assert!((b.width - 0.004).abs() < 1e-12);
        assert!((b.height - 0.002).abs() < 1e-12);
        assert!((fp.coverage() - 1.0).abs() < 1e-9);
        assert!((fp.total_block_area() - 8.0e-6).abs() < 1e-12);
    }

    #[test]
    fn touching_blocks_are_not_overlapping() {
        // Exact abutment must be accepted.
        let fp = Floorplan::new(two_blocks());
        assert!(fp.is_ok());
    }

    #[test]
    fn display_lists_blocks() {
        let fp = Floorplan::new(two_blocks()).unwrap();
        let s = format!("{fp}");
        assert!(s.contains("2 blocks"));
        assert!(s.contains("a ["));
    }

    #[test]
    fn iter_preserves_order() {
        let fp = Floorplan::new(two_blocks()).unwrap();
        let names: Vec<&str> = fp.iter().map(|(_, b)| b.name()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
