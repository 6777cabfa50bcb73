//! A named rectangular block (core) on the die.

use std::fmt;

use crate::Rect;

/// A named rectangular block of the floorplan — a core, cache array or other
/// layout unit that can be tested and heats up as a whole.
///
/// # Example
///
/// ```
/// use thermsched_floorplan::Block;
///
/// let b = Block::from_mm("Icache", 5.0, 3.0, 3.0, 6.0);
/// assert_eq!(b.name(), "Icache");
/// assert!((b.area() - 15.0e-6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub(crate) name: String,
    pub(crate) rect: Rect,
}

impl Block {
    /// Creates a block from metre units: `width`/`height` are the block size,
    /// `x`/`y` locate the lower-left corner.
    pub fn new(name: impl Into<String>, width: f64, height: f64, x: f64, y: f64) -> Self {
        Block {
            name: name.into(),
            rect: Rect::new(x, y, width, height),
        }
    }

    /// Creates a block from millimetre units (the natural unit for
    /// floorplans); stored internally in metres.
    pub fn from_mm(
        name: impl Into<String>,
        width_mm: f64,
        height_mm: f64,
        x_mm: f64,
        y_mm: f64,
    ) -> Self {
        Block::new(
            name,
            width_mm * 1e-3,
            height_mm * 1e-3,
            x_mm * 1e-3,
            y_mm * 1e-3,
        )
    }

    /// Creates a block directly from a [`Rect`] (metres).
    pub fn from_rect(name: impl Into<String>, rect: Rect) -> Self {
        Block {
            name: name.into(),
            rect,
        }
    }

    /// Block name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Geometry of the block (metres).
    pub fn rect(&self) -> &Rect {
        &self.rect
    }

    /// Width in metres.
    pub fn width(&self) -> f64 {
        self.rect.width
    }

    /// Height in metres.
    pub fn height(&self) -> f64 {
        self.rect.height
    }

    /// Area in square metres.
    pub fn area(&self) -> f64 {
        self.rect.area()
    }

    /// Area in square millimetres (convenience for reports).
    pub fn area_mm2(&self) -> f64 {
        self.area() * 1e6
    }

    /// Centre point `(x, y)` in metres.
    pub fn center(&self) -> (f64, f64) {
        self.rect.center()
    }

    /// Returns `true` if the block has positive, finite dimensions and a
    /// finite position.
    pub fn is_valid(&self) -> bool {
        !self.name.is_empty() && self.rect.is_valid()
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{:.2} x {:.2} mm at ({:.2}, {:.2}) mm]",
            self.name,
            self.rect.width * 1e3,
            self.rect.height * 1e3,
            self.rect.x * 1e3,
            self.rect.y * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_in_metres_and_millimetres_agree() {
        let a = Block::new("a", 0.004, 0.002, 0.001, 0.003);
        let b = Block::from_mm("a", 4.0, 2.0, 1.0, 3.0);
        assert!((a.width() - b.width()).abs() < 1e-15);
        assert!((a.height() - b.height()).abs() < 1e-15);
        assert!((a.rect().x - b.rect().x).abs() < 1e-15);
        assert!((a.rect().y - b.rect().y).abs() < 1e-15);
    }

    #[test]
    fn accessors() {
        let b = Block::from_mm("core0", 2.0, 3.0, 1.0, 1.0);
        assert_eq!(b.name(), "core0");
        assert!((b.area_mm2() - 6.0).abs() < 1e-9);
        let (cx, cy) = b.center();
        assert!((cx - 0.002).abs() < 1e-12);
        assert!((cy - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn validity() {
        assert!(Block::from_mm("ok", 1.0, 1.0, 0.0, 0.0).is_valid());
        assert!(!Block::from_mm("", 1.0, 1.0, 0.0, 0.0).is_valid());
        assert!(!Block::from_mm("bad", 0.0, 1.0, 0.0, 0.0).is_valid());
    }

    #[test]
    fn display_uses_millimetres() {
        let b = Block::from_mm("cpu", 4.0, 2.0, 0.0, 0.0);
        let s = format!("{b}");
        assert!(s.contains("cpu"));
        assert!(s.contains("4.00 x 2.00 mm"));
    }

    #[test]
    fn from_rect_wraps_geometry() {
        let r = Rect::new(0.0, 0.0, 0.001, 0.001);
        let b = Block::from_rect("x", r);
        assert_eq!(*b.rect(), r);
    }
}
