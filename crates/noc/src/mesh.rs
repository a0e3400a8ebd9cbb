//! PE placement on a 2D mesh and hop-count computation.

use semper_base::PeId;

/// A 2D mesh of PEs, numbered row-major.
///
/// The mesh only influences message latency (hop counts); routing is
/// dimension-ordered X-then-Y, as in common NoC designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    width: u16,
}

impl Mesh {
    /// Creates a mesh of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: u16) -> Mesh {
        assert!(width > 0, "mesh width must be positive");
        Mesh { width }
    }

    /// Mesh width (PEs per row).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// The (x, y) coordinate of a PE.
    #[inline]
    pub fn coords(&self, pe: PeId) -> (u16, u16) {
        (pe.0 % self.width, pe.0 / self.width)
    }

    /// Manhattan distance between two PEs (number of mesh hops).
    #[inline]
    pub fn hops(&self, a: PeId, b: PeId) -> u64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_coords() {
        let m = Mesh::new(4);
        assert_eq!(m.coords(PeId(0)), (0, 0));
        assert_eq!(m.coords(PeId(3)), (3, 0));
        assert_eq!(m.coords(PeId(4)), (0, 1));
        assert_eq!(m.coords(PeId(7)), (3, 1));
    }

    #[test]
    fn manhattan_hops() {
        let m = Mesh::new(4);
        assert_eq!(m.hops(PeId(0), PeId(0)), 0);
        assert_eq!(m.hops(PeId(0), PeId(3)), 3);
        assert_eq!(m.hops(PeId(0), PeId(5)), 2);
        assert_eq!(m.hops(PeId(5), PeId(0)), 2);
    }

    #[test]
    fn hops_symmetric() {
        let m = Mesh::new(8);
        for a in [0u16, 7, 33, 50] {
            for b in [1u16, 13, 62] {
                assert_eq!(m.hops(PeId(a), PeId(b)), m.hops(PeId(b), PeId(a)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        let _ = Mesh::new(0);
    }
}
