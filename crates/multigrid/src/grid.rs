//! Ghost-layered periodic grids and the `comm3` boundary exchange.

use tiling3d_grid::Array3;

/// A periodic grid of `m^3` interior points stored in an `(m+2)^3` array
/// (one ghost layer per face), optionally padded in the lower allocated
/// dimensions — the MGRID storage scheme.
///
/// Interior indices run `1..=m`; ghosts at `0` and `m+1` mirror the
/// opposite interior face (`comm3`).
#[derive(Clone, Debug)]
pub struct PeriodicGrid {
    data: Array3<f64>,
    m: usize,
}

impl PeriodicGrid {
    /// Creates a zeroed grid with `m` interior points per side, allocated
    /// with the given lower dimensions (`di, dj >= m + 2`).
    ///
    /// # Panics
    /// Panics if `m < 2` or the padding is insufficient.
    pub fn with_padding(m: usize, di: usize, dj: usize) -> Self {
        assert!(m >= 2, "need at least 2 interior points, got {m}");
        let n = m + 2;
        PeriodicGrid {
            data: Array3::with_padding(n, n, n, di, dj),
            m,
        }
    }

    /// Creates an unpadded zeroed grid.
    pub fn new(m: usize) -> Self {
        Self::with_padding(m, m + 2, m + 2)
    }

    /// Interior points per side.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total logical points per side (`m + 2`).
    pub fn n(&self) -> usize {
        self.m + 2
    }

    /// The backing array (ghosts included).
    pub fn array(&self) -> &Array3<f64> {
        &self.data
    }

    /// Mutable backing array.
    pub fn array_mut(&mut self) -> &mut Array3<f64> {
        &mut self.data
    }

    /// Reads `(i, j, k)` (any of `0..=m+1` per dim).
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data.get(i, j, k)
    }

    /// Writes `(i, j, k)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f64) {
        self.data.set(i, j, k, v);
    }

    /// Fills the interior from `f(i, j, k)` (1-based interior coordinates)
    /// and refreshes the ghosts.
    pub fn fill_interior(&mut self, mut f: impl FnMut(usize, usize, usize) -> f64) {
        let m = self.m;
        for k in 1..=m {
            for j in 1..=m {
                for i in 1..=m {
                    self.data.set(i, j, k, f(i, j, k));
                }
            }
        }
        self.comm3();
    }

    /// The MGRID `comm3` boundary exchange: copies each interior face to
    /// the opposite ghost layer, axis by axis (so edges and corners end up
    /// correct).
    pub fn comm3(&mut self) {
        let (m, n) = (self.m, self.n());
        let (di, ps) = (self.data.di(), self.data.plane_stride());
        let v = self.data.as_mut_slice();
        // Axis I.
        for plane in v.chunks_exact_mut(ps) {
            for row in plane.chunks_exact_mut(di).take(n) {
                let (lo, hi) = (row[1], row[m]);
                row[0] = hi;
                row[m + 1] = lo;
            }
        }
        // Axis J (sees updated I ghosts): rows m and 1 to rows 0 and m + 1.
        for plane in v.chunks_exact_mut(ps) {
            plane.copy_within(m * di..m * di + n, 0);
            plane.copy_within(di..di + n, (m + 1) * di);
        }
        // Axis K: planes m and 1 to planes 0 and m + 1, row by row.
        for at in (0..n).map(|j| j * di) {
            v.copy_within(m * ps + at..m * ps + at + n, at);
            v.copy_within(ps + at..ps + at + n, (m + 1) * ps + at);
        }
    }

    /// Zeroes every element (interior and ghosts).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// L2 norm over the interior, normalised by the point count — the
    /// `norm2u3`-style convergence metric. One sequential sum in `(k, j, i)`
    /// order.
    pub fn interior_l2(&self) -> f64 {
        let m = self.m;
        let (di, ps) = (self.data.di(), self.data.plane_stride());
        let v = self.data.as_slice();
        let mut s = 0.0;
        for k in 1..=m {
            for j in 1..=m {
                for &x in &v[k * ps + j * di + 1..][..m] {
                    s += x * x;
                }
            }
        }
        (s / (m * m * m) as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm3_wraps_each_axis() {
        let mut g = PeriodicGrid::new(4);
        g.fill_interior(|i, j, k| (i * 100 + j * 10 + k) as f64);
        // I-axis wrap: ghost 0 mirrors interior m, ghost m+1 mirrors 1.
        assert_eq!(g.get(0, 2, 3), g.get(4, 2, 3));
        assert_eq!(g.get(5, 2, 3), g.get(1, 2, 3));
        // J and K similarly.
        assert_eq!(g.get(2, 0, 3), g.get(2, 4, 3));
        assert_eq!(g.get(2, 3, 5), g.get(2, 3, 1));
    }

    #[test]
    fn comm3_fixes_edges_and_corners() {
        let mut g = PeriodicGrid::new(4);
        g.fill_interior(|i, j, k| (i + 10 * j + 100 * k) as f64);
        // Corner ghost (0,0,0) must equal interior (m,m,m).
        assert_eq!(g.get(0, 0, 0), g.get(4, 4, 4));
        assert_eq!(g.get(5, 5, 5), g.get(1, 1, 1));
        // Edge ghost.
        assert_eq!(g.get(0, 5, 2), g.get(4, 1, 2));
    }

    #[test]
    fn padded_grid_same_logical_behaviour() {
        let mut a = PeriodicGrid::new(4);
        let mut b = PeriodicGrid::with_padding(4, 9, 8);
        let f = |i: usize, j: usize, k: usize| (i * j + k) as f64;
        a.fill_interior(f);
        b.fill_interior(f);
        for k in 0..6 {
            for j in 0..6 {
                for i in 0..6 {
                    assert_eq!(a.get(i, j, k), b.get(i, j, k));
                }
            }
        }
    }

    #[test]
    fn interior_l2_of_unit_field() {
        let mut g = PeriodicGrid::new(3);
        g.fill_interior(|_, _, _| 2.0);
        assert!((g.interior_l2() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn tiny_grid_panics() {
        let _ = PeriodicGrid::new(1);
    }
}
