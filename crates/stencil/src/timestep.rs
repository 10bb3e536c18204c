//! The "realistic stencil code" pattern of Fig 5: a time-step loop around
//! **multiple loop nests** (compute + copy-back).
//!
//! ```text
//! do T = 1, time
//!   do K,J,I: A(I,J,K) = stencil(B)
//!   do K,J,I: B(I,J,K) = A(I,J,K)
//! ```
//!
//! This is the program shape of TOMCATV/SWIM/APPBT/APPSP, and the reason
//! the paper dismisses simple time-skewing: "simple skewing of tiles is
//! not possible with multiple loop nests". The paper's transformation
//! applies *inside* each sweep instead — this module runs whole time-step
//! iterations with the stencil nest optionally tiled, for both computation
//! and cache tracing.

use tiling3d_cachesim::{AccessSink, RowShape};
use tiling3d_grid::Array3;
use tiling3d_loopnest::{for_each_rows, IterSpace, TileDims};

use crate::{jacobi3d, rowexec};

/// Runs `steps` time-step iterations of the Fig 5 "realistic" pattern:
/// tiled (or not) Jacobi sweep `A = f(B)` followed by the copy-back nest
/// `B = A` over the interior.
///
/// # Panics
/// Panics if extents mismatch.
pub fn run(a: &mut Array3<f64>, b: &mut Array3<f64>, c: f64, tile: Option<TileDims>, steps: usize) {
    for _ in 0..steps {
        jacobi3d::sweep(a, b, c, tile);
        copy_back(b, a);
    }
}

/// The second nest of Fig 5: `B(I,J,K) = A(I,J,K)` over the interior.
///
/// Row-segment form: each interior row is one contiguous `copy_from_slice`.
///
/// # Panics
/// Panics if the two arrays differ in logical or allocated extents.
pub fn copy_back(b: &mut Array3<f64>, a: &Array3<f64>) {
    rowexec::check_pair(b, a, "B and A");
    let (di, ps) = (a.di(), a.plane_stride());
    let space = IterSpace::interior(a.ni(), a.nj(), a.nk());
    let av = a.as_slice();
    let bv = b.as_mut_slice();
    for_each_rows(space, |i0, i1, j, k| {
        let lo = j * di + k * ps + i0;
        let len = i1 - i0 + 1;
        bv[lo..lo + len].copy_from_slice(&av[lo..lo + len]);
    });
}

/// Replays the trace of `steps` full time steps (stencil nest + copy-back
/// nest, `A` at byte 0 and `B` immediately after, as in
/// [`crate::jacobi3d::trace`]).
///
/// The copy-back nest is emitted row-granular, matching [`copy_back`]'s
/// `copy_from_slice` rows: one one-slot load [`AccessSink::row`] over the
/// `A` row followed by one one-slot store row over the `B` row, so a
/// full-resolution simulation probes each touched line once per row
/// instead of once per element.
#[allow(clippy::too_many_arguments)]
pub fn trace<S: AccessSink>(
    ni: usize,
    nj: usize,
    nk: usize,
    di: usize,
    dj: usize,
    tile: Option<TileDims>,
    steps: usize,
    sink: &mut S,
) {
    let ps = di * dj;
    let a_base = 0u64;
    let b_base = (ps * nk * 8) as u64;
    let space = IterSpace::interior(ni, nj, nk);
    let (load, store) = (RowShape::new(8).read(0), RowShape::new(8).write(0));
    for _ in 0..steps {
        jacobi3d::trace(ni, nj, nk, di, dj, tile, sink);
        for_each_rows(space, |i0, i1, j, k| {
            let idx = (i0 + j * di + k * ps) as u64 * 8;
            let len = i1 - i0 + 1;
            sink.row(&load, a_base + idx, len);
            sink.row(&store, b_base + idx, len);
        });
    }
}

/// The alternative "pointer swap" implementation of the same time loop
/// (no copy-back nest — the roles of A and B alternate). Provided to show
/// the two formulations compute identical fields.
pub fn run_swapped(
    a: &mut Array3<f64>,
    b: &mut Array3<f64>,
    c: f64,
    tile: Option<TileDims>,
    steps: usize,
) {
    for s in 0..steps {
        let (dst, src) = if s % 2 == 0 {
            (&mut *a, &*b)
        } else {
            (&mut *b, &*a)
        };
        jacobi3d::sweep(dst, src, c, tile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_cachesim::CountingSink;
    use tiling3d_grid::fill_random;

    fn pair(n: usize) -> (Array3<f64>, Array3<f64>) {
        let a = Array3::new(n, n, n);
        let mut b = Array3::new(n, n, n);
        fill_random(&mut b, 17);
        (a, b)
    }

    #[test]
    fn tiled_time_loop_matches_untiled() {
        let (mut a1, mut b1) = pair(12);
        let (mut a2, mut b2) = (a1.clone(), b1.clone());
        run(&mut a1, &mut b1, 1.0 / 6.0, None, 4);
        run(&mut a2, &mut b2, 1.0 / 6.0, Some(TileDims::new(3, 5)), 4);
        assert!(a1.logical_eq(&a2));
        assert!(b1.logical_eq(&b2));
    }

    #[test]
    fn copy_back_version_matches_swap_version() {
        // After an even number of steps the swap version's `b` holds the
        // same field as the copy-back version's `b` on the interior;
        // boundaries differ (copy-back never touches them), so compare
        // interiors only.
        let n = 10;
        let (mut a1, mut b1) = pair(n);
        let mut b2 = b1.clone();
        // The swap version needs A's *boundary* to match B's (the copy-back
        // version never reads A's boundary, the swap version does once the
        // roles flip).
        let mut a2 = b1.clone();
        run(&mut a1, &mut b1, 0.25, None, 2);
        run_swapped(&mut a2, &mut b2, 0.25, None, 2);
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    assert_eq!(b1.get(i, j, k).to_bits(), b2.get(i, j, k).to_bits());
                }
            }
        }
    }

    #[test]
    fn trace_counts_both_nests() {
        let n = 8;
        let mut c = CountingSink::default();
        trace(n, n, n, n, n, None, 2, &mut c);
        let pts = (n as u64 - 2).pow(3);
        // Per step: stencil (6 reads + 1 write) + copy (1 read + 1 write).
        assert_eq!(c.reads, 2 * (6 + 1) * pts);
        assert_eq!(c.writes, 2 * 2 * pts);
    }

    /// `a` at 10x10x10 and `b` at 8x10x10, both allocated 12x10: a check
    /// of `(di, dj, nk)` alone would let the copy overwrite `b`'s boundary
    /// column `i = 7` and its padding `i = 8`.
    #[test]
    #[should_panic(expected = "must share")]
    fn ni_mismatch_panics() {
        let a = Array3::with_padding(10, 10, 10, 12, 10);
        let mut b = Array3::with_padding(8, 10, 10, 12, 10);
        copy_back(&mut b, &a);
    }

    #[test]
    fn copy_back_copies_interior_only() {
        let n = 6;
        let mut a = Array3::new(n, n, n);
        a.fill_with(|i, j, k| (i + 10 * j + 100 * k) as f64);
        let mut b = Array3::new(n, n, n);
        b.fill(-1.0);
        copy_back(&mut b, &a);
        assert_eq!(b.get(2, 3, 4), a.get(2, 3, 4));
        assert_eq!(b.get(0, 3, 4), -1.0); // boundary untouched
    }
}
