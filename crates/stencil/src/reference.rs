//! Per-point reference sweeps — the semantics the row engine must match.
//!
//! Every kernel's production sweep now runs on the row-segment engine
//! ([`rowexec`]); the functions here keep the original
//! per-point formulation alive as an executable specification. Each one:
//!
//! * hoists the row base `j * di + k * ps` once per row (no hidden
//!   per-point index recomputation — the reference is honest about what
//!   the engine removes: only bounds checks and per-point dispatch, not
//!   arithmetic),
//! * debug-asserts that every stencil offset of the row stays in bounds,
//!   and
//! * evaluates the per-point expression with exactly the operand order of
//!   the original kernels, so the engine's golden tests can require
//!   **bitwise** equality.
//!
//! They are deliberately *not* `#[cfg(test)]`-gated: the end-to-end
//! benchmark's `sweep` workload checks every arm against them before
//! timing, and other crates' tests (the stencil golden gates, the
//! multigrid `row_golden` suite) call them as the specification.

use tiling3d_grid::{Array2, Array3};
use tiling3d_loopnest::{for_each_rows, for_each_tiled_rows, IterSpace, TileDims};

use crate::redblack::{self, Schedule};
use crate::redblack2d::Schedule2D;
use crate::resid::Coeffs;
use crate::rowexec;

/// One per-point 3D Jacobi sweep (untiled, or the Fig 6 tiled order).
///
/// # Panics
/// Panics if the two arrays differ in logical or allocated extents.
pub fn jacobi3d(a: &mut Array3<f64>, b: &Array3<f64>, c: f64, tile: Option<TileDims>) {
    rowexec::check_pair(a, b, "A and B");
    let (di, ps) = (b.di(), b.plane_stride());
    let space = IterSpace::interior(b.ni(), b.nj(), b.nk());
    let (av, bv) = (a.as_mut_slice(), b.as_slice());
    let body = |i0: usize, i1: usize, j: usize, k: usize| {
        let row = j * di + k * ps;
        debug_assert!(row + i0 >= ps && row + i1 + ps < bv.len());
        for i in i0..=i1 {
            let idx = row + i;
            av[idx] = c
                * (bv[idx - 1]
                    + bv[idx + 1]
                    + bv[idx - di]
                    + bv[idx + di]
                    + bv[idx - ps]
                    + bv[idx + ps]);
        }
    };
    match tile {
        None => for_each_rows(space, body),
        Some(t) => for_each_tiled_rows(space, t, body),
    }
}

/// One per-point 2D Jacobi sweep.
///
/// # Panics
/// Panics if extents mismatch.
pub fn jacobi2d(a: &mut Array2<f64>, b: &Array2<f64>, c: f64) {
    assert_eq!((a.ni(), a.nj(), a.di()), (b.ni(), b.nj(), b.di()));
    if b.ni() < 3 || b.nj() < 3 {
        return;
    }
    let di = b.di();
    let (av, bv) = (a.as_mut_slice(), b.as_slice());
    for j in 1..b.nj() - 1 {
        let row = j * di;
        debug_assert!(row >= di && row + b.ni() - 2 + di < bv.len());
        for i in 1..b.ni() - 1 {
            let idx = row + i;
            av[idx] = c * (bv[idx - 1] + bv[idx + 1] + bv[idx - di] + bv[idx + di]);
        }
    }
}

/// One per-point in-place red-black iteration in any Fig 12 schedule.
///
/// # Panics
/// Panics unless the `I`/`J` logical extents are equal.
pub fn redblack(a: &mut Array3<f64>, c1: f64, c2: f64, schedule: Schedule) {
    let n = a.ni();
    let nk = a.nk();
    assert!(a.nj() == n, "red-black kernel expects square I/J extents");
    let (di, ps) = (a.di(), a.plane_stride());
    let av = a.as_mut_slice();
    redblack::visit_rows(n, nk, schedule, |i0, i1, j, k| {
        let row = j * di + k * ps;
        debug_assert!(row + i0 >= ps && row + i1 + ps < av.len());
        let mut i = i0;
        while i <= i1 {
            let idx = row + i;
            av[idx] = c1 * av[idx]
                + c2 * (av[idx - 1]
                    + av[idx - di]
                    + av[idx + 1]
                    + av[idx + di]
                    + av[idx - ps]
                    + av[idx + ps]);
            i += 2;
        }
    });
}

/// One per-point in-place 2D red-black iteration.
///
/// # Panics
/// Panics unless the logical extents are square.
pub fn redblack2d(a: &mut Array2<f64>, c1: f64, c2: f64, schedule: Schedule2D) {
    let n = a.ni();
    assert_eq!(a.nj(), n, "2D red-black expects a square grid");
    let di = a.di();
    let av = a.as_mut_slice();
    crate::redblack2d::visit_rows(n, schedule, |i0, i1, j| {
        let row = j * di;
        debug_assert!(row + i0 >= di && row + i1 + di < av.len());
        let mut i = i0;
        while i <= i1 {
            let idx = row + i;
            av[idx] = c1 * av[idx] + c2 * (av[idx - 1] + av[idx - di] + av[idx + 1] + av[idx + di]);
            i += 2;
        }
    });
}

/// One per-point RESID sweep (untiled or Fig 13 right-column tiled).
///
/// # Panics
/// Panics if the three arrays differ in logical or allocated extents.
pub fn resid(
    r: &mut Array3<f64>,
    u: &Array3<f64>,
    v: &Array3<f64>,
    coeffs: &Coeffs,
    tile: Option<TileDims>,
) {
    rowexec::check_pair(r, u, "R and U");
    rowexec::check_pair(u, v, "U and V");
    let (di, ps) = (u.di(), u.plane_stride());
    let space = IterSpace::interior(u.ni(), u.nj(), u.nk());
    let rv = r.as_mut_slice();
    let (uv, vv) = (u.as_slice(), v.as_slice());
    let (dii, psi) = (di as i64, ps as i64);
    let body = |i0: usize, i1: usize, j: usize, k: usize| {
        let row = j * di + k * ps;
        debug_assert!(row + i0 >= 1 + di + ps && row + i1 + 1 + di + ps < uv.len());
        for i in i0..=i1 {
            let idx = row + i;
            let at = |off: i64| uv[(idx as i64 + off) as usize];
            let mut s1 = 0.0;
            for o in crate::resid::faces(dii, psi) {
                s1 += at(o);
            }
            let mut s2 = 0.0;
            for o in crate::resid::edges(dii, psi) {
                s2 += at(o);
            }
            let mut s3 = 0.0;
            for o in crate::resid::corners(dii, psi) {
                s3 += at(o);
            }
            rv[idx] =
                vv[idx] - coeffs.a0 * uv[idx] - coeffs.a1 * s1 - coeffs.a2 * s2 - coeffs.a3 * s3;
        }
    };
    match tile {
        None => for_each_rows(space, body),
        Some(t) => for_each_tiled_rows(space, t, body),
    }
}

/// The per-point interior copy-back nest of Fig 5 (`B = A`).
///
/// # Panics
/// Panics if the two arrays differ in logical or allocated extents.
#[allow(clippy::manual_memcpy)] // deliberately per-point: this is the reference formulation
pub fn copy_back(b: &mut Array3<f64>, a: &Array3<f64>) {
    rowexec::check_pair(b, a, "B and A");
    let (di, ps) = (a.di(), a.plane_stride());
    let space = IterSpace::interior(a.ni(), a.nj(), a.nk());
    let av = a.as_slice();
    let bv = b.as_mut_slice();
    for_each_rows(space, |i0, i1, j, k| {
        let row = j * di + k * ps;
        debug_assert!(row + i1 < av.len());
        for i in i0..=i1 {
            bv[row + i] = av[row + i];
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a` at 10x10x10 and `b` at 8x10x10, both allocated 12x10: a check
    /// of `(di, dj, nk)` alone would let the copy overwrite `b`'s boundary
    /// column `i = 7` and its padding `i = 8`.
    #[test]
    #[should_panic(expected = "must share")]
    fn copy_back_ni_mismatch_panics() {
        let a = Array3::with_padding(10, 10, 10, 12, 10);
        let mut b = Array3::with_padding(8, 10, 10, 12, 10);
        copy_back(&mut b, &a);
    }

    /// `r` at `nj = 8` under `u` and `v` at `nj = 12`, all allocated
    /// `dj = 12`: a check of `(ni, di, dj)` alone would let the sweep write
    /// `r`'s boundary row `j = 7` and its padding row `j = 10`.
    #[test]
    #[should_panic(expected = "must share")]
    fn resid_nj_mismatch_panics() {
        let mut r = Array3::with_padding(10, 8, 10, 10, 12);
        let u = Array3::with_padding(10, 12, 10, 10, 12);
        resid(&mut r, &u, &u, &Coeffs::MGRID_A, None);
    }
}
