//! The four MG routines: `resid`, `psinv`, `rprj3`, `interp`.
//!
//! `resid` is the paper's Fig 13 kernel and delegates to
//! [`tiling3d_stencil::resid`]; the others are the remaining MGRID
//! subroutines ("we expect additional improvements to arise from tiling the
//! remaining subroutines" — `psinv` here accepts a tile too, as that
//! extension). All routines finish with a `comm3` ghost exchange, like the
//! benchmark.
//!
//! Every loop body is a [`rowexec`] row kernel; the routines here only
//! pick the planes and rows it runs on, as the stencil sweeps do.

use tiling3d_loopnest::{for_each_rows, for_each_tiled_rows, IterSpace, TileDims};
use tiling3d_stencil::resid::Coeffs;
use tiling3d_stencil::rowexec;

use crate::grid::PeriodicGrid;

/// Smoother coefficients `(C0, C1, C2, C3)` for centre / faces / edges /
/// corners.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SmootherCoeffs {
    /// Centre weight.
    pub c0: f64,
    /// Face weight.
    pub c1: f64,
    /// Edge weight.
    pub c2: f64,
    /// Corner weight (0 in the standard MG smoother).
    pub c3: f64,
}

impl SmootherCoeffs {
    /// The NAS/SPEC MGRID `C` smoother: `(-3/8, 1/32, -1/64, 0)`.
    pub const MGRID_C: SmootherCoeffs = SmootherCoeffs {
        c0: -3.0 / 8.0,
        c1: 1.0 / 32.0,
        c2: -1.0 / 64.0,
        c3: 0.0,
    };
}

/// `r = v - A u` over the interior, then `comm3(r)`. The finest-level
/// instance of the paper's RESID kernel; `tile` applies the Fig 13 tiled
/// schedule.
///
/// # Panics
/// Panics if the three grids differ in interior size or allocation.
pub fn resid(
    r: &mut PeriodicGrid,
    u: &PeriodicGrid,
    v: &PeriodicGrid,
    a: &Coeffs,
    tile: Option<TileDims>,
) {
    tiling3d_stencil::resid::sweep(r.array_mut(), u.array(), Some(v.array()), a, tile);
    r.comm3();
}

/// In-place residual update `r = r - A u` (the intermediate-level form:
/// MGRID calls `resid(u(k), r(k), r(k))` with output aliasing `v`), then
/// `comm3(r)`. The same sweep as [`resid`] with `v` = `r`: the `v` role
/// reads only the centre point, which the sweep reads before the write.
///
/// # Panics
/// Panics if the two grids differ in interior size or allocation.
pub fn resid_inplace(r: &mut PeriodicGrid, u: &PeriodicGrid, a: &Coeffs, tile: Option<TileDims>) {
    tiling3d_stencil::resid::sweep(r.array_mut(), u.array(), None, a, tile);
    r.comm3();
}

/// The `psinv` smoother: `u = u + C (convolved with) r` over the interior,
/// then `comm3(u)`. `tile` walks the interior in the tiled row order; each
/// point reads only `r`, so the result does not depend on it.
pub fn psinv(u: &mut PeriodicGrid, r: &PeriodicGrid, c: &SmootherCoeffs, tile: Option<TileDims>) {
    let m = u.m();
    assert_eq!(m, r.m());
    assert_eq!(
        (u.array().di(), u.array().dj()),
        (r.array().di(), r.array().dj())
    );
    let (di, ps) = (r.array().di(), r.array().plane_stride());
    let c = [c.c0, c.c1, c.c2, c.c3];
    let rv = r.array().as_slice();
    let uv = u.array_mut().as_mut_slice();
    let space = IterSpace {
        lo: (1, 1, 1),
        hi: (m, m, m),
    };
    let row = |i0: usize, i1: usize, j: usize, k: usize| {
        let at = j * di + i0;
        let dst = &mut uv[k * ps + at..][..i1 - i0 + 1];
        rowexec::psinv_row(dst, rowexec::planes(rv, k, ps), at, di, c);
    };
    match tile {
        None => for_each_rows(space, row),
        Some(t) => for_each_tiled_rows(space, t, row),
    }
    u.comm3();
}

/// Full-weighting restriction `rprj3`: each coarse interior point gathers
/// the 27-point neighbourhood of its aligned fine point (fine index
/// `2 * coarse index`) with weights `1/2, 1/4, 1/8, 1/16` for centre /
/// faces / edges / corners, then `comm3`.
///
/// # Panics
/// Panics unless `fine.m() == 2 * coarse.m()`.
pub fn rprj3(coarse: &mut PeriodicGrid, fine: &PeriodicGrid) {
    let mc = coarse.m();
    assert_eq!(fine.m(), 2 * mc, "restriction needs a 2:1 grid pair");
    let (fdi, fps) = (fine.array().di(), fine.array().plane_stride());
    let (cdi, cps) = (coarse.array().di(), coarse.array().plane_stride());
    let fv = fine.array().as_slice();
    let cv = coarse.array_mut().as_mut_slice();
    for kc in 1..=mc {
        let planes = rowexec::planes(fv, 2 * kc, fps);
        for jc in 1..=mc {
            let dst = &mut cv[kc * cps + jc * cdi + 1..][..mc];
            rowexec::rprj3_row(dst, planes, 2 * jc * fdi + 2, fdi);
        }
    }
    coarse.comm3();
}

/// Trilinear prolongation `interp`: adds the coarse correction into the
/// fine grid (fine index `2 * coarse index` aligned; odd fine indices
/// average their two/four/eight coarse neighbours), then `comm3`.
///
/// Each fine row sums its 1, 2 or 4 contributing coarse rows, in
/// `kc`-then-`jc` order, into a scratch row that starts at `0.0`, then adds
/// it into the fine row: every fine point sees the additions of the
/// per-point `kc`/`jc`/`ic` loop in the same order.
///
/// # Panics
/// Panics unless `fine.m() == 2 * coarse.m()`.
pub fn interp(fine: &mut PeriodicGrid, coarse: &PeriodicGrid) {
    let mc = coarse.m();
    let mf = fine.m();
    assert_eq!(mf, 2 * mc, "prolongation needs a 2:1 grid pair");
    // Per-dim stencil: even fine index 2c -> coarse c with weight 1;
    // odd fine index 2c+1 -> coarse c and c+1 with weight 1/2 each.
    // Coarse index 0 is a (periodic) ghost, valid after comm3.
    let taps = |f: usize| {
        let w = if f.is_multiple_of(2) { 1.0 } else { 0.5 };
        (f / 2..=f.div_ceil(2), w)
    };
    let (cdi, cps) = (coarse.array().di(), coarse.array().plane_stride());
    let (fdi, fps) = (fine.array().di(), fine.array().plane_stride());
    let cv = coarse.array().as_slice();
    let fv = fine.array_mut().as_mut_slice();
    let mut acc = vec![0.0; mf];
    for kf in 1..=mf {
        let (kcs, wk) = taps(kf);
        for jf in 1..=mf {
            let (jcs, wj) = taps(jf);
            acc.fill(0.0);
            for kc in kcs.clone() {
                for jc in jcs.clone() {
                    rowexec::interp_row(&mut acc, &cv[kc * cps + jc * cdi..], wk * wj);
                }
            }
            let row = &mut fv[kf * fps + jf * fdi + 1..][..mf];
            for (f, a) in row.iter_mut().zip(&acc) {
                *f += *a;
            }
        }
    }
    fine.comm3();
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_grid::Xorshift64;

    fn random_grid(m: usize, seed: u64) -> PeriodicGrid {
        let mut rng = Xorshift64::new(seed);
        let mut g = PeriodicGrid::new(m);
        g.fill_interior(|_, _, _| rng.next_f64() - 0.5);
        g
    }

    #[test]
    fn resid_inplace_matches_out_of_place() {
        let m = 8;
        let u = random_grid(m, 1);
        let v = random_grid(m, 2);
        let a = Coeffs::MGRID_A;
        let mut r1 = PeriodicGrid::new(m);
        resid(&mut r1, &u, &v, &a, None);
        let mut r2 = v.clone();
        resid_inplace(&mut r2, &u, &a, None);
        for k in 1..=m {
            for j in 1..=m {
                for i in 1..=m {
                    assert_eq!(r1.get(i, j, k).to_bits(), r2.get(i, j, k).to_bits());
                }
            }
        }
    }

    #[test]
    fn tiled_ops_match_untiled_bitwise() {
        let m = 8;
        let u0 = random_grid(m, 3);
        let r0 = random_grid(m, 4);
        let t = TileDims::new(3, 2);

        let mut u1 = u0.clone();
        let mut u2 = u0.clone();
        psinv(&mut u1, &r0, &SmootherCoeffs::MGRID_C, None);
        psinv(&mut u2, &r0, &SmootherCoeffs::MGRID_C, Some(t));
        assert!(u1.array().logical_eq(u2.array()));

        let mut r1 = r0.clone();
        let mut r2 = r0.clone();
        resid_inplace(&mut r1, &u0, &Coeffs::MGRID_A, None);
        resid_inplace(&mut r2, &u0, &Coeffs::MGRID_A, Some(t));
        assert!(r1.array().logical_eq(r2.array()));
    }

    #[test]
    fn rprj3_of_constant_is_constant_times_total_weight() {
        // Total weight = 0.5 + 6*0.25 + 12*0.125 + 8*0.0625 = 4.
        let mut fine = PeriodicGrid::new(8);
        fine.fill_interior(|_, _, _| 1.5);
        let mut coarse = PeriodicGrid::new(4);
        rprj3(&mut coarse, &fine);
        for k in 1..=4 {
            for j in 1..=4 {
                for i in 1..=4 {
                    assert!((coarse.get(i, j, k) - 6.0).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn interp_of_constant_adds_constant() {
        let mut coarse = PeriodicGrid::new(4);
        coarse.fill_interior(|_, _, _| 2.0);
        let mut fine = PeriodicGrid::new(8);
        fine.fill_interior(|_, _, _| 1.0);
        interp(&mut fine, &coarse);
        // Per-dim weights sum to 1, so every fine point gains exactly 2.
        for k in 1..=8 {
            for j in 1..=8 {
                for i in 1..=8 {
                    assert!(
                        (fine.get(i, j, k) - 3.0).abs() < 1e-12,
                        "({i},{j},{k}) = {}",
                        fine.get(i, j, k)
                    );
                }
            }
        }
    }

    #[test]
    fn resid_of_exact_zero_solution_is_rhs() {
        let m = 8;
        let u = PeriodicGrid::new(m); // zero
        let v = random_grid(m, 9);
        let mut r = PeriodicGrid::new(m);
        resid(&mut r, &u, &v, &Coeffs::MGRID_A, None);
        for k in 1..=m {
            for j in 1..=m {
                for i in 1..=m {
                    assert_eq!(r.get(i, j, k), v.get(i, j, k));
                }
            }
        }
    }

    #[test]
    fn smoother_reduces_residual_of_poisson_problem() {
        // One V-cycle-free sanity check: after u += S r with the MGRID
        // coefficients, the residual norm of A u = v should drop.
        let m = 16;
        let v = random_grid(m, 12);
        let mut u = PeriodicGrid::new(m);
        let mut r = PeriodicGrid::new(m);
        resid(&mut r, &u, &v, &Coeffs::MGRID_A, None);
        let before = r.interior_l2();
        psinv(&mut u, &r, &SmootherCoeffs::MGRID_C, None);
        resid(&mut r, &u, &v, &Coeffs::MGRID_A, None);
        let after = r.interior_l2();
        assert!(
            after < before,
            "smoother must reduce the residual: {before} -> {after}"
        );
    }
}
