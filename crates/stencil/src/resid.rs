//! The RESID kernel of SPEC/NAS MGRID (Fig 13): a 27-point residual.
//!
//! ```text
//! R(I1,I2,I3) = V(I1,I2,I3) - A0*U(centre)
//!                           - A1*(sum of  6 face   neighbours)
//!                           - A2*(sum of 12 edge   neighbours)
//!                           - A3*(sum of  8 corner neighbours)
//! ```
//!
//! RESID is the paper's "realistic application kernel": MGRID spends ~60%
//! of its time here, the stencil is a full 27-point box, and a second input
//! array `V` introduces the cross-interference of Section 3.5 (which the
//! paper simply tolerates — one `V` stream against 27-fold `U` reuse).
//! Tiling follows Fig 13's right column: tile `I2`/`I1`, leave `I3` intact.

use tiling3d_cachesim::{AccessSink, RowShape};
use tiling3d_grid::Array3;
use tiling3d_loopnest::{for_each_rows, for_each_tiled_rows, IterSpace, TileDims};

use crate::{rowexec, rowtrace};

/// FLOPs per interior point: 26 adds within/between neighbour groups plus
/// the `V` subtraction and 4 coefficient multiplies — 31 total. (A1 is kept
/// in the expression even when numerically zero, like the benchmark's
/// reference source.)
pub const FLOPS_PER_POINT: u64 = 31;

/// Stencil coefficients `(A0, A1, A2, A3)` for centre / faces / edges /
/// corners.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coeffs {
    /// Centre weight.
    pub a0: f64,
    /// Face weight (the official MG operator uses 0 here — kept in the
    /// computation regardless, as the benchmark source does).
    pub a1: f64,
    /// Edge weight.
    pub a2: f64,
    /// Corner weight.
    pub a3: f64,
}

impl Coeffs {
    /// The NAS/SPEC MGRID `A` operator: `(-8/3, 0, 1/6, 1/12)`.
    pub const MGRID_A: Coeffs = Coeffs {
        a0: -8.0 / 3.0,
        a1: 0.0,
        a2: 1.0 / 6.0,
        a3: 1.0 / 12.0,
    };
}

/// FLOPs of one sweep over the interior of an `ni x nj x nk` grid.
pub fn sweep_flops(ni: usize, nj: usize, nk: usize) -> u64 {
    IterSpace::interior(ni, nj, nk).points() * FLOPS_PER_POINT
}

/// The 6 face offsets in Fig 13's source order, as linear-index deltas.
#[inline(always)]
pub(crate) fn faces(di: i64, ps: i64) -> [i64; 6] {
    [-1, 1, -di, di, -ps, ps]
}

/// The 12 edge offsets (|d1|+|d2|+|d3| = 2) in Fig 13's source order.
#[inline(always)]
pub(crate) fn edges(di: i64, ps: i64) -> [i64; 12] {
    [
        -1 - di,
        1 - di,
        -1 + di,
        1 + di,
        -di - ps,
        di - ps,
        -di + ps,
        di + ps,
        -1 - ps,
        -1 + ps,
        1 - ps,
        1 + ps,
    ]
}

/// The 8 corner offsets (|d1|+|d2|+|d3| = 3) in Fig 13's source order.
#[inline(always)]
pub(crate) fn corners(di: i64, ps: i64) -> [i64; 8] {
    [
        -1 - di - ps,
        1 - di - ps,
        -1 + di - ps,
        1 + di - ps,
        -1 - di + ps,
        1 - di + ps,
        -1 + di + ps,
        1 + di + ps,
    ]
}

/// One RESID sweep `r = v - A u`, optionally tiled (`Some(tile)` = the
/// Fig 13 right-hand schedule, tiling `I2`/`I1` and leaving `I3`
/// untouched). `v = None` means `v` is `r` itself — MGRID's in-place
/// `resid(u, r, r)` on the intermediate levels.
///
/// Runs on the row engine: the 27-point box becomes nine overlapping
/// unit-stride `U` rows per output row (see [`rowexec::resid_row`]), with
/// accumulation order identical to [`crate::reference::resid`] — results
/// are bitwise identical. In place, each row's pre-update values are
/// copied to a scratch row first; the `v` role reads only the centre
/// point, so this equals the per-point in-place update. The sweep is the
/// one-slab case of [`crate::parallel::resid_sweep`].
///
/// # Panics
/// Panics if the arrays differ in logical or allocated extents.
pub fn sweep(
    r: &mut Array3<f64>,
    u: &Array3<f64>,
    v: Option<&Array3<f64>>,
    coeffs: &Coeffs,
    tile: Option<TileDims>,
) {
    rowexec::check_pair(r, u, "R and U");
    if let Some(v) = v {
        rowexec::check_pair(u, v, "U and V");
    }
    let space = IterSpace::interior(u.ni(), u.nj(), u.nk());
    let (_, out) = rowexec::split_interior(r);
    slab(out, 1, u.nk() - 2, u, v, coeffs, tile);
    rowexec::note_sweep(space.points(), FLOPS_PER_POINT);
}

/// Updates the residual planes `k0..=k1` of one K-slab, stored
/// consecutively in `out`, in the (tiled) row order; `v = None` reads
/// each row's own pre-update values as `v`.
pub(crate) fn slab(
    out: &mut [f64],
    k0: usize,
    k1: usize,
    u: &Array3<f64>,
    v: Option<&Array3<f64>>,
    coeffs: &Coeffs,
    tile: Option<TileDims>,
) {
    let (di, ps) = (u.di(), u.plane_stride());
    let space = IterSpace {
        lo: (1, 1, k0),
        hi: (u.ni() - 2, u.nj() - 2, k1),
    };
    let (uv, vv) = (u.as_slice(), v.map(Array3::as_slice));
    let mut pre = vec![0.0; if vv.is_some() { 0 } else { u.ni() }];
    let row = |i0: usize, i1: usize, j: usize, k: usize| {
        let at = j * di + i0;
        let dst = &mut out[(k - k0) * ps + at..][..i1 - i0 + 1];
        let v = match vv {
            Some(vv) => &vv[k * ps + at..],
            None => {
                pre[..dst.len()].copy_from_slice(dst);
                &pre[..]
            }
        };
        rowexec::resid_row(dst, v, rowexec::planes(uv, k, ps), at, di, coeffs);
    };
    match tile {
        None => for_each_rows(space, row),
        Some(t) => for_each_tiled_rows(space, t, row),
    }
}

/// Replays the exact address trace of one sweep, one [`AccessSink::row`]
/// call per row segment, or per group of rows for a tile under 4 points
/// wide (as in [`crate::jacobi3d::trace`]). Layout: `R` at byte 0, then
/// `U`, then `V`, consecutively allocated (`di x dj x nk` each). Per
/// point: 27 `U` loads in source order (centre, faces, edges, corners),
/// the `V` load, the `R` store.
pub fn trace<S: AccessSink>(
    ni: usize,
    nj: usize,
    nk: usize,
    di: usize,
    dj: usize,
    tile: Option<TileDims>,
    sink: &mut S,
) {
    let bytes = (di * dj * nk * 8) as u64;
    trace_at(ni, nj, nk, di, dj, tile, [0, bytes, 2 * bytes], sink);
}

/// Like [`trace`] but with explicit byte base addresses `[R, U, V]` for
/// inter-variable padding experiments (Section 3.5).
#[allow(clippy::too_many_arguments)]
pub fn trace_at<S: AccessSink>(
    ni: usize,
    nj: usize,
    nk: usize,
    di: usize,
    dj: usize,
    tile: Option<TileDims>,
    bases: [u64; 3],
    sink: &mut S,
) {
    assert!(di >= ni && dj >= nj);
    let ps = di * dj;
    let [r_base, u_base, v_base] = bases;
    let (dii, psi) = (di as i64, ps as i64);
    let space = IterSpace::interior(ni, nj, nk);
    let u = |off: i64| u_base as i64 + off * 8;
    let stencil = faces(dii, psi)
        .into_iter()
        .chain(edges(dii, psi))
        .chain(corners(dii, psi));
    let shape = RowShape::new(8)
        .read(u(0))
        .reads(stencil.map(u))
        .read(v_base as i64)
        .write(r_base as i64);
    rowtrace::sweep(space, tile, di, ps, &shape, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_cachesim::CountingSink;
    use tiling3d_grid::{fill_linear3, fill_random};

    fn arrays(n: usize, di: usize, dj: usize) -> (Array3<f64>, Array3<f64>, Array3<f64>) {
        let r = Array3::with_padding(n, n, n, di, dj);
        let mut u = Array3::with_padding(n, n, n, di, dj);
        let mut v = Array3::with_padding(n, n, n, di, dj);
        fill_random(&mut u, 11);
        fill_random(&mut v, 22);
        (r, u, v)
    }

    #[test]
    fn offset_tables_partition_the_27_point_box() {
        use std::collections::HashSet;
        let (di, ps) = (100i64, 100 * 100i64);
        let mut all = HashSet::new();
        all.insert(0i64);
        for o in faces(di, ps)
            .iter()
            .chain(&edges(di, ps))
            .chain(&corners(di, ps))
        {
            assert!(all.insert(*o), "duplicate offset {o}");
        }
        assert_eq!(all.len(), 27);
    }

    #[test]
    fn affine_field_oracle() {
        // For an affine U each neighbour group sums to (count x centre),
        // so R = V - (A0 + 6*A1 + 12*A2 + 8*A3) * U(centre).
        let n = 8;
        let (mut r, mut u, mut v) = arrays(n, n, n);
        fill_linear3(&mut u, 1.0, 2.0, -1.5, 0.25);
        fill_linear3(&mut v, 0.0, 0.0, 0.0, 3.0);
        let c = Coeffs {
            a0: -2.0,
            a1: 0.5,
            a2: 0.25,
            a3: 0.125,
        };
        sweep(&mut r, &u, Some(&v), &c, None);
        let w = c.a0 + 6.0 * c.a1 + 12.0 * c.a2 + 8.0 * c.a3;
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let expect = 3.0 - w * u.get(i, j, k);
                    assert!((r.get(i, j, k) - expect).abs() < 1e-9, "({i},{j},{k})");
                }
            }
        }
    }

    #[test]
    fn mgrid_coeffs_annihilate_constants() {
        // A0 + 12*A2 + 8*A3 = -8/3 + 2 + 2/3 = 0: the MG operator kills
        // constant fields, so R = V exactly.
        let n = 7;
        let (mut r, mut u, mut v) = arrays(n, n, n);
        u.fill(5.0);
        fill_random(&mut v, 3);
        sweep(&mut r, &u, Some(&v), &Coeffs::MGRID_A, None);
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    assert!((r.get(i, j, k) - v.get(i, j, k)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn tiled_equals_untiled_bitwise() {
        for &(n, di, dj, ti, tj) in &[
            (9usize, 9usize, 9usize, 3usize, 3usize),
            (12, 15, 13, 5, 2),
            (10, 10, 10, 1, 1),
        ] {
            let (mut r1, u, v) = arrays(n, di, dj);
            let mut r2 = r1.clone();
            sweep(&mut r1, &u, Some(&v), &Coeffs::MGRID_A, None);
            let tile = Some(TileDims::new(ti, tj));
            sweep(&mut r2, &u, Some(&v), &Coeffs::MGRID_A, tile);
            assert!(r1.logical_eq(&r2), "n={n} tile=({ti},{tj})");
        }
    }

    #[test]
    fn trace_emission_order_matches_offset_tables() {
        // The row-batched trace must replay byte-for-byte the stream of
        // the offset-table loops, untiled and under tiles whose rows
        // group into composite points (1×1, and 2 and 3 wide with edge
        // tiles of other widths and heights).
        use tiling3d_loopnest::{for_each, for_each_tiled};
        struct Collect(Vec<(bool, u64)>);
        impl AccessSink for Collect {
            fn read(&mut self, a: u64) {
                self.0.push((false, a));
            }
            fn write(&mut self, a: u64) {
                self.0.push((true, a));
            }
        }
        let (n, di, dj) = (7usize, 9usize, 8usize);
        let ps = di * dj;
        let bytes = (di * dj * n * 8) as u64;
        let (dii, psi) = (di as i64, ps as i64);
        for tile in [None, Some((1, 1)), Some((2, 3)), Some((3, 1))] {
            let tile = tile.map(|(ti, tj)| TileDims::new(ti, tj));
            let mut got = Collect(Vec::new());
            trace(n, n, n, di, dj, tile, &mut got);

            let mut want = Vec::new();
            let point = |i: usize, j: usize, k: usize| {
                let idx = (i + j * di + k * ps) as i64;
                let u = |off: i64| bytes + ((idx + off) * 8) as u64;
                want.push((false, u(0)));
                for o in faces(dii, psi)
                    .iter()
                    .chain(&edges(dii, psi))
                    .chain(&corners(dii, psi))
                {
                    want.push((false, u(*o)));
                }
                want.push((false, 2 * bytes + (idx * 8) as u64));
                want.push((true, (idx * 8) as u64));
            };
            let space = IterSpace::interior(n, n, n);
            match tile {
                None => for_each(space, point),
                Some(t) => for_each_tiled(space, t, point),
            }
            assert_eq!(got.0, want, "{tile:?}");
        }
    }

    #[test]
    fn trace_counts_match_stencil_arity() {
        let n = 9;
        let mut c = CountingSink::default();
        trace(n, n, n, n, n, None, &mut c);
        let pts = (n as u64 - 2).pow(3);
        assert_eq!(c.reads, 28 * pts); // 27 U + 1 V
        assert_eq!(c.writes, pts);
        let mut ct = CountingSink::default();
        trace(n, n, n, 11, 12, Some(TileDims::new(2, 4)), &mut ct);
        assert_eq!(ct.reads, 28 * pts);
        assert_eq!(ct.writes, pts);
    }

    #[test]
    fn flops_accounting() {
        assert_eq!(sweep_flops(10, 10, 10), 512 * 31);
    }

    /// `R` with `nj = 8` under a `U` with `nj = 12`, both allocated
    /// `dj = 12`: without the full extent check the sweep would write
    /// rows `j >= 8` into `R`'s padding.
    #[test]
    #[should_panic(expected = "R and U must share")]
    fn nj_mismatch_panics() {
        let mut r = Array3::with_padding(10, 8, 10, 10, 12);
        let u = Array3::with_padding(10, 12, 10, 10, 12);
        let v = u.clone();
        sweep(&mut r, &u, Some(&v), &Coeffs::MGRID_A, None);
    }

    #[test]
    #[should_panic(expected = "U and V must share")]
    fn nk_mismatch_panics() {
        let (mut r, u, _) = arrays(9, 9, 9);
        let v = Array3::with_padding(9, 9, 7, 9, 9);
        sweep(&mut r, &u, Some(&v), &Coeffs::MGRID_A, None);
    }
}
