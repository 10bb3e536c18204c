//! 3D Jacobi iteration (Figs 3, 6): 6-point stencil, two arrays.
//!
//! ```text
//! A(I,J,K) = C * ( B(I-1,J,K) + B(I+1,J,K)
//!                + B(I,J-1,K) + B(I,J+1,K)
//!                + B(I,J,K-1) + B(I,J,K+1) )
//! ```

use tiling3d_cachesim::{AccessSink, RowShape};
use tiling3d_grid::Array3;
use tiling3d_loopnest::{for_each_rows, for_each_tiled_rows, IterSpace, TileDims};

use crate::{rowexec, rowtrace};

/// Floating-point operations per interior point (5 adds + 1 multiply).
pub const FLOPS_PER_POINT: u64 = 6;

/// FLOPs in one full sweep over the interior of an `ni x nj x nk` grid.
pub fn sweep_flops(ni: usize, nj: usize, nk: usize) -> u64 {
    IterSpace::interior(ni, nj, nk).points() * FLOPS_PER_POINT
}

/// One sweep: untiled (`tile = None`, the `Orig` order `K`/`J`/`I`) or
/// in the Fig 6 tiled schedule (`JJ`/`II`/`K`/`J`/`I`).
///
/// Runs on the row engine ([`rowexec`]); bitwise identical to the
/// per-point reference in [`crate::reference::jacobi3d`] for every tile —
/// only the iteration order (and hence the cache behaviour) changes. It is
/// the one-slab case of [`crate::parallel::jacobi3d_sweep`].
///
/// # Panics
/// Panics if the two arrays differ in logical or allocated extents.
pub fn sweep(a: &mut Array3<f64>, b: &Array3<f64>, c: f64, tile: Option<TileDims>) {
    rowexec::check_pair(a, b, "A and B");
    let space = IterSpace::interior(b.ni(), b.nj(), b.nk());
    let (_, out) = rowexec::split_interior(a);
    slab(out, 1, b.nk() - 2, b, c, tile);
    rowexec::note_sweep(space.points(), FLOPS_PER_POINT);
}

/// Updates the output planes `k0..=k1` of one K-slab, stored
/// consecutively in `out`, from `b` in the (tiled) row order.
pub(crate) fn slab(
    out: &mut [f64],
    k0: usize,
    k1: usize,
    b: &Array3<f64>,
    c: f64,
    tile: Option<TileDims>,
) {
    let (di, ps) = (b.di(), b.plane_stride());
    let space = IterSpace {
        lo: (1, 1, k0),
        hi: (b.ni() - 2, b.nj() - 2, k1),
    };
    let bv = b.as_slice();
    let row = |i0: usize, i1: usize, j: usize, k: usize| {
        let at = j * di + i0;
        let dst = &mut out[(k - k0) * ps + at..][..i1 - i0 + 1];
        rowexec::jacobi3d_row(dst, rowexec::planes(bv, k, ps), at, di, c);
    };
    match tile {
        None => for_each_rows(space, row),
        Some(t) => for_each_tiled_rows(space, t, row),
    }
}

/// The per-point accesses of one sweep row, in source order: the six `B`
/// loads, then the `A` store (arrays at byte bases `a_base` / `b_base`,
/// row stride `di`, plane stride `ps`).
pub(crate) fn row_shape(di: usize, ps: usize, a_base: u64, b_base: u64) -> RowShape {
    let (b, di8, ps8) = (b_base as i64, 8 * di as i64, 8 * ps as i64);
    RowShape::new(8)
        .reads([b - 8, b + 8, b - di8, b + di8, b - ps8, b + ps8])
        .write(a_base as i64)
}

/// Replays the exact address trace of one sweep into `sink`.
///
/// Layout: `A` at byte 0, `B` immediately after `A` (consecutive
/// allocation, as a Fortran compiler would place two declarations), both
/// allocated `di x dj x nk`. Pass `tile = None` for the original order or
/// `Some(t)` for the tiled schedule. Each row segment is one
/// [`AccessSink::row`] call, except that the rows of a tile under 4
/// points wide are grouped into rows of composite points (see
/// [`RowShape::append`]). Access order per point matches the source
/// expression: the six `B` loads, then the `A` store.
pub fn trace<S: AccessSink>(
    ni: usize,
    nj: usize,
    nk: usize,
    di: usize,
    dj: usize,
    tile: Option<TileDims>,
    sink: &mut S,
) {
    let b_base = (di * dj * nk * 8) as u64;
    trace_at(ni, nj, nk, di, dj, tile, 0, b_base, sink);
}

/// Like [`trace`] but with explicit byte base addresses for `A` and `B`,
/// enabling inter-variable padding experiments (Section 3.5 of the paper;
/// see `tiling3d_core::intervar`).
#[allow(clippy::too_many_arguments)]
pub fn trace_at<S: AccessSink>(
    ni: usize,
    nj: usize,
    nk: usize,
    di: usize,
    dj: usize,
    tile: Option<TileDims>,
    a_base: u64,
    b_base: u64,
    sink: &mut S,
) {
    assert!(
        di >= ni && dj >= nj,
        "allocated dims must cover logical dims"
    );
    let ps = di * dj;
    let space = IterSpace::interior(ni, nj, nk);
    let shape = row_shape(di, ps, a_base, b_base);
    rowtrace::sweep(space, tile, di, ps, &shape, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_cachesim::CountingSink;
    use tiling3d_grid::{fill_linear3, fill_random};

    fn pair(n: usize, di: usize, dj: usize) -> (Array3<f64>, Array3<f64>) {
        let a = Array3::with_padding(n, n, n, di, dj);
        let mut b = Array3::with_padding(n, n, n, di, dj);
        fill_random(&mut b, 0xBEEF);
        (a, b)
    }

    #[test]
    fn linear_field_oracle() {
        // Sum of the six face neighbours of an affine field = 6x centre.
        let (mut a, mut b) = pair(8, 8, 8);
        fill_linear3(&mut b, 2.0, -3.0, 5.0, 1.25);
        sweep(&mut a, &b, 0.5, None);
        for k in 1..7 {
            for j in 1..7 {
                for i in 1..7 {
                    let expect = 0.5 * 6.0 * b.get(i, j, k);
                    assert!(
                        (a.get(i, j, k) - expect).abs() < 1e-9,
                        "mismatch at ({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_equals_untiled_bitwise() {
        for &(n, di, dj, ti, tj) in &[
            (10usize, 10usize, 10usize, 3usize, 4usize),
            (17, 20, 19, 5, 2),
            (9, 16, 9, 100, 1),
        ] {
            let (mut a1, b) = pair(n, di, dj);
            let mut a2 = a1.clone();
            sweep(&mut a1, &b, 1.0 / 6.0, None);
            sweep(&mut a2, &b, 1.0 / 6.0, Some(TileDims::new(ti, tj)));
            assert!(a1.logical_eq(&a2), "n={n} tile=({ti},{tj})");
        }
    }

    #[test]
    fn padding_does_not_change_results() {
        let (mut a1, b1) = pair(12, 12, 12);
        sweep(&mut a1, &b1, 0.25, None);
        let b2 = b1.repadded(19, 17);
        let mut a2 = Array3::with_padding(12, 12, 12, 19, 17);
        sweep(&mut a2, &b2, 0.25, Some(TileDims::new(4, 4)));
        assert!(a1.logical_eq(&a2));
    }

    #[test]
    fn trace_counts_match_closed_form() {
        let mut c = CountingSink::default();
        trace(10, 10, 10, 10, 10, None, &mut c);
        let pts = 8u64 * 8 * 8;
        assert_eq!(c.reads, 6 * pts);
        assert_eq!(c.writes, pts);
        let mut ct = CountingSink::default();
        trace(10, 10, 10, 12, 11, Some(TileDims::new(3, 3)), &mut ct);
        assert_eq!(ct.reads, 6 * pts);
        assert_eq!(ct.writes, pts);
    }

    #[test]
    fn trace_matches_loopnest_interpreter() {
        use tiling3d_loopnest::{ArrayDesc, Nest, StencilShape};
        // Same trace, once handwritten, once through the loop IR. Note the
        // IR reads offsets in StencilShape::jacobi3d() order which matches
        // the handwritten order.
        #[derive(Default, PartialEq, Debug)]
        struct Rec(Vec<(u64, bool)>);
        impl AccessSink for Rec {
            fn read(&mut self, a: u64) {
                self.0.push((a, false));
            }
            fn write(&mut self, a: u64) {
                self.0.push((a, true));
            }
        }
        let (n, di, dj) = (9usize, 11usize, 10usize);
        let mut hand = Rec::default();
        trace(n, n, n, di, dj, None, &mut hand);

        let nest = Nest::stencil(
            &StencilShape::jacobi3d(),
            (1, n as i64 - 2),
            (1, n as i64 - 2),
            (1, n as i64 - 2),
            0, // input = B
            1, // output = A
        );
        let arrays = [
            ArrayDesc {
                base: (di * dj * n * 8) as u64,
                di,
                dj,
                dk: n,
            }, // B
            ArrayDesc {
                base: 0,
                di,
                dj,
                dk: n,
            }, // A
        ];
        let mut ir = Rec::default();
        nest.execute_checked(&arrays, &mut ir)
            .expect("jacobi nest verifies");
        assert_eq!(hand, ir);
    }

    /// The tiled trace against the loop IR, for a wide tile and for the
    /// narrow ones whose rows group into composite points: 1×1 (one row
    /// per K-column), one point wide, and 2 and 3 wide, with edge tiles
    /// of other widths and heights (9 interior points per row).
    #[test]
    fn tiled_trace_matches_tiled_interpreter() {
        use tiling3d_loopnest::{ArrayDesc, Nest, StencilShape};
        #[derive(Default, PartialEq, Debug)]
        struct Rec(Vec<(u64, bool)>);
        impl AccessSink for Rec {
            fn read(&mut self, a: u64) {
                self.0.push((a, false));
            }
            fn write(&mut self, a: u64) {
                self.0.push((a, true));
            }
        }
        let (n, di, dj) = (11usize, 13usize, 12usize);
        for (ti, tj) in [(4usize, 3usize), (1, 1), (1, 3), (2, 5), (3, 1)] {
            let mut hand = Rec::default();
            trace(n, n, n, di, dj, Some(TileDims::new(ti, tj)), &mut hand);

            let mut nest = Nest::stencil(
                &StencilShape::jacobi3d(),
                (1, n as i64 - 2),
                (1, n as i64 - 2),
                (1, n as i64 - 2),
                0,
                1,
            );
            nest.tile_jj_ii(ti, tj);
            let arrays = [
                ArrayDesc {
                    base: (di * dj * n * 8) as u64,
                    di,
                    dj,
                    dk: n,
                },
                ArrayDesc {
                    base: 0,
                    di,
                    dj,
                    dk: n,
                },
            ];
            let mut ir = Rec::default();
            nest.execute_checked(&arrays, &mut ir)
                .expect("tiled jacobi nest verifies");
            assert_eq!(hand, ir, "tile ({ti}, {tj})");
        }
    }

    #[test]
    fn flops_accounting() {
        assert_eq!(sweep_flops(10, 10, 10), 512 * 6);
    }

    #[test]
    #[should_panic]
    fn mismatched_pair_panics() {
        let mut a = Array3::<f64>::new(8, 8, 8);
        let b = Array3::<f64>::with_padding(8, 8, 8, 9, 8);
        sweep(&mut a, &b, 1.0, None);
    }
}
