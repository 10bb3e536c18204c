//! Tile copying for stencils — implemented so Section 3.1's *negative*
//! result can be demonstrated rather than asserted.
//!
//! The classical conflict-avoidance technique (Lam-Rothberg-Wolf; Temam,
//! Granston & Jalby) copies each tile into a contiguous buffer, where it
//! cannot self-interfere. For stencils the paper argues this never pays:
//! each copied element is reused only `O(1)` times, so "copy operations
//! comprise a large, constant fraction of the data accesses". This module
//! implements the copying variant of tiled 3D Jacobi — a rolling
//! three-plane window buffer per tile — with compute and trace forms, and
//! the tests check both that results are bitwise identical and that the
//! measured copy overhead matches `tiling3d_core::copymodel`'s prediction.

use tiling3d_cachesim::{AccessSink, RowShape};
use tiling3d_grid::Array3;
use tiling3d_loopnest::TileDims;

use crate::rowexec;

/// Tiled 3D Jacobi where each tile's `(TI+2) x (TJ+2) x 3` input window is
/// copied into a contiguous rolling buffer before the tile plane is
/// computed. Results are bitwise identical to `jacobi3d::sweep`.
///
/// # Panics
/// Panics if extents mismatch.
pub fn sweep_tiled_copying(a: &mut Array3<f64>, b: &Array3<f64>, c: f64, tile: TileDims) {
    rowexec::check_pair(a, b, "A and B");
    let (ni, nj, nk) = (a.ni(), a.nj(), a.nk());
    let (di, ps) = (b.di(), b.plane_stride());
    let (i1, j1, k1) = (ni - 2, nj - 2, nk - 2);
    let (ti, tj) = (tile.ti, tile.tj);
    let (bw, bh) = (ti + 2, tj + 2); // buffer plane extents (with halo)
    let bplane = bw * bh;
    let mut buf = vec![0.0f64; bplane * 3];
    let bv = b.as_slice();
    let av = a.as_mut_slice();

    let mut jj = 1usize;
    while jj <= j1 {
        let j_hi = (jj + tj - 1).min(j1);
        let mut ii = 1usize;
        while ii <= i1 {
            let i_hi = (ii + ti - 1).min(i1);
            // Pre-copy planes k = 0 and k = 1 of the window.
            for (slot, k) in [(0usize, 0usize), (1, 1)] {
                copy_plane(
                    &mut buf[slot * bplane..(slot + 1) * bplane],
                    bv,
                    ii,
                    jj,
                    k,
                    i_hi,
                    j_hi,
                    di,
                    ps,
                    bw,
                );
            }
            for k in 1..=k1 {
                // Roll in plane k+1.
                let slot = (k + 1) % 3;
                copy_plane(
                    &mut buf[slot * bplane..(slot + 1) * bplane],
                    bv,
                    ii,
                    jj,
                    k + 1,
                    i_hi,
                    j_hi,
                    di,
                    ps,
                    bw,
                );
                // The three buffer slots are planes K-1, K, K+1 of row
                // stride `bw`; tile row `j` is haloed local row `j - jj + 1`.
                let plane = |k: usize| &buf[k % 3 * bplane..][..bplane];
                let src = [plane(k - 1), plane(k), plane(k + 1)];
                let len = i_hi - ii + 1;
                for j in jj..=j_hi {
                    let at = 1 + (j - jj + 1) * bw;
                    let out = ii + j * di + k * ps;
                    rowexec::jacobi3d_row(&mut av[out..out + len], src, at, bw, c);
                }
            }
            ii += ti;
        }
        jj += tj;
    }
}

#[allow(clippy::too_many_arguments)]
fn copy_plane(
    dst: &mut [f64],
    bv: &[f64],
    ii: usize,
    jj: usize,
    k: usize,
    i_hi: usize,
    j_hi: usize,
    di: usize,
    ps: usize,
    bw: usize,
) {
    // Copy rows [ii-1 ..= i_hi+1] x [jj-1 ..= j_hi+1] of plane k, one
    // contiguous row at a time.
    let w = i_hi - ii + 3;
    for j in (jj - 1)..=(j_hi + 1) {
        let lj = j - (jj - 1);
        let src = (ii - 1) + j * di + k * ps;
        dst[lj * bw..lj * bw + w].copy_from_slice(&bv[src..src + w]);
    }
}

/// Trace of the copying schedule: per rolled-in plane, each haloed window
/// row is one one-slot load [`AccessSink::row`] over the `B` row followed
/// by one one-slot store row into the buffer (placed just after the two
/// arrays) — matching `copy_plane`'s `copy_from_slice` rows; per computed
/// point, six buffer reads and the `A` store. Layout matches
/// [`crate::jacobi3d::trace`] with the buffer appended.
pub fn trace_tiled_copying<S: AccessSink>(
    ni: usize,
    nj: usize,
    nk: usize,
    di: usize,
    dj: usize,
    tile: TileDims,
    sink: &mut S,
) {
    assert!(di >= ni && dj >= nj);
    let ps = di * dj;
    let a_base = 0u64;
    let b_base = (ps * nk * 8) as u64;
    let buf_base = 2 * b_base;
    let (i1, j1, k1) = (ni - 2, nj - 2, nk - 2);
    let (ti, tj) = (tile.ti, tile.tj);
    let (bw, bh) = (ti + 2, tj + 2);
    let bplane = bw * bh;
    let (load, store) = (RowShape::new(8).read(0), RowShape::new(8).write(0));

    let mut jj = 1usize;
    while jj <= j1 {
        let j_hi = (jj + tj - 1).min(j1);
        let mut ii = 1usize;
        while ii <= i1 {
            let i_hi = (ii + ti - 1).min(i1);
            let trace_copy = |k: usize, slot: usize, sink: &mut S| {
                let w = i_hi - ii + 3;
                for j in (jj - 1)..=(j_hi + 1) {
                    let lj = j - (jj - 1);
                    let src = (ii - 1) + j * di + k * ps;
                    sink.row(&load, b_base + (src * 8) as u64, w);
                    sink.row(&store, buf_base + ((slot * bplane + lj * bw) * 8) as u64, w);
                }
            };
            trace_copy(0, 0, sink);
            trace_copy(1, 1, sink);
            for k in 1..=k1 {
                trace_copy(k + 1, (k + 1) % 3, sink);
                let (lo, mid, hi) = ((k - 1) % 3, k % 3, (k + 1) % 3);
                for j in jj..=j_hi {
                    let lj = j - jj + 1;
                    for i in ii..=i_hi {
                        let li = i - ii + 1;
                        let lidx = li + lj * bw;
                        let at =
                            |slot: usize, idx: usize| buf_base + ((slot * bplane + idx) * 8) as u64;
                        sink.read(at(mid, lidx - 1));
                        sink.read(at(mid, lidx + 1));
                        sink.read(at(mid, lidx - bw));
                        sink.read(at(mid, lidx + bw));
                        sink.read(at(lo, lidx));
                        sink.read(at(hi, lidx));
                        sink.write(a_base + ((i + j * di + k * ps) * 8) as u64);
                    }
                }
            }
            ii += ti;
        }
        jj += tj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi3d;
    use tiling3d_cachesim::CountingSink;
    use tiling3d_core::copymodel::copy_fraction_stencil;
    use tiling3d_grid::fill_random;
    use tiling3d_loopnest::StencilShape;

    #[test]
    fn copying_schedule_is_bitwise_identical() {
        for &(n, ti, tj) in &[(12usize, 4usize, 3usize), (17, 5, 5), (10, 100, 100)] {
            let mut b = Array3::new(n, n, n);
            fill_random(&mut b, 23);
            let mut plain = Array3::new(n, n, n);
            jacobi3d::sweep(&mut plain, &b, 1.0 / 6.0, None);
            let mut copied = Array3::new(n, n, n);
            sweep_tiled_copying(&mut copied, &b, 1.0 / 6.0, TileDims::new(ti, tj));
            assert!(plain.logical_eq(&copied), "n={n} tile=({ti},{tj})");
        }
    }

    #[test]
    fn copy_overhead_matches_the_analytic_model() {
        // Interior-only tiles (no boundary truncation) so the closed form
        // applies exactly: n-2 divisible by ti, tj.
        let (n, ti, tj) = (34usize, 8usize, 8usize);
        let mut plain = CountingSink::default();
        jacobi3d::trace(n, n, n, n, n, Some(TileDims::new(ti, tj)), &mut plain);
        let mut copying = CountingSink::default();
        trace_tiled_copying(n, n, n, n, n, TileDims::new(ti, tj), &mut copying);
        let extra = (copying.reads + copying.writes) as f64 - (plain.reads + plain.writes) as f64;
        let measured = extra / (copying.reads + copying.writes) as f64;
        let predicted = copy_fraction_stencil(&StencilShape::jacobi3d(), ti, tj);
        // The model ignores the two warm-up planes per tile; allow slack.
        assert!(
            (measured - predicted).abs() < 0.05,
            "measured {measured:.3} vs predicted {predicted:.3}"
        );
        // And the paper's point: the overhead is large.
        assert!(measured > 0.15);
    }

    #[test]
    fn copying_increases_accesses_but_buffer_is_tiny() {
        let (n, ti, tj) = (20usize, 6usize, 4usize);
        let mut c = CountingSink::default();
        trace_tiled_copying(n, n, n, n, n, TileDims::new(ti, tj), &mut c);
        let mut p = CountingSink::default();
        jacobi3d::trace(n, n, n, n, n, Some(TileDims::new(ti, tj)), &mut p);
        assert!(c.reads + c.writes > p.reads + p.writes);
    }
}
