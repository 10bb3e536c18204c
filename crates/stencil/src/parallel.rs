//! Scoped-thread parallel stencil sweeps (K-slab decomposition).
//!
//! The paper's transformations are single-thread cache optimizations, but a
//! production stencil library must compose them with thread parallelism.
//! The natural decomposition for the `JJ/II/K/J/I` tiled schedule is by
//! **K-slabs of the output array**: Jacobi and RESID write one array while
//! reading others, so giving each thread a disjoint span of output planes
//! is race-free by construction (Rust's borrow checker enforces it via
//! `split_at_mut`-style slab slices).
//!
//! Red-black SOR updates in place, so it additionally needs the two-phase
//! **colour barrier**: all red points (globally) before any black point.
//! Within one colour pass every read is either an opposite-colour
//! neighbour (untouched during the pass) or the point's own pre-write
//! centre value, so the K-slab split stays race-free once each *interface*
//! between adjacent slabs gets a pre-pass snapshot; the outermost planes
//! are never written and are read live (see [`redblack_sweep`] and
//! DESIGN.md §12 for the full argument).
//!
//! One private driver cuts the output into K-slabs and runs a single slab
//! inline, several on scoped threads; it serves Jacobi, RESID and both
//! red-black colour passes. The sequential `jacobi3d` and `resid` sweeps
//! are its one-slab case: each slab runs the same row walk and the same
//! [`crate::rowexec`] kernels, so per-thread cache behaviour and
//! inner-loop code match the sequential analysis — tiling, vectorization
//! and parallelism compose rather than compete. Results are bitwise
//! identical to the sequential sweeps for every thread count (verified by
//! tests).

use std::thread;

use tiling3d_grid::Array3;
use tiling3d_loopnest::{stride2_clip, stride2_last, IterSpace, TileDims};

use crate::{jacobi3d, redblack, resid, rowexec};

/// Partitions the interior `K` range `1..=nk-2` into at most `threads`
/// contiguous chunks of near-equal size.
///
/// Degenerate grids (`nk < 3`) have no interior planes and yield an empty
/// partition; callers treat that as a no-op sweep.
///
/// # Panics
/// Panics if `threads == 0`.
fn k_chunks(nk: usize, threads: usize) -> Vec<(usize, usize)> {
    assert!(threads > 0, "need at least one thread");
    if nk < 3 {
        return Vec::new();
    }
    let lo = 1usize;
    let hi = nk - 2;
    let total = hi - lo + 1;
    let t = threads.min(total);
    let base = total / t;
    let extra = total % t;
    let mut out = Vec::with_capacity(t);
    let mut start = lo;
    for idx in 0..t {
        let len = base + usize::from(idx < extra);
        out.push((start, start + len - 1));
        start += len;
    }
    out
}

/// The K-slab driver: cuts `interior` (planes `1..=nk-2`, plane stride
/// `ps`) into one slab per chunk and runs `body(c, k0, k1, slab)` for
/// chunk `c` covering planes `k0..=k1` — inline for one slab, on scoped
/// threads for several (the scope's join is the barrier).
fn run_slabs(
    interior: &mut [f64],
    chunks: &[(usize, usize)],
    ps: usize,
    body: impl Fn(usize, usize, usize, &mut [f64]) + Sync,
) {
    let mut rest = interior;
    let mut slabs = Vec::with_capacity(chunks.len());
    for (c, &(k0, k1)) in chunks.iter().enumerate() {
        let (slab, more) = std::mem::take(&mut rest).split_at_mut((k1 - k0 + 1) * ps);
        rest = more;
        slabs.push((c, k0, k1, slab));
    }
    if slabs.len() == 1 {
        let (c, k0, k1, slab) = slabs.remove(0);
        body(c, k0, k1, slab);
        return;
    }
    let body = &body;
    thread::scope(|scope| {
        for (c, k0, k1, slab) in slabs {
            scope.spawn(move || body(c, k0, k1, slab));
        }
    });
}

/// Parallel (optionally tiled) 3D Jacobi sweep across `threads` K-slabs.
///
/// Bitwise identical to `jacobi3d::sweep` with the same tile for every
/// thread count. Degenerate grids (any extent `< 3`) are a no-op.
///
/// # Panics
/// Panics if extents mismatch or `threads == 0`.
pub fn jacobi3d_sweep(
    a: &mut Array3<f64>,
    b: &Array3<f64>,
    c: f64,
    tile: Option<TileDims>,
    threads: usize,
) {
    rowexec::check_pair(a, b, "A and B");
    let (ni, nj, nk) = (a.ni(), a.nj(), a.nk());
    let chunks = k_chunks(nk, threads);
    if chunks.is_empty() || ni < 3 || nj < 3 {
        return;
    }
    let (_, interior) = rowexec::split_interior(a);
    run_slabs(interior, &chunks, b.plane_stride(), |_, k0, k1, out| {
        jacobi3d::slab(out, k0, k1, b, c, tile);
    });
    rowexec::note_sweep(
        IterSpace::interior(ni, nj, nk).points(),
        jacobi3d::FLOPS_PER_POINT,
    );
}

/// Parallel (optionally tiled) RESID sweep across `threads` K-slabs.
///
/// Bitwise identical to `resid::sweep` with the same tile, for every
/// thread count. Degenerate grids are a no-op.
///
/// # Panics
/// Panics if the three arrays differ in logical or allocated extents, or
/// if `threads == 0`.
pub fn resid_sweep(
    r: &mut Array3<f64>,
    u: &Array3<f64>,
    v: &Array3<f64>,
    coeffs: &resid::Coeffs,
    tile: Option<TileDims>,
    threads: usize,
) {
    rowexec::check_pair(r, u, "R and U");
    rowexec::check_pair(u, v, "U and V");
    let (ni, nj, nk) = (r.ni(), r.nj(), r.nk());
    let chunks = k_chunks(nk, threads);
    if chunks.is_empty() || ni < 3 || nj < 3 {
        return;
    }
    let (_, interior) = rowexec::split_interior(r);
    run_slabs(interior, &chunks, u.plane_stride(), |_, k0, k1, out| {
        resid::slab(out, k0, k1, u, Some(v), coeffs, tile);
    });
    rowexec::note_sweep(
        IterSpace::interior(ni, nj, nk).points(),
        resid::FLOPS_PER_POINT,
    );
}

/// Parallel (optionally tiled) in-place red-black sweep across `threads`
/// K-slabs, with a global colour barrier between the red and black phases.
///
/// Race-freedom and bitwise determinism: within one colour pass every
/// stencil read is an opposite-colour point (no same-colour point is a
/// neighbour of another — all six neighbours flip parity) except the
/// centre, which the row engine reads into scratch before copying back, so
/// any update order within a colour yields bitwise-identical results.
/// The only cross-slab reads are the `K±1` planes at slab boundaries;
/// those positions are opposite-colour, so a pre-pass snapshot of each
/// *interface* plane (reused buffers, refreshed per pass) equals its live
/// value for the whole pass. The outermost planes `0` and `nk-1` are
/// never written, so the first slab's down plane and the last slab's up
/// plane are read live, zero-copy. Hence the result is bitwise identical
/// to `redblack::sweep` with `Schedule::Naive` (= every sequential
/// schedule) for every thread count. A one-slab pass has no interface:
/// it is the same colour pass over the live outermost planes, run inline.
///
/// When observability collection is on, the two colour passes run under
/// fixed `redblack:red` / `redblack:black` spans opened on the
/// coordinating thread. Degenerate grids are a no-op.
///
/// # Panics
/// Panics unless the `I`/`J` logical extents are equal, or if
/// `threads == 0`.
pub fn redblack_sweep(
    a: &mut Array3<f64>,
    c1: f64,
    c2: f64,
    tile: Option<TileDims>,
    threads: usize,
) {
    let n = a.ni();
    let nk = a.nk();
    assert!(a.nj() == n, "red-black kernel expects square I/J extents");
    let (di, ps) = (a.di(), a.plane_stride());
    let chunks = k_chunks(nk, threads);
    if chunks.is_empty() || n < 3 {
        return;
    }
    let last = chunks.len() - 1;

    // Interface halo buffers, allocated once and reused across both
    // colour passes: `halos[c]` snapshots the planes below and above
    // chunk `c` (owned by its neighbours).
    let mut halos: Vec<[Vec<f64>; 2]> = chunks.iter().map(|_| Default::default()).collect();

    for parity in 0..2usize {
        let _pass = tiling3d_obs::span(if parity == 0 {
            "redblack:red"
        } else {
            "redblack:black"
        });
        for (c, &(k0, k1)) in chunks.iter().enumerate() {
            for (side, k, interface) in [(0, k0 - 1, c > 0), (1, k1 + 1, c < last)] {
                if interface {
                    halos[c][side].clear();
                    halos[c][side].extend_from_slice(&a.as_slice()[k * ps..(k + 1) * ps]);
                }
            }
        }
        let ([head, tail], interior) = rowexec::split_interior(a);
        let halos = &halos;
        run_slabs(interior, &chunks, ps, |c, k0, k1, slab| {
            let down = if c == 0 { head } else { &halos[c][0] };
            let up = if c == last { tail } else { &halos[c][1] };
            let mut scratch = vec![0.0f64; n];
            color_rows(n, k0, k1, parity, tile, |i0, i1, j, k| {
                let (plane, nbr) = rowexec::split_plane(slab, k - k0, ps, [down, up]);
                let row = &mut scratch[..=i1 - i0];
                rowexec::redblack_row(plane, nbr, j * di + i0, di, row, c1, c2);
            });
        });
    }
    rowexec::note_sweep(
        ((n - 2) * (n - 2) * (nk - 2)) as u64,
        redblack::FLOPS_PER_POINT,
    );
}

/// Walks one colour's stride-2 rows of planes `k0..=k1` as
/// `f(i_first, i_last, j, k)`: plane by plane untiled, or `JJ`/`II`
/// tiles over the slab when `tile` is set. Any order within a colour is
/// bitwise-equivalent (all reads are opposite-colour or the pre-write
/// centre), so the tiled walk needs no skew.
fn color_rows(
    n: usize,
    k0: usize,
    k1: usize,
    parity: usize,
    tile: Option<TileDims>,
    mut f: impl FnMut(usize, usize, usize, usize),
) {
    let hi = n - 2;
    let Some(t) = tile else {
        for k in k0..=k1 {
            redblack::plane_rows(n, k, parity, |i0, i1, j| f(i0, i1, j, k));
        }
        return;
    };
    let mut jj = 1usize;
    while jj <= hi {
        let j_hi = (jj + t.tj - 1).min(hi);
        let mut ii = 1usize;
        while ii <= hi {
            let i_hi = (ii + t.ti - 1).min(hi);
            for k in k0..=k1 {
                for j in jj..=j_hi {
                    let i0 = 1 + (k + j + parity) % 2;
                    if let Some(first) = stride2_clip(i0, ii, i_hi) {
                        f(first, stride2_last(first, i_hi), j, k);
                    }
                }
            }
            ii += t.ti;
        }
        jj += t.tj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redblack::Schedule;
    use crate::resid::Coeffs;
    use tiling3d_grid::fill_random;

    #[test]
    fn k_chunks_cover_the_interior_disjointly() {
        for nk in [3usize, 4, 10, 31] {
            for t in [1usize, 2, 3, 8, 64] {
                let chunks = k_chunks(nk, t);
                let mut expect = 1usize;
                for &(lo, hi) in &chunks {
                    assert_eq!(lo, expect);
                    assert!(hi >= lo);
                    expect = hi + 1;
                }
                assert_eq!(expect, nk - 1, "nk={nk} t={t}");
                assert!(chunks.len() <= t);
            }
        }
    }

    #[test]
    fn degenerate_grids_are_a_no_op() {
        // Regression: nk < 3 used to underflow in k_chunks and panic.
        for nk in [1usize, 2] {
            assert!(k_chunks(nk, 4).is_empty());
            let mut a = Array3::new(5, 5, nk);
            let mut b = Array3::new(5, 5, nk);
            fill_random(&mut b, 3);
            jacobi3d_sweep(&mut a, &b, 0.5, None, 4);
            assert!(a.logical_eq(&Array3::new(5, 5, nk)), "nk={nk}");
            let mut rb = b.clone();
            redblack_sweep(&mut rb, 0.4, 0.1, None, 4);
            assert!(rb.logical_eq(&b), "nk={nk}");
            let mut r = Array3::new(5, 5, nk);
            resid_sweep(&mut r, &b, &b, &Coeffs::MGRID_A, None, 4);
            assert!(r.logical_eq(&Array3::new(5, 5, nk)), "nk={nk}");
        }
    }

    #[test]
    fn parallel_jacobi_matches_sequential_bitwise() {
        let n = 24;
        let mut b = Array3::with_padding(n, n, n, 29, 27);
        fill_random(&mut b, 77);
        let mut seq = Array3::with_padding(n, n, n, 29, 27);
        crate::jacobi3d::sweep(&mut seq, &b, 1.0 / 6.0, None);
        for threads in [1usize, 2, 3, 7] {
            let mut par = Array3::with_padding(n, n, n, 29, 27);
            jacobi3d_sweep(&mut par, &b, 1.0 / 6.0, None, threads);
            assert!(seq.logical_eq(&par), "threads={threads}");
        }
    }

    #[test]
    fn parallel_tiled_jacobi_matches_sequential() {
        let n = 20;
        let mut b = Array3::new(n, n, n);
        fill_random(&mut b, 5);
        let mut seq = Array3::new(n, n, n);
        crate::jacobi3d::sweep(&mut seq, &b, 0.5, None);
        let mut par = Array3::new(n, n, n);
        jacobi3d_sweep(&mut par, &b, 0.5, Some(TileDims::new(5, 4)), 4);
        assert!(seq.logical_eq(&par));
    }

    #[test]
    fn parallel_resid_matches_sequential_bitwise() {
        let n = 18;
        let mut u = Array3::with_padding(n, n, n, 21, 19);
        let mut v = u.clone();
        fill_random(&mut u, 8);
        fill_random(&mut v, 9);
        let mut seq = Array3::with_padding(n, n, n, 21, 19);
        crate::resid::sweep(&mut seq, &u, Some(&v), &Coeffs::MGRID_A, None);
        for threads in [1usize, 3, 5] {
            let mut par = Array3::with_padding(n, n, n, 21, 19);
            resid_sweep(
                &mut par,
                &u,
                &v,
                &Coeffs::MGRID_A,
                Some(TileDims::new(4, 4)),
                threads,
            );
            assert!(seq.logical_eq(&par), "threads={threads}");
        }
    }

    #[test]
    fn parallel_redblack_matches_sequential_bitwise() {
        for (n, nk, di, dj) in [(16usize, 16usize, 19usize, 17usize), (9, 12, 9, 12)] {
            let mut init = Array3::with_padding(n, n, nk, di, dj);
            fill_random(&mut init, 42);
            let mut seq = init.clone();
            crate::redblack::sweep(&mut seq, 0.4, 0.1, Schedule::Naive);
            for threads in [1usize, 2, 3, 7] {
                let mut par = init.clone();
                redblack_sweep(&mut par, 0.4, 0.1, None, threads);
                assert!(seq.logical_eq(&par), "n={n} nk={nk} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_tiled_redblack_matches_sequential() {
        let (n, nk) = (15usize, 11usize);
        let mut init = Array3::with_padding(n, n, nk, 18, 16);
        fill_random(&mut init, 12);
        let mut seq = init.clone();
        crate::redblack::sweep(&mut seq, 0.4, 0.1, Schedule::Naive);
        for (ti, tj) in [(4usize, 3usize), (100, 1), (1, 100)] {
            for threads in [1usize, 2, 5] {
                let mut par = init.clone();
                redblack_sweep(&mut par, 0.4, 0.1, Some(TileDims::new(ti, tj)), threads);
                assert!(seq.logical_eq(&par), "tile=({ti},{tj}) threads={threads}");
            }
        }
    }

    #[test]
    fn more_threads_than_planes_is_fine() {
        let n = 5;
        let mut b = Array3::new(n, n, n);
        fill_random(&mut b, 2);
        let mut seq = Array3::new(n, n, n);
        crate::jacobi3d::sweep(&mut seq, &b, 1.0, None);
        let mut par = Array3::new(n, n, n);
        jacobi3d_sweep(&mut par, &b, 1.0, None, 64);
        assert!(seq.logical_eq(&par));
        let mut rb_seq = b.clone();
        crate::redblack::sweep(&mut rb_seq, 0.3, 0.2, Schedule::Naive);
        let mut rb_par = b.clone();
        redblack_sweep(&mut rb_par, 0.3, 0.2, None, 64);
        assert!(rb_seq.logical_eq(&rb_par));
    }

    /// A differing `ni` must not slip past the extent check: the slabs
    /// are cut from `R`'s geometry while the rows index `U` and `V`.
    #[test]
    #[should_panic(expected = "R and U must share")]
    fn resid_ni_mismatch_panics() {
        let mut r = Array3::with_padding(8, 10, 10, 12, 10);
        let u = Array3::with_padding(12, 10, 10, 12, 10);
        resid_sweep(&mut r, &u, &u, &Coeffs::MGRID_A, None, 2);
    }
}
