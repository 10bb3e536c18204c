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
//! are never written and are read live, and a single-slab partition runs
//! inline with no snapshots or spawns at all (see [`redblack_sweep`] and
//! DESIGN.md §12 for the full argument).
//!
//! Each thread runs the *tiled* schedule inside its slab on the row-segment
//! engine ([`crate::rowexec`]), so per-thread cache behaviour and inner-loop
//! code match the sequential analysis — tiling, vectorization and
//! parallelism compose rather than compete. Results are bitwise identical
//! to the sequential sweeps for every thread count (verified by tests).

use std::thread;

use tiling3d_grid::Array3;
use tiling3d_loopnest::{
    for_each_rows, for_each_tiled_rows, stride2_clip, stride2_last, IterSpace, TileDims,
};

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

/// Splits `rest` (a whole array slice) into one mutable slab per chunk,
/// each covering planes `k0..=k1` (plane stride `ps`).
fn split_slabs<'a>(
    mut rest: &'a mut [f64],
    chunks: &[(usize, usize)],
    ps: usize,
) -> Vec<(usize, usize, &'a mut [f64])> {
    let mut consumed = 0usize;
    let mut slabs = Vec::with_capacity(chunks.len());
    for &(k0, k1) in chunks {
        let begin = k0 * ps;
        let end = (k1 + 1) * ps;
        let (_, tail) = rest.split_at_mut(begin - consumed);
        let (slab, tail) = tail.split_at_mut(end - begin);
        rest = tail;
        consumed = end;
        slabs.push((k0, k1, slab));
    }
    slabs
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
    let (di, ps) = (a.di(), a.plane_stride());
    let chunks = k_chunks(nk, threads);
    if chunks.is_empty() || ni < 3 || nj < 3 {
        return;
    }
    let bv = b.as_slice();
    let slabs = split_slabs(a.as_mut_slice(), &chunks, ps);

    thread::scope(|scope| {
        for (k0, k1, slab) in slabs {
            scope.spawn(move || {
                let space = IterSpace {
                    lo: (1, 1, k0),
                    hi: (ni - 2, nj - 2, k1),
                };
                let base = k0 * ps; // slab-local offset correction
                let row = |i0: usize, i1: usize, j: usize, k: usize| {
                    let lo = j * di + k * ps + i0;
                    let len = i1 - i0 + 1;
                    rowexec::jacobi3d_row(
                        &mut slab[lo - base..lo - base + len],
                        &bv[lo - 1..],
                        &bv[lo + 1..],
                        &bv[lo - di..],
                        &bv[lo + di..],
                        &bv[lo - ps..],
                        &bv[lo + ps..],
                        c,
                    );
                };
                match tile {
                    None => for_each_rows(space, row),
                    Some(t) => for_each_tiled_rows(space, t, row),
                }
            });
        }
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
    let (di, ps) = (r.di(), r.plane_stride());
    let chunks = k_chunks(nk, threads);
    if chunks.is_empty() || ni < 3 || nj < 3 {
        return;
    }
    let (uv, vv) = (u.as_slice(), v.as_slice());
    let coeffs = *coeffs;
    let slabs = split_slabs(r.as_mut_slice(), &chunks, ps);

    thread::scope(|scope| {
        for (k0, k1, slab) in slabs {
            scope.spawn(move || {
                let space = IterSpace {
                    lo: (1, 1, k0),
                    hi: (ni - 2, nj - 2, k1),
                };
                let base = k0 * ps;
                let row = |i0: usize, i1: usize, j: usize, k: usize| {
                    let lo = j * di + k * ps + i0;
                    let len = i1 - i0 + 1;
                    let h = lo - 1;
                    let rows: rowexec::Rows9 = [
                        &uv[h - di - ps..],
                        &uv[h - ps..],
                        &uv[h + di - ps..],
                        &uv[h - di..],
                        &uv[h..],
                        &uv[h + di..],
                        &uv[h - di + ps..],
                        &uv[h + ps..],
                        &uv[h + di + ps..],
                    ];
                    rowexec::resid_row(
                        &mut slab[lo - base..lo - base + len],
                        &vv[lo..],
                        rows,
                        &coeffs,
                    );
                };
                match tile {
                    None => for_each_rows(space, row),
                    Some(t) => for_each_tiled_rows(space, t, row),
                }
            });
        }
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
/// centre, which the row engine reads into scratch before scattering, so
/// any update order within a colour yields bitwise-identical results.
/// The only cross-slab reads are the `K±1` planes at slab boundaries;
/// those positions are opposite-colour, so a pre-pass snapshot of each
/// *interface* plane (reused buffers, refreshed per pass) equals its live
/// value for the whole pass. The outermost planes `0` and `nk-1` are
/// never written, so the first slab's down plane and the last slab's up
/// plane are read live, zero-copy. Hence the result is bitwise identical
/// to `redblack::sweep` with `Schedule::Naive` (= every sequential
/// schedule) for every thread count. A single-chunk partition skips the
/// snapshots and the spawns entirely and runs the pass inline.
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
    let av = a.as_mut_slice();

    // Interface halo buffers, allocated once and reused across both
    // colour passes: `lo_halos[c]` snapshots the plane below chunk `c`
    // (owned by chunk `c-1`), `hi_halos[c]` the plane above it.
    let mut lo_halos: Vec<Vec<f64>> = chunks.iter().map(|_| Vec::new()).collect();
    let mut hi_halos: Vec<Vec<f64>> = chunks.iter().map(|_| Vec::new()).collect();

    for parity in 0..2usize {
        let _pass = tiling3d_obs::span(if parity == 0 {
            "redblack:red"
        } else {
            "redblack:black"
        });
        if chunks.len() == 1 {
            let (k0, k1) = chunks[0];
            color_pass_seq(av, k0, k1, n, di, ps, c1, c2, parity, tile);
            continue;
        }
        // Refresh the interface halos (planes shared between adjacent
        // chunks) for this pass. The outermost planes 0 and nk-1 are
        // never written, so the first chunk's down plane and the last
        // chunk's up plane are read live, zero-copy.
        for c in 0..chunks.len() {
            if c > 0 {
                let k = chunks[c].0 - 1;
                lo_halos[c].clear();
                lo_halos[c].extend_from_slice(&av[k * ps..(k + 1) * ps]);
            }
            if c + 1 < chunks.len() {
                let k = chunks[c].1 + 1;
                hi_halos[c].clear();
                hi_halos[c].extend_from_slice(&av[k * ps..(k + 1) * ps]);
            }
        }
        let (head, rest) = av.split_at_mut(ps);
        let (interior, tail) = rest.split_at_mut((nk - 2) * ps);
        let head: &[f64] = head;
        let tail: &[f64] = tail;
        let mut rest = interior;
        let mut slabs = Vec::with_capacity(chunks.len());
        for &(k0, k1) in &chunks {
            let (slab, more) = rest.split_at_mut((k1 - k0 + 1) * ps);
            rest = more;
            slabs.push((k0, k1, slab));
        }
        thread::scope(|scope| {
            for (c, (k0, k1, slab)) in slabs.into_iter().enumerate() {
                let down: &[f64] = if c == 0 { head } else { &lo_halos[c] };
                let up: &[f64] = if c + 1 == chunks.len() {
                    tail
                } else {
                    &hi_halos[c]
                };
                scope.spawn(move || {
                    color_pass(slab, down, up, k0, k1, n, di, ps, c1, c2, parity, tile);
                });
            }
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
    match tile {
        None => {
            for k in k0..=k1 {
                for j in 1..=hi {
                    let i0 = 1 + (k + j + parity) % 2;
                    if i0 <= hi {
                        f(i0, stride2_last(i0, hi), j, k);
                    }
                }
            }
        }
        Some(t) => {
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
    }
}

/// One colour pass over one K-slab (planes `k0..=k1`, slab-local
/// storage). `down` / `up` are full planes: the live outermost plane or
/// an interface-halo snapshot; they are only consulted for `k == k0` /
/// `k == k1` rows — interior `K±1` reads stay inside the slab.
#[allow(clippy::too_many_arguments)]
fn color_pass(
    slab: &mut [f64],
    down: &[f64],
    up: &[f64],
    k0: usize,
    k1: usize,
    n: usize,
    di: usize,
    ps: usize,
    c1: f64,
    c2: f64,
    parity: usize,
    tile: Option<TileDims>,
) {
    let mut scratch = vec![0.0f64; n / 2 + 1];
    color_rows(n, k0, k1, parity, tile, |i0, i1, j, k| {
        let lo = j * di + (k - k0) * ps + i0;
        let m = (i1 - i0) / 2 + 1;
        {
            let src: &[f64] = slab;
            let d: &[f64] = if k > k0 {
                &src[lo - ps..]
            } else {
                &down[j * di + i0..]
            };
            let u: &[f64] = if k < k1 {
                &src[lo + ps..]
            } else {
                &up[j * di + i0..]
            };
            rowexec::redblack_row(
                &mut scratch[..m],
                &src[lo..],
                &src[lo - 1..],
                &src[lo - di..],
                &src[lo + 1..],
                &src[lo + di..],
                d,
                u,
                c1,
                c2,
            );
        }
        rowexec::scatter_stride2(&mut slab[lo..], &scratch[..m]);
    });
}

/// One colour pass over the whole interior on the calling thread: no
/// spawns, no phase split, `K±1` reads straight from the live array.
#[allow(clippy::too_many_arguments)]
fn color_pass_seq(
    av: &mut [f64],
    k0: usize,
    k1: usize,
    n: usize,
    di: usize,
    ps: usize,
    c1: f64,
    c2: f64,
    parity: usize,
    tile: Option<TileDims>,
) {
    let mut scratch = vec![0.0f64; n / 2 + 1];
    color_rows(n, k0, k1, parity, tile, |i0, i1, j, k| {
        let lo = j * di + k * ps + i0;
        let m = (i1 - i0) / 2 + 1;
        {
            let src: &[f64] = av;
            rowexec::redblack_row(
                &mut scratch[..m],
                &src[lo..],
                &src[lo - 1..],
                &src[lo - di..],
                &src[lo + 1..],
                &src[lo + di..],
                &src[lo - ps..],
                &src[lo + ps..],
                c1,
                c2,
            );
        }
        rowexec::scatter_stride2(&mut av[lo..], &scratch[..m]);
    });
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
        crate::resid::sweep(&mut seq, &u, &v, &Coeffs::MGRID_A, None);
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
