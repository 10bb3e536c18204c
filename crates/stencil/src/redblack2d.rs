//! 2D red-black SOR — the Weiß et al. fusion technique the paper's 3D
//! schedule (Fig 12) generalises.
//!
//! "Researchers have shown how to avoid this problem (in the 2D case) by
//! ordering loop iterations so that black points in each column are
//! updated immediately after the red points in the next column": the fused
//! 2D schedule keeps a working set of only a few
//! columns (red of column J+1 reads J..J+2 while black of column J reads
//! J-1..J+1 — four columns in flight), so — matching the paper's Section 1
//! thesis — no tiling is required in 2D; fusion alone restores the reuse. This module provides the naive and fused 2D
//! schedules (compute + trace) and the tests pin both the equivalence and
//! the cache behaviour.

use tiling3d_cachesim::AccessSink;
use tiling3d_grid::Array2;
use tiling3d_loopnest::stride2_last;

use crate::rowexec;

/// FLOPs per updated point (2 multiplies + 4 adds).
pub const FLOPS_PER_POINT: u64 = 6;

/// 2D schedule: two colour passes, or red/black column-fused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule2D {
    /// All red points, then all black points.
    Naive,
    /// Black points of column `J` updated right after red points of column
    /// `J+1`.
    Fused,
}

fn rows_naive(n: usize, mut f: impl FnMut(usize, usize, usize)) {
    for p in 0..2usize {
        for j in 1..=n - 2 {
            let i0 = 1 + (j + p) % 2;
            if i0 <= n - 2 {
                f(i0, stride2_last(i0, n - 2), j);
            }
        }
    }
}

fn rows_fused(n: usize, mut f: impl FnMut(usize, usize, usize)) {
    for jj in 0..=n - 2 {
        for j in [jj + 1, jj] {
            if !(1..=n - 2).contains(&j) {
                continue;
            }
            let parity = if j == jj + 1 { 0 } else { 1 };
            let i0 = 1 + (j + parity) % 2;
            if i0 <= n - 2 {
                f(i0, stride2_last(i0, n - 2), j);
            }
        }
    }
}

/// Walks `schedule`'s update points as stride-2 row segments in execution
/// order: `f(i_first, i_last, j)`.
pub fn visit_rows(n: usize, schedule: Schedule2D, f: impl FnMut(usize, usize, usize)) {
    match schedule {
        Schedule2D::Naive => rows_naive(n, f),
        Schedule2D::Fused => rows_fused(n, f),
    }
}

/// Per-point expansion of [`visit_rows`], in execution order.
pub fn visit(n: usize, schedule: Schedule2D, mut f: impl FnMut(usize, usize)) {
    visit_rows(n, schedule, |i0, i1, j| {
        let mut i = i0;
        while i <= i1 {
            f(i, j);
            i += 2;
        }
    });
}

/// One full 2D red-black iteration in place:
/// `A = C1*A + C2*(4-point neighbour sum)`.
///
/// Runs on the row engine (scratch-compute then stride-2 scatter);
/// bitwise identical to [`crate::reference::redblack2d`].
///
/// # Panics
/// Panics unless the logical extents are square.
pub fn sweep(a: &mut Array2<f64>, c1: f64, c2: f64, schedule: Schedule2D) {
    let n = a.ni();
    assert_eq!(a.nj(), n, "2D red-black expects a square grid");
    let di = a.di();
    let av = a.as_mut_slice();
    let mut scratch = vec![0.0f64; n / 2 + 1];
    visit_rows(n, schedule, |i0, i1, j| {
        let lo = j * di + i0;
        let m = (i1 - i0) / 2 + 1;
        {
            let src: &[f64] = av;
            rowexec::redblack2d_row(
                &mut scratch[..m],
                &src[lo..],
                &src[lo - 1..],
                &src[lo - di..],
                &src[lo + 1..],
                &src[lo + di..],
                c1,
                c2,
            );
        }
        rowexec::scatter_stride2(&mut av[lo..], &scratch[..m]);
    });
    if n >= 2 {
        rowexec::note_sweep(((n - 2) * (n - 2)) as u64, FLOPS_PER_POINT);
    }
}

/// Trace of one iteration (array at byte 0, allocated column length `di`).
pub fn trace<S: AccessSink>(n: usize, di: usize, schedule: Schedule2D, sink: &mut S) {
    assert!(di >= n);
    visit(n, schedule, |i, j| {
        let idx = (i + j * di) as i64;
        let at = |off: i64| ((idx + off) * 8) as u64;
        sink.read(at(0));
        sink.read(at(-1));
        sink.read(at(-(di as i64)));
        sink.read(at(1));
        sink.read(at(di as i64));
        sink.write(at(0));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tiling3d_cachesim::{Cache, CacheConfig};
    use tiling3d_grid::fill_random2;

    #[test]
    fn both_schedules_cover_each_point_once() {
        let n = 13;
        for sched in [Schedule2D::Naive, Schedule2D::Fused] {
            let mut seen = HashSet::new();
            visit(n, sched, |i, j| {
                assert!(seen.insert((i, j)), "{sched:?} dup ({i},{j})");
            });
            assert_eq!(seen.len(), (n - 2) * (n - 2));
        }
    }

    #[test]
    fn fused_matches_naive_bitwise() {
        for n in [8usize, 9, 20, 33] {
            let mut a = Array2::new(n, n);
            fill_random2(&mut a, 41);
            let mut b = a.clone();
            sweep(&mut a, 0.4, 0.15, Schedule2D::Naive);
            sweep(&mut b, 0.4, 0.15, Schedule2D::Fused);
            assert!(a.logical_eq(&b), "n={n}");
        }
    }

    #[test]
    fn padded_grid_same_results() {
        let mut a = Array2::new(16, 16);
        fill_random2(&mut a, 2);
        let mut b = Array2::with_padding(16, 16, 23);
        for j in 0..16 {
            for i in 0..16 {
                b.set(i, j, a.get(i, j));
            }
        }
        sweep(&mut a, 0.3, 0.1, Schedule2D::Fused);
        sweep(&mut b, 0.3, 0.1, Schedule2D::Fused);
        assert!(a.logical_eq(&b));
    }

    #[test]
    fn fusion_restores_read_reuse_in_2d() {
        // Naive: the array is pulled through cache twice per iteration.
        // Fused: once, provided the 4-column working set (red of column
        // J+1 reads J..J+2, black of column J reads J-1..J+1) fits — at
        // N = 400 that is 12.8KB of a 16KB L1.
        let n = 400;
        let rate = |s: Schedule2D| {
            let mut l1 = Cache::new(CacheConfig::ULTRASPARC2_L1);
            trace(n, n, s, &mut l1);
            l1.stats().read_miss_rate_pct()
        };
        let (naive, fused) = (rate(Schedule2D::Naive), rate(Schedule2D::Fused));
        assert!(
            fused < naive * 0.7,
            "fusion should cut 2D read misses substantially: naive {naive:.1}% fused {fused:.1}%"
        );
    }

    #[test]
    fn flops_constant() {
        assert_eq!(FLOPS_PER_POINT, 6);
    }
}
