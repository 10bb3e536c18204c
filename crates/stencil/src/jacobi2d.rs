//! 2D Jacobi iteration (Fig 1): the kernel that does *not* need tiling.
//!
//! Included to reproduce the paper's Section 1 argument experimentally: a
//! 4-point 2D stencil keeps all group reuse as long as two columns fit in
//! cache, so its miss rate is flat in the column length `N` up to `N ~ C/2`
//! — no tiling required. (Compare `tiling3d_loopnest::reuse::advise_2d`.)

use tiling3d_cachesim::AccessSink;
use tiling3d_grid::Array2;

use crate::rowexec;

/// FLOPs per interior point (3 adds + 1 multiply).
pub const FLOPS_PER_POINT: u64 = 4;

/// One untiled 2D Jacobi sweep:
/// `A(I,J) = C*(B(I-1,J)+B(I+1,J)+B(I,J-1)+B(I,J+1))`.
///
/// Runs on the row engine; bitwise identical to
/// [`crate::reference::jacobi2d`].
///
/// # Panics
/// Panics if extents mismatch.
pub fn sweep(a: &mut Array2<f64>, b: &Array2<f64>, c: f64) {
    assert_eq!((a.ni(), a.nj(), a.di()), (b.ni(), b.nj(), b.di()));
    let (ni, nj) = (b.ni(), b.nj());
    if ni < 3 || nj < 3 {
        return;
    }
    let di = b.di();
    let (av, bv) = (a.as_mut_slice(), b.as_slice());
    let len = ni - 2;
    for j in 1..nj - 1 {
        let at = j * di + 1;
        rowexec::jacobi2d_row(&mut av[at..at + len], bv, at, di, c);
    }
    rowexec::note_sweep(((ni - 2) * (nj - 2)) as u64, FLOPS_PER_POINT);
}

/// Replays the address trace of one 2D sweep (`A` at byte 0, `B`
/// immediately after).
pub fn trace<S: AccessSink>(ni: usize, nj: usize, di: usize, sink: &mut S) {
    assert!(di >= ni);
    let a_base = 0u64;
    let b_base = (di * nj * 8) as u64;
    for j in 1..nj - 1 {
        for i in 1..ni - 1 {
            let idx = (i + j * di) as i64;
            let b = |off: i64| b_base.wrapping_add(((idx + off) * 8) as u64);
            sink.read(b(-1));
            sink.read(b(1));
            sink.read(b(-(di as i64)));
            sink.read(b(di as i64));
            sink.write(a_base + idx as u64 * 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_cachesim::{Cache, CacheConfig, CountingSink};
    use tiling3d_grid::fill_random2;

    #[test]
    fn linear_field_oracle() {
        let mut b = Array2::<f64>::new(8, 8);
        b.fill_with(|i, j| 3.0 * i as f64 - 2.0 * j as f64 + 0.5);
        let mut a = Array2::<f64>::new(8, 8);
        sweep(&mut a, &b, 0.25);
        for j in 1..7 {
            for i in 1..7 {
                assert!((a.get(i, j) - b.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trace_counts() {
        let mut c = CountingSink::default();
        trace(10, 10, 10, &mut c);
        assert_eq!(c.reads, 4 * 64);
        assert_eq!(c.writes, 64);
    }

    #[test]
    fn group_reuse_survives_small_l1_for_large_2d_arrays() {
        // The Section 1 claim: even N=500 columns keep reuse in a 16K L1.
        // With reuse, each B element is fetched ~once: read misses ~= N^2/4
        // lines out of 4*N^2 loads => ~6% read miss rate. (Total miss rate
        // carries a constant write-around floor — writes to A never
        // allocate — so the reuse argument is about reads.)
        let mut l1 = Cache::new(CacheConfig::ULTRASPARC2_L1);
        let n = 500;
        trace(n, n, n, &mut l1);
        assert!(
            l1.stats().read_miss_rate_pct() < 8.0,
            "2D Jacobi at N={n} should keep read reuse, got {:.1}%",
            l1.stats().read_miss_rate_pct()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let mut b = Array2::<f64>::new(32, 32);
        fill_random2(&mut b, 7);
        let mut a1 = Array2::<f64>::new(32, 32);
        let mut a2 = Array2::<f64>::new(32, 32);
        sweep(&mut a1, &b, 0.25);
        sweep(&mut a2, &b, 0.25);
        assert!(a1.logical_eq(&a2));
    }
}
