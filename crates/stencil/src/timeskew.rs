//! Time skewing for the *simple* stencil case (Fig 5, top) — the related
//! work the paper positions itself against.
//!
//! For a bare time loop around a single 2D Jacobi sweep, techniques like
//! Song & Li's and Wonnacott's tile the `(T, J)` space after skewing
//! `J' = J + T`, exploiting reuse **across time steps** — something the
//! paper's per-sweep tiling deliberately does not attempt, because it
//! stops working as soon as the time loop contains multiple nests
//! ([`crate::timestep`]) or a succession of grid sizes (multigrid). This
//! module implements the skewed schedule so that claim can be demonstrated
//! both ways:
//!
//! * for the simple kernel, time skewing reuses each band across all time
//!   steps of a block — far fewer misses than per-sweep schedules (the
//!   test pins a >2x read-miss reduction);
//! * the legality argument is exactly
//!   `certify(&DepSet::time_stepped_2d(..), &Schedule::time_skewed(true))`
//!   ([`tiling3d_loopnest::certify`]): the dependence distances
//!   `(1, -1..1)` become `(1, 0..2)` after the skew, making the `(T, J')`
//!   band fully permutable and hence tilable.
//!
//! Ping-pong buffering: time step `t` reads buffer `t % 2` and writes
//! buffer `(t+1) % 2`; the skewed schedule's write-after-read hazards are
//! covered by the same non-negative distances.
//!
//! The skewed iteration structure itself — block the `(T, B')` band after
//! the skew `b' = b + t`, then walk each block's valid points — is shared
//! infrastructure: [`skewed_blocks`] / [`for_each_skewed`] drive the
//! compute and trace forms here *and* the 3D temporal-tiling engine in
//! [`crate::timetile`], whose wavefront scheduler groups the same blocks
//! by anti-diagonal ([`SkewedBlock::wavefront`]).

use tiling3d_cachesim::AccessSink;
use tiling3d_grid::Array2;

/// One tile of a skewed `(T, B')` band: time steps `t0..=t1` of the block,
/// skewed band indices `b0..=b1` (`b' = b + t`), plus the block's position
/// in the tile grid — the coordinates wavefront scheduling works in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkewedBlock {
    /// First time step of the block.
    pub t0: usize,
    /// Last time step of the block (inclusive).
    pub t1: usize,
    /// First skewed band index of the block.
    pub b0: usize,
    /// Last skewed band index of the block (inclusive).
    pub b1: usize,
    /// Time-block index (`t0 / st`).
    pub tt: usize,
    /// Skewed-band-block index.
    pub bb: usize,
}

impl SkewedBlock {
    /// Visits the block's valid points in execution order — `t` ascending,
    /// then `b' = b + t` ascending — calling `f(t, b)` with the *unskewed*
    /// band index `b` clipped to `lo..=hi`.
    pub fn for_each(&self, lo: usize, hi: usize, mut f: impl FnMut(usize, usize)) {
        for t in self.t0..=self.t1 {
            for bp in self.b0..=self.b1 {
                // b = b' - t; only indices inside the band compute.
                if bp < t + lo {
                    continue;
                }
                let b = bp - t;
                if b > hi {
                    continue;
                }
                f(t, b);
            }
        }
    }

    /// Anti-diagonal index in the `(TT, BB)` tile grid. After the skew
    /// every dependence distance is component-wise non-negative over
    /// `(T, B')`, so blocks sharing a wavefront index carry no dependence
    /// between them — they may run concurrently.
    pub fn wavefront(&self) -> usize {
        self.tt + self.bb
    }
}

/// Enumerates the blocks of the skewed `(T, B')` band for `steps` time
/// steps over the unskewed band `lo..=hi` (skew `b' = b + t`), with time
/// blocks of `st` and skewed-band blocks of `sb`, in sequential execution
/// order: band blocks outer, time blocks inner — each band of skewed
/// columns is carried through all its time steps before moving on, which
/// is the cross-timestep reuse the schedule exists for.
///
/// # Panics
/// Panics if `st` or `sb` is zero.
pub fn skewed_blocks(steps: usize, lo: usize, hi: usize, st: usize, sb: usize) -> Vec<SkewedBlock> {
    assert!(st > 0 && sb > 0, "tile extents must be nonzero");
    let mut out = Vec::new();
    if steps == 0 || hi < lo {
        return out;
    }
    let bp_max = hi + steps - 1;
    let (mut bb, mut b0) = (0usize, lo);
    while b0 <= bp_max {
        let b1 = (b0 + sb - 1).min(bp_max);
        let (mut tt, mut t0) = (0usize, 0usize);
        while t0 < steps {
            let t1 = (t0 + st - 1).min(steps - 1);
            out.push(SkewedBlock {
                t0,
                t1,
                b0,
                b1,
                tt,
                bb,
            });
            t0 += st;
            tt += 1;
        }
        b0 += sb;
        bb += 1;
    }
    out
}

/// Walks every valid `(t, b)` point of the skewed schedule in execution
/// order — the one iteration structure [`run_time_skewed`],
/// [`trace_time_skewed`] and the 3D temporal engine
/// ([`crate::timetile`]) all consume.
pub fn for_each_skewed(
    steps: usize,
    lo: usize,
    hi: usize,
    st: usize,
    sb: usize,
    mut f: impl FnMut(usize, usize),
) {
    for block in skewed_blocks(steps, lo, hi, st, sb) {
        block.for_each(lo, hi, &mut f);
    }
}

/// Runs `steps` Jacobi time steps naively (full sweep per step, ping-pong
/// buffers). Returns nothing; the final state lives in `bufs[steps % 2]`.
pub fn run_naive(bufs: &mut [Array2<f64>; 2], c: f64, steps: usize) {
    let n = bufs[0].ni();
    assert_eq!(bufs[0].nj(), n);
    for t in 0..steps {
        let (src, dst) = split(bufs, t);
        let di = src.di();
        let (sv, dv) = (src.as_slice(), dst.as_mut_slice());
        for j in 1..=n - 2 {
            for i in 1..=n - 2 {
                let idx = i + j * di;
                dv[idx] = c * (sv[idx - 1] + sv[idx + 1] + sv[idx - di] + sv[idx + di]);
            }
        }
    }
}

/// Runs the same computation with skewed `(T, J')` tiling: `J' = J + T`,
/// time blocks of `st` steps, skewed-column blocks of `sj`. Bitwise
/// identical to [`run_naive`].
///
/// # Panics
/// Panics if `st` or `sj` is zero or the two buffers differ in shape.
pub fn run_time_skewed(bufs: &mut [Array2<f64>; 2], c: f64, steps: usize, st: usize, sj: usize) {
    let n = bufs[0].ni();
    assert_eq!(bufs[0].nj(), n);
    assert_eq!(bufs[0].di(), bufs[1].di());
    for_each_skewed(steps, 1, n - 2, st, sj, |t, j| {
        // Split borrows for this step's parity.
        let (src, dst) = split(bufs, t);
        let di = src.di();
        let (sv, dv) = (src.as_slice(), dst.as_mut_slice());
        for i in 1..=n - 2 {
            let idx = i + j * di;
            dv[idx] = c * (sv[idx - 1] + sv[idx + 1] + sv[idx - di] + sv[idx + di]);
        }
    });
}

/// Borrows the ping-pong pair as `(source of step t, destination)`.
fn split(bufs: &mut [Array2<f64>; 2], t: usize) -> (&Array2<f64>, &mut Array2<f64>) {
    let (a, b) = bufs.split_at_mut(1);
    if t.is_multiple_of(2) {
        (&a[0], &mut b[0])
    } else {
        (&b[0], &mut a[0])
    }
}

/// Trace of the naive schedule (buffer bases explicit so conflict layouts
/// can be studied; 4 reads + 1 write per point per step).
pub fn trace_naive<S: AccessSink>(
    n: usize,
    di: usize,
    steps: usize,
    bases: [u64; 2],
    sink: &mut S,
) {
    for t in 0..steps {
        let (src, dst) = if t % 2 == 0 {
            (bases[0], bases[1])
        } else {
            (bases[1], bases[0])
        };
        for j in 1..=n - 2 {
            for i in 1..=n - 2 {
                let idx = (i + j * di) as i64;
                let at = |base: u64, off: i64| base + ((idx + off) * 8) as u64;
                sink.read(at(src, -1));
                sink.read(at(src, 1));
                sink.read(at(src, -(di as i64)));
                sink.read(at(src, di as i64));
                sink.write(at(dst, 0));
            }
        }
    }
}

/// Trace of the skewed schedule, same per-point access pattern.
pub fn trace_time_skewed<S: AccessSink>(
    n: usize,
    di: usize,
    steps: usize,
    st: usize,
    sj: usize,
    bases: [u64; 2],
    sink: &mut S,
) {
    for_each_skewed(steps, 1, n - 2, st, sj, |t, j| {
        let (src, dst) = if t % 2 == 0 {
            (bases[0], bases[1])
        } else {
            (bases[1], bases[0])
        };
        for i in 1..=n - 2 {
            let idx = (i + j * di) as i64;
            let at = |base: u64, off: i64| base + ((idx + off) * 8) as u64;
            sink.read(at(src, -1));
            sink.read(at(src, 1));
            sink.read(at(src, -(di as i64)));
            sink.read(at(src, di as i64));
            sink.write(at(dst, 0));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_cachesim::{Cache, CacheConfig, CountingSink};
    use tiling3d_grid::fill_random2;

    fn bufs(n: usize, seed: u64) -> [Array2<f64>; 2] {
        let mut b0 = Array2::new(n, n);
        fill_random2(&mut b0, seed);
        let b1 = b0.clone(); // boundaries must match across buffers
        [b0, b1]
    }

    #[test]
    fn skewed_matches_naive_bitwise() {
        for &(n, steps, stb, sjb) in &[
            (10usize, 4usize, 2usize, 3usize),
            (16, 7, 3, 5),
            (12, 1, 4, 4),
            (9, 6, 100, 100),
            (11, 5, 1, 1),
        ] {
            let mut a = bufs(n, 77);
            let mut b = bufs(n, 77);
            run_naive(&mut a, 0.25, steps);
            run_time_skewed(&mut b, 0.25, steps, stb, sjb);
            let fin = steps % 2;
            assert!(
                a[fin].logical_eq(&b[fin]),
                "n={n} steps={steps} tile=({stb},{sjb})"
            );
        }
    }

    #[test]
    fn trace_volumes_agree() {
        let (n, steps) = (12usize, 5usize);
        let bases = [0u64, (n * n * 8) as u64];
        let mut c1 = CountingSink::default();
        trace_naive(n, n, steps, bases, &mut c1);
        let mut c2 = CountingSink::default();
        trace_time_skewed(n, n, steps, 2, 3, bases, &mut c2);
        assert_eq!(c1.reads, c2.reads);
        assert_eq!(c1.writes, c2.writes);
        assert_eq!(c1.writes, (steps * (n - 2) * (n - 2)) as u64);
    }

    #[test]
    fn time_skewing_wins_big_for_the_simple_kernel() {
        // The Song & Li claim the paper concedes: for a bare time loop
        // around one stencil, skewed time tiling reuses each band across
        // the whole time block. N=100 arrays (80KB x 2) overflow a 16KB L1;
        // bands of ~8 skewed columns of both buffers fit — *provided* the
        // two buffers' bands do not conflict, which with consecutive
        // allocation they do (their bases end up 1920B apart mod 16K).
        // Inter-variable padding fixes it — even the rival technique needs
        // the paper's padding machinery on a direct-mapped cache.
        let (n, steps) = (100usize, 16usize);
        let array_bytes = (n * n * 8) as u64;
        let consecutive = [0u64, array_bytes];
        let staggered = tiling3d_core::intervar::staggered_bases(2, array_bytes, 16 * 1024, 32);
        let staggered = [staggered[0], staggered[1]];
        let miss = |skewed: bool, bases: [u64; 2]| {
            let mut l1 = Cache::new(CacheConfig::ULTRASPARC2_L1);
            if skewed {
                trace_time_skewed(n, n, steps, steps, 8, bases, &mut l1);
            } else {
                trace_naive(n, n, steps, bases, &mut l1);
            }
            l1.stats().read_misses
        };
        let naive = miss(false, consecutive);
        let skewed_conflicting = miss(true, consecutive);
        let skewed_padded = miss(true, staggered);
        assert!(
            (skewed_padded as f64) < naive as f64 / 2.0,
            "padded time skewing should cut read misses >2x: naive {naive} vs {skewed_padded}"
        );
        assert!(
            skewed_conflicting > skewed_padded * 2,
            "without inter-variable padding the skewed bands should thrash:              {skewed_conflicting} vs {skewed_padded}"
        );
    }

    #[test]
    fn skewed_blocks_cover_every_point_exactly_once() {
        for &(steps, lo, hi, st, sb) in &[
            (5usize, 1usize, 9usize, 2usize, 3usize),
            (1, 1, 6, 4, 4),
            (7, 2, 4, 3, 1),
            (4, 1, 12, 100, 100),
        ] {
            let mut seen = std::collections::HashSet::new();
            for_each_skewed(steps, lo, hi, st, sb, |t, b| {
                assert!(seen.insert((t, b)), "duplicate ({t},{b})");
                assert!((lo..=hi).contains(&b));
                assert!(t < steps);
            });
            assert_eq!(seen.len(), steps * (hi - lo + 1));
        }
    }

    #[test]
    fn wavefront_blocks_are_dependence_free() {
        // Two blocks on one anti-diagonal must not contain points related
        // by any skewed dependence direction (dt, db') in {1} x {0, 1, 2}
        // or {2} x {2} — the component-wise non-negative distance cone the
        // 3D engine's concurrency argument rests on.
        let blocks = skewed_blocks(6, 1, 10, 2, 3);
        for a in &blocks {
            for b in &blocks {
                if a == b || a.wavefront() != b.wavefront() {
                    continue;
                }
                // Component-wise ordered distinct blocks would admit a
                // forward dependence; same-wavefront blocks never are.
                let ordered = (a.t0 <= b.t0 && a.b0 <= b.b0) || (b.t0 <= a.t0 && b.b0 <= a.b0);
                assert!(!ordered, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn zero_steps_is_identity() {
        let mut a = bufs(8, 3);
        let orig = a[0].clone();
        run_time_skewed(&mut a, 0.25, 0, 4, 4);
        assert!(a[0].logical_eq(&orig));
    }

    #[test]
    #[should_panic]
    fn zero_tile_rejected() {
        let mut a = bufs(8, 3);
        run_time_skewed(&mut a, 0.25, 2, 0, 4);
    }
}
