//! 3D temporal tiling: time-skewed `(T, K')` blocks executed as
//! multicore wavefronts.
//!
//! The paper stops tiling at one grid sweep; this module goes past it.
//! For `steps` iterated sweeps of the 3D Jacobi (ping-pong buffers) or
//! red-black (in-place, colour passes) kernels, the `(T, K)` band is
//! skewed `K' = K + T` and blocked into `st x sk` tiles — the schedule
//! family certified by `tiling3d_loopnest::legality::Schedule::
//! time_skewed_3d` against `DepSet::time_stepped_3d` /
//! `DepSet::time_stepped_redblack`. After the unit skew every dependence
//! distance is component-wise non-negative over `(T, K')`, which buys
//! two things at once:
//!
//! * **sequential legality** — tiles may execute band-block-major
//!   (each band of skewed planes carried through all its time blocks,
//!   the cross-timestep reuse the schedule exists for), and
//! * **wavefront parallelism** — tiles on one anti-diagonal of the
//!   `(TT, BB)` tile grid ([`SkewedBlock::wavefront`]) are related by no
//!   dependence *and no memory conflict*, so they run concurrently on
//!   scoped threads with a barrier per wavefront.
//!
//! The concurrency argument is enforced, not assumed: each wavefront
//! computes a plane-ownership map (the tile that writes a `(buffer, K)`
//! plane owns it exclusively; everything else is shared read-only), and
//! the executor panics if any tile asks for a plane the map says it may
//! not touch. Every dependence that could make two same-wave tiles share
//! a plane has a component-wise ordered skewed distance, which would put
//! the tiles on different anti-diagonals — so for the certified schedule
//! the panic is unreachable (`timeskew::tests::
//! wavefront_blocks_are_dependence_free` checks the block geometry
//! directly).
//!
//! A sequential run (`threads == 1`) goes through the same executor:
//! each block runs as its own one-block wave, in `skewed_blocks` order —
//! the band-major order above. Each kernel contributes only a per-plane
//! block body, which picks the source planes of one `(t, K)` step and
//! hands them to the [`rowexec`] row kernels (the spatial engine's), so
//! every schedule here is **bitwise identical** to [`mod@reference`]
//! iterated `steps` times, for any tile shape and any thread count
//! (`tests/time_tiled_golden.rs` is the gate). Red-black is scheduled at
//! *colour-pass* granularity: pass `p = 2t + colour`, so a time tile of
//! `st` full steps spans `2 * st` passes and the half-step dependences
//! (`DepKind::Flow (1, ·)` between colours, `(2, 0, 0, 0)` for the
//! centre self-dependence) are honoured by the same skew.
//!
//! The cache traces of both schedules are row walks: one
//! [`AccessSink::row`] per row, over the same `RowShape`s the spatial
//! traces build.

use tiling3d_cachesim::{AccessSink, RowShape};
use tiling3d_grid::Array3;

use crate::jacobi3d;
use crate::redblack;
use crate::reference;
use crate::rowexec;
use crate::timeskew::{for_each_skewed, skewed_blocks, SkewedBlock};

/// A temporal tile: `st` time steps by `sk` skewed K planes.
///
/// For red-black, `st` counts *full* steps (red + black); the engine
/// schedules `2 * st` colour passes per time block internally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeTile {
    /// Time-block extent in steps (clamped to the step count).
    pub st: usize,
    /// Skewed K-band extent in planes (clamped to the band).
    pub sk: usize,
}

/// The geometry every plane-level routine needs, hoisted once per run.
#[derive(Clone, Copy)]
struct Geom {
    ni: usize,
    nj: usize,
    nk: usize,
    di: usize,
    ps: usize,
}

impl Geom {
    fn of(a: &Array3<f64>) -> Geom {
        Geom {
            ni: a.ni(),
            nj: a.nj(),
            nk: a.nk(),
            di: a.di(),
            ps: a.plane_stride(),
        }
    }

    /// Whether the grid has no interior point.
    fn degenerate(self) -> bool {
        self.ni < 3 || self.nj < 3 || self.nk < 3
    }

    /// Byte offset of point `(i, j, k)` from its array's base.
    fn addr(self, i: usize, j: usize, k: usize) -> u64 {
        ((i + j * self.di + k * self.ps) * 8) as u64
    }
}

/// Borrows the ping-pong pair as `(source of step t, destination)`.
fn split3(bufs: &mut [Array3<f64>; 2], t: usize) -> (&Array3<f64>, &mut Array3<f64>) {
    let (a, b) = bufs.split_at_mut(1);
    if t.is_multiple_of(2) {
        (&a[0], &mut b[0])
    } else {
        (&b[0], &mut a[0])
    }
}

/// Groups blocks by anti-diagonal; within a wave the sequential order
/// (ascending band block) is kept so work distribution is deterministic.
fn wavefronts(blocks: &[SkewedBlock]) -> Vec<Vec<SkewedBlock>> {
    let mut waves: Vec<Vec<SkewedBlock>> = Vec::new();
    for b in blocks {
        let w = b.wavefront();
        if waves.len() <= w {
            waves.resize_with(w + 1, Vec::new);
        }
        waves[w].push(*b);
    }
    waves
}

/// The planes a tile owns for one wavefront, keyed `buffer * nk + k`.
type OwnedPlanes<'a> = Vec<(usize, &'a mut [f64])>;

/// The planes a tile may read while it updates one: its own planes and
/// the wavefront's shared read-only pool, keyed `buffer * nk + k`.
struct Planes<'a, 'p> {
    own: &'a [(usize, &'p mut [f64])],
    shared: &'a [Option<&'p [f64]>],
}

impl<'a> Planes<'a, '_> {
    /// Looks a source plane up in the tile's owned set, falling back to
    /// the shared pool. A `None` in both places means the plane is owned
    /// by *another* tile of the same wavefront — a dependence the skew
    /// proves cannot exist — so this panics rather than race.
    fn get(&self, key: usize) -> &'a [f64] {
        if let Some((_, p)) = self.own.iter().find(|&&(k, _)| k == key) {
            return p;
        }
        self.shared[key]
            .expect("wavefront isolation violated: source plane owned by a concurrent tile")
    }
}

/// Deals per-tile work units round-robin across `workers` groups.
fn deal<T>(work: Vec<T>, workers: usize) -> Vec<Vec<T>> {
    let mut groups: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in work.into_iter().enumerate() {
        groups[i % workers].push(item);
    }
    groups
}

/// The one time-tile executor. Runs `blocks` (in `skewed_blocks` order)
/// over the flat buffers `bufs` — `g.nk` planes each, plane `k` of buffer
/// `b` keyed `b * nk + k` — wave by wave: the anti-diagonals of the tile
/// grid across `threads` scoped threads, or every block as its own
/// one-block wave when `threads == 1`.
///
/// Per wave it builds the plane-ownership map (the tile that writes a
/// plane this wave owns it exclusively; everything else is shared
/// read-only), routes each plane slice to its owner or the shared pool,
/// and joins the scope at the end — the wavefront barrier. `writes(t, k)`
/// keys the plane step `(t, k)` updates; `body(t, k, dst, src, scratch)`
/// updates it from the planes in `src` and returns the points updated.
fn run_waves<W, B>(
    bufs: &mut [&mut [f64]],
    g: Geom,
    blocks: &[SkewedBlock],
    threads: usize,
    parent: u64,
    writes: W,
    body: B,
) where
    W: Fn(usize, usize) -> usize + Sync,
    B: Fn(usize, usize, &mut [f64], &Planes<'_, '_>, &mut [f64]) -> u64 + Sync,
{
    let waves = if threads == 1 {
        blocks.iter().map(|b| vec![*b]).collect()
    } else {
        wavefronts(blocks)
    };
    let keys = bufs.len() * g.nk;
    for wave in waves {
        let span = tiling3d_obs::span_at("wavefront", parent);
        span.add("tiles", wave.len() as u64);
        // Two same-wave tiles claiming one plane would be a write-write
        // conflict the skew has already excluded.
        let mut owner: Vec<Option<usize>> = vec![None; keys];
        for (bi, blk) in wave.iter().enumerate() {
            blk.for_each(1, g.nk - 2, |t, k| {
                let key = writes(t, k);
                match owner[key] {
                    None => owner[key] = Some(bi),
                    Some(o) => assert_eq!(o, bi, "two tiles of one wavefront write plane {k}"),
                }
            });
        }
        let mut own: Vec<OwnedPlanes> = wave.iter().map(|_| Vec::new()).collect();
        let mut shared: Vec<Option<&[f64]>> = vec![None; keys];
        let planes = bufs.iter_mut().flat_map(|b| b.chunks_mut(g.ps));
        for (key, plane) in planes.enumerate() {
            match owner[key] {
                Some(bi) => own[bi].push((key, plane)),
                None => {
                    let ro: &[f64] = plane;
                    shared[key] = Some(ro);
                }
            }
        }
        let work: Vec<(SkewedBlock, OwnedPlanes)> = wave.into_iter().zip(own).collect();
        let workers = threads.min(work.len());
        let (shared, writes, body, wid) = (&shared, &writes, &body, span.id());
        let run = move |group: Vec<(SkewedBlock, OwnedPlanes)>| {
            for (blk, mut own) in group {
                run_block(&blk, &mut own, shared, g, writes, body, wid);
            }
        };
        if workers == 1 {
            run(work);
        } else {
            std::thread::scope(|scope| {
                for group in deal(work, workers) {
                    scope.spawn(move || run(group));
                }
            });
        }
    }
}

/// One tile against its owned planes: each step's destination plane is
/// pulled out of the owned set so the source planes can be read around it.
fn run_block<W, B>(
    blk: &SkewedBlock,
    own: &mut OwnedPlanes,
    shared: &[Option<&[f64]>],
    g: Geom,
    writes: &W,
    body: &B,
    parent: u64,
) where
    W: Fn(usize, usize) -> usize,
    B: Fn(usize, usize, &mut [f64], &Planes<'_, '_>, &mut [f64]) -> u64,
{
    let span = tiling3d_obs::span_at("timeblock", parent);
    let mut scratch = vec![0.0; g.ni / 2 + 1];
    let mut points = 0u64;
    blk.for_each(1, g.nk - 2, |t, k| {
        let key = writes(t, k);
        let pos = own
            .iter()
            .position(|&(o, _)| o == key)
            .expect("wavefront isolation violated: destination plane not owned by its tile");
        let (key, dst) = own.swap_remove(pos);
        let src = Planes { own, shared };
        points += body(t, k, dst, &src, &mut scratch);
        own.push((key, dst));
    });
    span.add("points", points);
}

// ---------------------------------------------------------------------------
// Jacobi
// ---------------------------------------------------------------------------

/// Runs `steps` reference Jacobi sweeps over the ping-pong pair. The
/// result lives in `bufs[steps % 2]`; this is the executable
/// specification the time-tiled schedule is held bitwise-equal to.
///
/// # Panics
/// Panics if the two buffers differ in extents.
pub fn jacobi_steps_reference(bufs: &mut [Array3<f64>; 2], c: f64, steps: usize) {
    if Geom::of(&bufs[0]).degenerate() {
        return;
    }
    for t in 0..steps {
        let (src, dst) = split3(bufs, t);
        reference::jacobi3d(dst, src, c, None);
    }
}

/// Runs `steps` Jacobi sweeps through the time-skewed tile schedule,
/// wavefront-parallel across `threads` scoped threads (sequential
/// band-major order when `threads == 1`). Bitwise identical to
/// [`jacobi_steps_reference`] for any tile shape and thread count; the
/// result lives in `bufs[steps % 2]`. Boundary planes are never written,
/// so the two buffers must agree on them (as in any ping-pong setup).
///
/// # Panics
/// Panics if a tile extent or `threads` is zero, or the buffers differ
/// in extents.
pub fn jacobi_time_tiled(
    bufs: &mut [Array3<f64>; 2],
    c: f64,
    steps: usize,
    tile: TimeTile,
    threads: usize,
) {
    assert!(tile.st > 0 && tile.sk > 0, "tile extents must be nonzero");
    assert!(threads > 0, "threads must be at least 1");
    rowexec::check_pair(&bufs[0], &bufs[1], "ping-pong buffers");
    let g = Geom::of(&bufs[0]);
    if steps == 0 || g.degenerate() {
        return;
    }
    let blocks = skewed_blocks(steps, 1, g.nk - 2, tile.st, tile.sk);
    let span = tiling3d_obs::span("timetile:jacobi");
    span.add("steps", steps as u64);
    span.add("tiles", blocks.len() as u64);
    let Geom { ni, nj, nk, di, .. } = g;
    run_waves(
        &mut bufs.each_mut().map(Array3::as_mut_slice),
        g,
        &blocks,
        threads,
        span.id(),
        // Step t reads buffer t % 2 and writes the other one.
        |t, k| (t + 1) % 2 * nk + k,
        |t, k, dst, src, _| {
            let s = t % 2 * nk + k;
            let src = [src.get(s - 1), src.get(s), src.get(s + 1)];
            for j in 1..=nj - 2 {
                let at = j * di + 1;
                rowexec::jacobi3d_row(&mut dst[at..][..ni - 2], src, at, di, c);
            }
            ((ni - 2) * (nj - 2)) as u64
        },
    );
    let per_step = (ni - 2) as u64 * (nj - 2) as u64 * (nk - 2) as u64;
    rowexec::note_sweep(per_step * steps as u64, jacobi3d::FLOPS_PER_POINT);
}

// ---------------------------------------------------------------------------
// Red-black
// ---------------------------------------------------------------------------

/// Runs `steps` reference red-black iterations (naive two-pass order) —
/// the executable specification for the time-tiled schedule.
///
/// # Panics
/// Panics unless the `I`/`J` logical extents are equal.
pub fn redblack_steps_reference(a: &mut Array3<f64>, c1: f64, c2: f64, steps: usize) {
    if Geom::of(a).degenerate() {
        return;
    }
    for _ in 0..steps {
        reference::redblack(a, c1, c2, redblack::Schedule::Naive);
    }
}

/// Runs `steps` red-black iterations through the time-skewed tile
/// schedule at colour-pass granularity (`2 * steps` passes, time blocks
/// of `2 * tile.st` passes), wavefront-parallel across `threads`.
/// Bitwise identical to [`redblack_steps_reference`] for any tile shape
/// and thread count.
///
/// # Panics
/// Panics if a tile extent or `threads` is zero, or the grid is not
/// square in `I`/`J`.
pub fn redblack_time_tiled(
    a: &mut Array3<f64>,
    c1: f64,
    c2: f64,
    steps: usize,
    tile: TimeTile,
    threads: usize,
) {
    assert!(tile.st > 0 && tile.sk > 0, "tile extents must be nonzero");
    assert!(threads > 0, "threads must be at least 1");
    assert!(
        a.nj() == a.ni(),
        "red-black kernel expects square I/J extents"
    );
    let g = Geom::of(a);
    if steps == 0 || g.degenerate() {
        return;
    }
    let blocks = skewed_blocks(2 * steps, 1, g.nk - 2, 2 * tile.st, tile.sk);
    let span = tiling3d_obs::span("timetile:redblack");
    span.add("steps", steps as u64);
    span.add("tiles", blocks.len() as u64);
    let Geom { ni: n, nk, di, .. } = g;
    run_waves(
        &mut [a.as_mut_slice()],
        g,
        &blocks,
        threads,
        span.id(),
        |_, k| k,
        |p, k, plane, src, scratch| {
            let nbr = [src.get(k - 1), src.get(k + 1)];
            let mut points = 0;
            redblack::plane_rows(n, k, p % 2, |i0, i1, j| {
                let m = (i1 - i0) / 2 + 1;
                rowexec::redblack_row(plane, nbr, j * di + i0, di, &mut scratch[..m], c1, c2);
                points += m as u64;
            });
            points
        },
    );
    let per_step = (n - 2) as u64 * (n - 2) as u64 * (nk - 2) as u64;
    rowexec::note_sweep(per_step * steps as u64, redblack::FLOPS_PER_POINT);
}

// ---------------------------------------------------------------------------
// Address traces — the cachesim forms of the same schedules
// ---------------------------------------------------------------------------

/// The Jacobi row shapes of even and odd steps: step `t` reads the
/// buffer at `bases[t % 2]` and writes the other one.
fn jacobi_shapes(g: Geom, [b0, b1]: [u64; 2]) -> [RowShape; 2] {
    [
        jacobi3d::row_shape(g.di, g.ps, b1, b0),
        jacobi3d::row_shape(g.di, g.ps, b0, b1),
    ]
}

/// Step `t` of plane `k` of the Jacobi schedule: one row per `j`.
fn trace_jacobi_plane<S: AccessSink>(
    g: Geom,
    shapes: &[RowShape; 2],
    t: usize,
    k: usize,
    sink: &mut S,
) {
    for j in 1..=g.nj - 2 {
        sink.row(&shapes[t % 2], g.addr(1, j, k), g.ni - 2);
    }
}

/// Trace of `steps` naive Jacobi sweeps over ping-pong buffers at the
/// given byte bases (full sweep per step).
pub fn trace_jacobi_steps<S: AccessSink>(
    g_arr: &Array3<f64>,
    steps: usize,
    bases: [u64; 2],
    sink: &mut S,
) {
    let g = Geom::of(g_arr);
    if g.degenerate() {
        return;
    }
    let shapes = jacobi_shapes(g, bases);
    for t in 0..steps {
        for k in 1..=g.nk - 2 {
            trace_jacobi_plane(g, &shapes, t, k, sink);
        }
    }
}

/// Trace of the same `steps` sweeps through the time-skewed tile
/// schedule (sequential band-major order — the order `threads == 1`
/// executes and the cache model predicts).
pub fn trace_jacobi_time_tiled<S: AccessSink>(
    g_arr: &Array3<f64>,
    steps: usize,
    tile: TimeTile,
    bases: [u64; 2],
    sink: &mut S,
) {
    let g = Geom::of(g_arr);
    if steps == 0 || g.degenerate() {
        return;
    }
    let shapes = jacobi_shapes(g, bases);
    for_each_skewed(steps, 1, g.nk - 2, tile.st, tile.sk, |t, k| {
        trace_jacobi_plane(g, &shapes, t, k, sink);
    });
}

/// Colour pass `p` of plane `k` of the red-black schedule: its stride-2
/// rows (array at byte `shape`'s base).
fn trace_redblack_plane<S: AccessSink>(
    g: Geom,
    shape: &RowShape,
    p: usize,
    k: usize,
    sink: &mut S,
) {
    redblack::plane_rows(g.ni, k, p % 2, |i0, i1, j| {
        sink.row(shape, g.addr(i0, j, k), (i1 - i0) / 2 + 1);
    });
}

/// The geometry and row shape of a red-black trace at byte base `base`.
///
/// # Panics
/// Panics unless the `I`/`J` logical extents are equal.
fn redblack_trace_setup(a: &Array3<f64>, base: u64) -> (Geom, RowShape) {
    assert!(
        a.nj() == a.ni(),
        "red-black kernel expects square I/J extents"
    );
    let g = Geom::of(a);
    (g, redblack::row_shape(g.di, g.ps, base))
}

/// Trace of `steps` naive red-black iterations (red pass over the whole
/// grid, then black) at byte base `base`.
///
/// # Panics
/// Panics unless the `I`/`J` logical extents are equal.
pub fn trace_redblack_steps<S: AccessSink>(
    g_arr: &Array3<f64>,
    steps: usize,
    base: u64,
    sink: &mut S,
) {
    let (g, shape) = redblack_trace_setup(g_arr, base);
    if g.degenerate() {
        return;
    }
    for p in 0..2 * steps {
        for k in 1..=g.nk - 2 {
            trace_redblack_plane(g, &shape, p, k, sink);
        }
    }
}

/// Trace of the time-skewed red-black schedule at colour-pass
/// granularity (sequential band-major order).
///
/// # Panics
/// Panics unless the `I`/`J` logical extents are equal.
pub fn trace_redblack_time_tiled<S: AccessSink>(
    g_arr: &Array3<f64>,
    steps: usize,
    tile: TimeTile,
    base: u64,
    sink: &mut S,
) {
    let (g, shape) = redblack_trace_setup(g_arr, base);
    if steps == 0 || g.degenerate() {
        return;
    }
    for_each_skewed(2 * steps, 1, g.nk - 2, 2 * tile.st, tile.sk, |p, k| {
        trace_redblack_plane(g, &shape, p, k, sink);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_cachesim::CountingSink;
    use tiling3d_grid::fill_random;

    fn jacobi_bufs(ni: usize, nj: usize, nk: usize, seed: u64) -> [Array3<f64>; 2] {
        let mut b0 = Array3::new(ni, nj, nk);
        fill_random(&mut b0, seed);
        let b1 = b0.clone(); // boundaries must match across buffers
        [b0, b1]
    }

    #[test]
    fn jacobi_time_tiled_matches_reference_smoke() {
        for threads in [1, 3] {
            let mut a = jacobi_bufs(12, 10, 9, 42);
            let mut b = jacobi_bufs(12, 10, 9, 42);
            let steps = 5;
            jacobi_steps_reference(&mut a, 0.17, steps);
            jacobi_time_tiled(&mut b, 0.17, steps, TimeTile { st: 2, sk: 3 }, threads);
            let fin = steps % 2;
            assert!(a[fin].logical_eq(&b[fin]), "threads={threads}");
        }
    }

    #[test]
    fn redblack_time_tiled_matches_reference_smoke() {
        for threads in [1, 4] {
            let mut a = Array3::new(11, 11, 8);
            fill_random(&mut a, 7);
            let mut b = a.clone();
            let steps = 4;
            redblack_steps_reference(&mut a, 0.4, 0.1, steps);
            redblack_time_tiled(&mut b, 0.4, 0.1, steps, TimeTile { st: 2, sk: 2 }, threads);
            assert!(a.logical_eq(&b), "threads={threads}");
        }
    }

    #[test]
    fn degenerate_grids_are_untouched() {
        for nk in [1usize, 2] {
            let mut b = jacobi_bufs(8, 8, nk, 5);
            let orig = [b[0].clone(), b[1].clone()];
            jacobi_time_tiled(&mut b, 0.2, 3, TimeTile { st: 1, sk: 1 }, 2);
            assert!(b[0].logical_eq(&orig[0]) && b[1].logical_eq(&orig[1]));
        }
        let mut a = Array3::new(2, 2, 6);
        fill_random(&mut a, 9);
        let orig = a.clone();
        redblack_time_tiled(&mut a, 0.4, 0.1, 2, TimeTile { st: 1, sk: 1 }, 2);
        assert!(a.logical_eq(&orig));
    }

    #[test]
    fn trace_volumes_match_the_naive_schedule() {
        let arr = Array3::<f64>::new(10, 9, 8);
        let bases = [0u64, (arr.len() * 8) as u64];
        let steps = 4;
        let mut naive = CountingSink::default();
        trace_jacobi_steps(&arr, steps, bases, &mut naive);
        let mut tiled = CountingSink::default();
        trace_jacobi_time_tiled(&arr, steps, TimeTile { st: 2, sk: 3 }, bases, &mut tiled);
        assert_eq!(naive.reads, tiled.reads);
        assert_eq!(naive.writes, tiled.writes);
        assert_eq!(naive.writes, (steps * 8 * 7 * 6) as u64);

        let sq = Array3::<f64>::new(9, 9, 8);
        let mut naive = CountingSink::default();
        trace_redblack_steps(&sq, steps, 0, &mut naive);
        let mut tiled = CountingSink::default();
        trace_redblack_time_tiled(&sq, steps, TimeTile { st: 1, sk: 2 }, 0, &mut tiled);
        assert_eq!(naive.reads, tiled.reads);
        assert_eq!(naive.writes, tiled.writes);
        assert_eq!(naive.writes, (steps * 7 * 7 * 6) as u64);
    }

    /// Records every access, expanding rows through the default
    /// [`AccessSink::row`].
    #[derive(Default)]
    struct Record(Vec<(bool, u64)>);

    impl AccessSink for Record {
        fn read(&mut self, a: u64) {
            self.0.push((false, a));
        }
        fn write(&mut self, a: u64) {
            self.0.push((true, a));
        }
    }

    /// Jacobi step `t` of plane `k`, access by access: per point the six
    /// source reads (W, E, N, S, D, U), then the destination write.
    fn jacobi_plane(a: &Array3<f64>, bases: [u64; 2], t: usize, k: usize, out: &mut Record) {
        let (di, ps) = (a.di(), a.plane_stride());
        let (src, dst) = (bases[t % 2], bases[(t + 1) % 2]);
        for j in 1..a.nj() - 1 {
            for i in 1..a.ni() - 1 {
                let x = i + j * di + k * ps;
                for y in [x - 1, x + 1, x - di, x + di, x - ps, x + ps] {
                    out.read(src + 8 * y as u64);
                }
                out.write(dst + 8 * x as u64);
            }
        }
    }

    /// Red-black colour pass `p` of plane `k`, access by access: per
    /// updated point the centre and six neighbour reads (C, W, N, E, S,
    /// D, U), then the centre write.
    fn redblack_plane(a: &Array3<f64>, base: u64, p: usize, k: usize, out: &mut Record) {
        let (n, di, ps) = (a.ni(), a.di(), a.plane_stride());
        for j in 1..n - 1 {
            for i in (1 + (k + j + p) % 2..n - 1).step_by(2) {
                let x = i + j * di + k * ps;
                for y in [x, x - 1, x - di, x + 1, x + di, x - ps, x + ps] {
                    out.read(base + 8 * y as u64);
                }
                out.write(base + 8 * x as u64);
            }
        }
    }

    #[test]
    fn traces_expand_to_the_per_access_order() {
        let (steps, tile) = (3, TimeTile { st: 2, sk: 3 });
        let a = Array3::<f64>::with_padding(9, 8, 7, 11, 10);
        let bases = [64u64, 8 * a.len() as u64 + 4096];
        let mut want = Record::default();
        for t in 0..steps {
            for k in 1..6 {
                jacobi_plane(&a, bases, t, k, &mut want);
            }
        }
        let mut got = Record::default();
        trace_jacobi_steps(&a, steps, bases, &mut got);
        assert_eq!(got.0, want.0, "jacobi naive");
        let mut want = Record::default();
        for_each_skewed(steps, 1, 5, tile.st, tile.sk, |t, k| {
            jacobi_plane(&a, bases, t, k, &mut want);
        });
        let mut got = Record::default();
        trace_jacobi_time_tiled(&a, steps, tile, bases, &mut got);
        assert_eq!(got.0, want.0, "jacobi time-tiled");

        let sq = Array3::<f64>::with_padding(9, 9, 7, 11, 10);
        let mut want = Record::default();
        for p in 0..2 * steps {
            for k in 1..6 {
                redblack_plane(&sq, 128, p, k, &mut want);
            }
        }
        let mut got = Record::default();
        trace_redblack_steps(&sq, steps, 128, &mut got);
        assert_eq!(got.0, want.0, "red-black naive");
        let mut want = Record::default();
        for_each_skewed(2 * steps, 1, 5, 2 * tile.st, tile.sk, |p, k| {
            redblack_plane(&sq, 128, p, k, &mut want);
        });
        let mut got = Record::default();
        trace_redblack_time_tiled(&sq, steps, tile, 128, &mut got);
        assert_eq!(got.0, want.0, "red-black time-tiled");
    }

    #[test]
    #[should_panic]
    fn zero_tile_rejected() {
        let mut b = jacobi_bufs(8, 8, 8, 1);
        jacobi_time_tiled(&mut b, 0.2, 2, TimeTile { st: 0, sk: 4 }, 1);
    }
}
