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
//! Row updates go through [`rowexec`] — the same
//! bounds-check-free kernels as the spatial engine — so every schedule
//! here is **bitwise identical** to [`mod@reference`]
//! iterated `steps` times, for any tile shape and any thread count
//! (`tests/time_tiled_golden.rs` is the gate). Red-black is scheduled at
//! *colour-pass* granularity: pass `p = 2t + colour`, so a time tile of
//! `st` full steps spans `2 * st` passes and the half-step dependences
//! (`DepKind::Flow (1, ·)` between colours, `(2, 0, 0, 0)` for the
//! centre self-dependence) are honoured by the same skew.

use tiling3d_cachesim::AccessSink;
use tiling3d_grid::Array3;

use crate::redblack;
use crate::reference;
use crate::rowexec;
use crate::timeskew::{skewed_blocks, SkewedBlock};

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

fn geom_of(a: &Array3<f64>) -> Geom {
    Geom {
        ni: a.ni(),
        nj: a.nj(),
        nk: a.nk(),
        di: a.di(),
        ps: a.plane_stride(),
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

/// Looks a source plane up in a tile's owned set, falling back to the
/// wavefront's shared read-only pool. A `None` in both places means the
/// plane is owned by *another* tile of the same wavefront — a dependence
/// the skew proves cannot exist — so this panics rather than race.
fn read_plane<'a>(
    own: &'a [(usize, &'a mut [f64])],
    shared: &'a [Option<&'a [f64]>],
    key: usize,
) -> &'a [f64] {
    if let Some((_, p)) = own.iter().find(|&&(k, _)| k == key) {
        return &p[..];
    }
    shared[key].expect("wavefront isolation violated: source plane owned by a concurrent tile")
}

/// Deals per-tile work units round-robin across `workers` groups.
fn deal<T>(work: Vec<T>, workers: usize) -> Vec<Vec<T>> {
    let mut groups: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in work.into_iter().enumerate() {
        groups[i % workers].push(item);
    }
    groups
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
    if bufs[0].ni() < 3 || bufs[0].nj() < 3 || bufs[0].nk() < 3 {
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
    let g = geom_of(&bufs[0]);
    if steps == 0 || g.ni < 3 || g.nj < 3 || g.nk < 3 {
        return;
    }
    let blocks = skewed_blocks(steps, 1, g.nk - 2, tile.st, tile.sk);
    let span = tiling3d_obs::span("timetile:jacobi");
    span.add("steps", steps as u64);
    span.add("tiles", blocks.len() as u64);
    if threads == 1 {
        for blk in &blocks {
            jacobi_block_seq(bufs, c, blk, g, span.id());
        }
    } else {
        for wave in wavefronts(&blocks) {
            run_jacobi_wave(bufs, c, &wave, g, threads, span.id());
        }
    }
    let per_step = (g.ni - 2) as u64 * (g.nj - 2) as u64 * (g.nk - 2) as u64;
    rowexec::note_sweep(per_step * steps as u64, crate::jacobi3d::FLOPS_PER_POINT);
}

/// One tile in the sequential band-major order: global indexing, the
/// ping-pong split re-borrowed per point.
fn jacobi_block_seq(bufs: &mut [Array3<f64>; 2], c: f64, blk: &SkewedBlock, g: Geom, parent: u64) {
    let span = tiling3d_obs::span_at("timeblock", parent);
    let mut points = 0u64;
    blk.for_each(1, g.nk - 2, |t, k| {
        let (src, dst) = split3(bufs, t);
        let (sv, dv) = (src.as_slice(), dst.as_mut_slice());
        let base = k * g.ps;
        for j in 1..=g.nj - 2 {
            let lo = base + j * g.di + 1;
            rowexec::jacobi3d_row(
                &mut dv[lo..lo + g.ni - 2],
                &sv[lo - 1..],
                &sv[lo + 1..],
                &sv[lo - g.di..],
                &sv[lo + g.di..],
                &sv[lo - g.ps..],
                &sv[lo + g.ps..],
                c,
            );
        }
        points += (g.ni - 2) as u64 * (g.nj - 2) as u64;
    });
    span.add("points", points);
}

/// The planes a tile owns for one wavefront, keyed `buffer * nk + k`.
type OwnedPlanes<'a> = Vec<(usize, &'a mut [f64])>;

/// One wavefront of Jacobi tiles: builds the plane-ownership map, splits
/// both buffers into per-plane slices routed to their owning tile (or
/// the shared read-only pool), then runs every tile on scoped threads.
/// `thread::scope` joins at the end — the wavefront barrier.
fn run_jacobi_wave(
    bufs: &mut [Array3<f64>; 2],
    c: f64,
    wave: &[SkewedBlock],
    g: Geom,
    threads: usize,
    parent: u64,
) {
    let span = tiling3d_obs::span_at("wavefront", parent);
    span.add("tiles", wave.len() as u64);
    let nk = g.nk;
    // Plane (buffer b, index k) has key b * nk + k; the tile that writes
    // it this wave owns it. Two same-wave tiles claiming one plane would
    // be a write-write conflict the skew has already excluded.
    let mut owner: Vec<Option<usize>> = vec![None; 2 * nk];
    for (bi, blk) in wave.iter().enumerate() {
        blk.for_each(1, nk - 2, |t, k| {
            let key = (t + 1) % 2 * nk + k;
            match owner[key] {
                None => owner[key] = Some(bi),
                Some(o) => assert_eq!(o, bi, "two tiles of one wavefront write plane {k}"),
            }
        });
    }
    let (left, right) = bufs.split_at_mut(1);
    let mut own: Vec<OwnedPlanes> = wave.iter().map(|_| Vec::new()).collect();
    let mut shared: Vec<Option<&[f64]>> = vec![None; 2 * nk];
    for (b, buf) in [&mut left[0], &mut right[0]].into_iter().enumerate() {
        for (k, plane) in buf.as_mut_slice().chunks_mut(g.ps).enumerate() {
            match owner[b * nk + k] {
                Some(bi) => own[bi].push((b * nk + k, plane)),
                None => {
                    let ro: &[f64] = plane;
                    shared[b * nk + k] = Some(ro);
                }
            }
        }
    }
    let work: Vec<(SkewedBlock, OwnedPlanes)> = wave.iter().copied().zip(own).collect();
    let workers = threads.min(work.len()).max(1);
    if workers == 1 {
        for (blk, mut planes) in work {
            run_jacobi_block(&blk, &mut planes, &shared, g, c, span.id());
        }
        return;
    }
    let shared_ref = &shared;
    let wid = span.id();
    std::thread::scope(|scope| {
        for group in deal(work, workers) {
            scope.spawn(move || {
                for (blk, mut planes) in group {
                    run_jacobi_block(&blk, &mut planes, shared_ref, g, c, wid);
                }
            });
        }
    });
}

/// One Jacobi tile against its owned planes: plane-local indexing, the
/// destination plane temporarily pulled out of the owned set so the
/// source planes can be read around it.
fn run_jacobi_block(
    blk: &SkewedBlock,
    own: &mut Vec<(usize, &mut [f64])>,
    shared: &[Option<&[f64]>],
    g: Geom,
    c: f64,
    parent: u64,
) {
    let span = tiling3d_obs::span_at("timeblock", parent);
    let mut points = 0u64;
    let nk = g.nk;
    blk.for_each(1, nk - 2, |t, k| {
        let (sb, db) = (t % 2, (t + 1) % 2);
        let pos = own
            .iter()
            .position(|&(key, _)| key == db * nk + k)
            .expect("wavefront isolation violated: destination plane not owned by its tile");
        let (key, dst) = own.swap_remove(pos);
        {
            let d = read_plane(own, shared, sb * nk + k - 1);
            let ctr = read_plane(own, shared, sb * nk + k);
            let u = read_plane(own, shared, sb * nk + k + 1);
            for j in 1..=g.nj - 2 {
                let lo = j * g.di + 1;
                rowexec::jacobi3d_row(
                    &mut dst[lo..lo + g.ni - 2],
                    &ctr[lo - 1..],
                    &ctr[lo + 1..],
                    &ctr[lo - g.di..],
                    &ctr[lo + g.di..],
                    &d[lo..],
                    &u[lo..],
                    c,
                );
            }
        }
        own.push((key, dst));
        points += (g.ni - 2) as u64 * (g.nj - 2) as u64;
    });
    span.add("points", points);
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
    if a.ni() < 3 || a.nj() < 3 || a.nk() < 3 {
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
    let g = geom_of(a);
    if steps == 0 || g.ni < 3 || g.nj < 3 || g.nk < 3 {
        return;
    }
    let blocks = skewed_blocks(2 * steps, 1, g.nk - 2, 2 * tile.st, tile.sk);
    let span = tiling3d_obs::span("timetile:redblack");
    span.add("steps", steps as u64);
    span.add("tiles", blocks.len() as u64);
    if threads == 1 {
        for blk in &blocks {
            redblack_block_seq(a, c1, c2, blk, g, span.id());
        }
    } else {
        for wave in wavefronts(&blocks) {
            run_redblack_wave(a, c1, c2, &wave, g, threads, span.id());
        }
    }
    let per_step = (g.ni - 2) as u64 * (g.nj - 2) as u64 * (g.nk - 2) as u64;
    rowexec::note_sweep(per_step * steps as u64, redblack::FLOPS_PER_POINT);
}

/// Updates one colour pass of one plane through the stride-2 row
/// kernels. `av` is the plane slice (`base` 0) or the whole array
/// (`base = k * ps`); `d`/`u` are the neighbouring source planes at the
/// same offsets.
#[allow(clippy::too_many_arguments)]
fn redblack_plane_pass(
    av: &mut [f64],
    d: &[f64],
    u: &[f64],
    scratch: &mut [f64],
    g: Geom,
    base: usize,
    k: usize,
    color: usize,
    c1: f64,
    c2: f64,
) -> u64 {
    let mut points = 0u64;
    for j in 1..=g.nj - 2 {
        let i0 = 1 + (k + j + color) % 2;
        if i0 > g.ni - 2 {
            continue;
        }
        let m = (g.ni - 2 - i0) / 2 + 1;
        let lo = base + j * g.di + i0;
        rowexec::redblack_row(
            &mut scratch[..m],
            &av[lo..],
            &av[lo - 1..],
            &av[lo - g.di..],
            &av[lo + 1..],
            &av[lo + g.di..],
            &d[lo..],
            &u[lo..],
            c1,
            c2,
        );
        rowexec::scatter_stride2(&mut av[lo..], &scratch[..m]);
        points += m as u64;
    }
    points
}

/// One red-black tile in the sequential band-major order (global
/// indexing, in place).
fn redblack_block_seq(
    a: &mut Array3<f64>,
    c1: f64,
    c2: f64,
    blk: &SkewedBlock,
    g: Geom,
    parent: u64,
) {
    let span = tiling3d_obs::span_at("timeblock", parent);
    let mut points = 0u64;
    let mut scratch = vec![0.0; g.ni / 2 + 1];
    let av = a.as_mut_slice();
    blk.for_each(1, g.nk - 2, |p, k| {
        // Split the in-place array around plane k so its down/up
        // neighbours can be read while the plane is written; all three
        // use the same plane-local offsets.
        let base = k * g.ps;
        let (head, tail) = av.split_at_mut(base);
        let (plane, up) = tail.split_at_mut(g.ps);
        let down = &head[base - g.ps..];
        points += redblack_plane_pass(plane, down, up, &mut scratch, g, 0, k, p % 2, c1, c2);
    });
    span.add("points", points);
}

/// One wavefront of red-black tiles: plane ownership over the single
/// in-place array, scoped threads, barrier at scope exit.
fn run_redblack_wave(
    a: &mut Array3<f64>,
    c1: f64,
    c2: f64,
    wave: &[SkewedBlock],
    g: Geom,
    threads: usize,
    parent: u64,
) {
    let span = tiling3d_obs::span_at("wavefront", parent);
    span.add("tiles", wave.len() as u64);
    let nk = g.nk;
    let mut owner: Vec<Option<usize>> = vec![None; nk];
    for (bi, blk) in wave.iter().enumerate() {
        blk.for_each(1, nk - 2, |_p, k| match owner[k] {
            None => owner[k] = Some(bi),
            Some(o) => assert_eq!(o, bi, "two tiles of one wavefront write plane {k}"),
        });
    }
    let mut own: Vec<OwnedPlanes> = wave.iter().map(|_| Vec::new()).collect();
    let mut shared: Vec<Option<&[f64]>> = vec![None; nk];
    for (k, plane) in a.as_mut_slice().chunks_mut(g.ps).enumerate() {
        match owner[k] {
            Some(bi) => own[bi].push((k, plane)),
            None => {
                let ro: &[f64] = plane;
                shared[k] = Some(ro);
            }
        }
    }
    let work: Vec<(SkewedBlock, OwnedPlanes)> = wave.iter().copied().zip(own).collect();
    let workers = threads.min(work.len()).max(1);
    if workers == 1 {
        for (blk, mut planes) in work {
            run_redblack_block(&blk, &mut planes, &shared, g, c1, c2, span.id());
        }
        return;
    }
    let shared_ref = &shared;
    let wid = span.id();
    std::thread::scope(|scope| {
        for group in deal(work, workers) {
            scope.spawn(move || {
                for (blk, mut planes) in group {
                    run_redblack_block(&blk, &mut planes, shared_ref, g, c1, c2, wid);
                }
            });
        }
    });
}

/// One red-black tile against its owned planes (plane-local indexing).
fn run_redblack_block(
    blk: &SkewedBlock,
    own: &mut Vec<(usize, &mut [f64])>,
    shared: &[Option<&[f64]>],
    g: Geom,
    c1: f64,
    c2: f64,
    parent: u64,
) {
    let span = tiling3d_obs::span_at("timeblock", parent);
    let mut points = 0u64;
    let mut scratch = vec![0.0; g.ni / 2 + 1];
    blk.for_each(1, g.nk - 2, |p, k| {
        let pos = own
            .iter()
            .position(|&(key, _)| key == k)
            .expect("wavefront isolation violated: destination plane not owned by its tile");
        let (key, plane) = own.swap_remove(pos);
        {
            let d = read_plane(own, shared, k - 1);
            let u = read_plane(own, shared, k + 1);
            points += redblack_plane_pass(plane, d, u, &mut scratch, g, 0, k, p % 2, c1, c2);
        }
        own.push((key, plane));
    });
    span.add("points", points);
}

// ---------------------------------------------------------------------------
// Address traces — the cachesim forms of the same schedules
// ---------------------------------------------------------------------------

fn pick(bases: [u64; 2], t: usize) -> (u64, u64) {
    if t.is_multiple_of(2) {
        (bases[0], bases[1])
    } else {
        (bases[1], bases[0])
    }
}

/// Per-point Jacobi accesses for one `(j, k)` row: six neighbour reads
/// from `src`, one write to `dst` — operand order of
/// [`rowexec::jacobi3d_row`].
fn trace_jacobi_row<S: AccessSink>(g: Geom, src: u64, dst: u64, j: usize, k: usize, sink: &mut S) {
    let (dii, psi) = (g.di as i64, g.ps as i64);
    for i in 1..=g.ni - 2 {
        let idx = (i + j * g.di + k * g.ps) as i64;
        let at = |base: u64, off: i64| base.wrapping_add(((idx + off) * 8) as u64);
        sink.read(at(src, -1));
        sink.read(at(src, 1));
        sink.read(at(src, -dii));
        sink.read(at(src, dii));
        sink.read(at(src, -psi));
        sink.read(at(src, psi));
        sink.write(at(dst, 0));
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
    let g = geom_of(g_arr);
    if g.ni < 3 || g.nj < 3 || g.nk < 3 {
        return;
    }
    for t in 0..steps {
        let (src, dst) = pick(bases, t);
        for k in 1..=g.nk - 2 {
            for j in 1..=g.nj - 2 {
                trace_jacobi_row(g, src, dst, j, k, sink);
            }
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
    let g = geom_of(g_arr);
    if steps == 0 || g.ni < 3 || g.nj < 3 || g.nk < 3 {
        return;
    }
    crate::timeskew::for_each_skewed(steps, 1, g.nk - 2, tile.st, tile.sk, |t, k| {
        let (src, dst) = pick(bases, t);
        for j in 1..=g.nj - 2 {
            trace_jacobi_row(g, src, dst, j, k, sink);
        }
    });
}

/// Per-point red-black accesses for one colour pass of one `(j, k)` row
/// (stride-2): centre + six neighbour reads, one write, in
/// [`rowexec::redblack_row`] operand order.
fn trace_redblack_row<S: AccessSink>(
    g: Geom,
    base: u64,
    j: usize,
    k: usize,
    color: usize,
    sink: &mut S,
) {
    let (dii, psi) = (g.di as i64, g.ps as i64);
    let i0 = 1 + (k + j + color) % 2;
    if i0 > g.ni - 2 {
        return;
    }
    let mut i = i0;
    while i <= g.ni - 2 {
        let idx = (i + j * g.di + k * g.ps) as i64;
        let at = |off: i64| base.wrapping_add(((idx + off) * 8) as u64);
        sink.read(at(0));
        sink.read(at(-1));
        sink.read(at(-dii));
        sink.read(at(1));
        sink.read(at(dii));
        sink.read(at(-psi));
        sink.read(at(psi));
        sink.write(at(0));
        i += 2;
    }
}

/// Trace of `steps` naive red-black iterations (red pass over the whole
/// grid, then black) at byte base `base`.
pub fn trace_redblack_steps<S: AccessSink>(
    g_arr: &Array3<f64>,
    steps: usize,
    base: u64,
    sink: &mut S,
) {
    let g = geom_of(g_arr);
    if g.ni < 3 || g.nj < 3 || g.nk < 3 {
        return;
    }
    for _ in 0..steps {
        for color in 0..2 {
            for k in 1..=g.nk - 2 {
                for j in 1..=g.nj - 2 {
                    trace_redblack_row(g, base, j, k, color, sink);
                }
            }
        }
    }
}

/// Trace of the time-skewed red-black schedule at colour-pass
/// granularity (sequential band-major order).
pub fn trace_redblack_time_tiled<S: AccessSink>(
    g_arr: &Array3<f64>,
    steps: usize,
    tile: TimeTile,
    base: u64,
    sink: &mut S,
) {
    let g = geom_of(g_arr);
    if steps == 0 || g.ni < 3 || g.nj < 3 || g.nk < 3 {
        return;
    }
    crate::timeskew::for_each_skewed(2 * steps, 1, g.nk - 2, 2 * tile.st, tile.sk, |p, k| {
        for j in 1..=g.nj - 2 {
            trace_redblack_row(g, base, j, k, p % 2, sink);
        }
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

    #[test]
    #[should_panic]
    fn zero_tile_rejected() {
        let mut b = jacobi_bufs(8, 8, 8, 1);
        jacobi_time_tiled(&mut b, 0.2, 2, TimeTile { st: 0, sk: 4 }, 1);
    }
}
