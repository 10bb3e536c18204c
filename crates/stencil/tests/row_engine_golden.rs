//! Golden gate for the row-segment execution engine: every production
//! sweep must be **bitwise identical** to its per-point reference
//! ([`tiling3d_stencil::reference`]) across odd shapes, paddings,
//! degenerate tiles and thread counts.
//!
//! The property matrix is seeded and exhaustive over small sizes:
//! `n in 3..=20`, pads `di/dj in {n, n+1, n+5}`, tiles including
//! `TI >= NI` and `TJ = 1`, threads `{1, 2, 7}`. The red-black gates run
//! a second, signed fill with exact `±0.0` points and `-0.0` bands. The
//! planner-facing gate adds the exact padded geometry and tile
//! `core::plan` picks for every kernel and transform, and replays each
//! such tile's visit order through `crosscheck`.

use tiling3d_core::{plan, CacheSpec, Transform};
use tiling3d_grid::{fill_random, fill_random2, Array2, Array3, Xorshift64};
use tiling3d_loopnest::TileDims;
use tiling3d_stencil::kernels::{Kernel, KernelState};
use tiling3d_stencil::redblack::Schedule;
use tiling3d_stencil::redblack2d::Schedule2D;
use tiling3d_stencil::resid::Coeffs;
use tiling3d_stencil::{
    copyopt, crosscheck, jacobi2d, jacobi3d, parallel, redblack, redblack2d, resid,
};
use tiling3d_stencil::{reference, timestep};

/// Deterministic seed per configuration, so failures reproduce exactly.
fn seed(n: usize, di: usize, dj: usize) -> u64 {
    0x9E37_79B9_7F4A_7C15u64 ^ ((n as u64) << 32) ^ ((di as u64) << 16) ^ dj as u64
}

/// The shape matrix: every `n in 3..=20` with square, slightly padded and
/// heavily padded allocations (both orientations).
fn shapes() -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for n in 3..=20usize {
        for (di, dj) in [(n, n), (n + 1, n + 5), (n + 5, n + 1)] {
            out.push((n, di, dj));
        }
    }
    out
}

/// Tiles covering the degenerate corners: `TI >= NI`, `TJ = 1`, tiny.
const TILES: [(usize, usize); 3] = [(64, 64), (1, 1), (3, 2)];

/// A signed fill in `[-1, 1)` for the red-black gates: rows `j ≡ 2, 3,
/// 4 (mod 8)` hold exact `-0.0` and every seventh other point an exact
/// `+0.0`. A red point inside such a band keeps `-0.0` through its own
/// update, and during the other colour's pass its computed value turns
/// positive once a band-edge neighbour has picked up a nonzero value
/// from outside the band. A row that blends the kept colour
/// arithmetically (`0.0 * v + (-0.0)`) then stores `+0.0` there, which
/// no fill in `[0, 1)` can show.
fn signed_value(rng: &mut Xorshift64, i: usize, j: usize, k: usize) -> f64 {
    let v = 2.0 * rng.next_f64() - 1.0;
    if (2..=4).contains(&(j % 8)) {
        -0.0
    } else if (i + j + k).is_multiple_of(7) {
        0.0
    } else {
        v
    }
}

/// The red-black gates' two initial fills of a 3D grid: uniform in
/// `[0, 1)`, and [`signed_value`]'s.
fn redblack_fills(n: usize, di: usize, dj: usize) -> [Array3<f64>; 2] {
    let mut uniform = Array3::with_padding(n, n, n, di, dj);
    fill_random(&mut uniform, seed(n, di, dj));
    let mut signed = Array3::with_padding(n, n, n, di, dj);
    let mut rng = Xorshift64::new(seed(n, di, dj) ^ 0x5167);
    signed.fill_with(|i, j, k| signed_value(&mut rng, i, j, k));
    [uniform, signed]
}

#[test]
fn jacobi3d_engine_matches_reference_bitwise() {
    for (n, di, dj) in shapes() {
        let mut b = Array3::with_padding(n, n, n, di, dj);
        fill_random(&mut b, seed(n, di, dj));
        let mut want = Array3::with_padding(n, n, n, di, dj);
        reference::jacobi3d(&mut want, &b, 1.0 / 6.0, None);
        let mut got = Array3::with_padding(n, n, n, di, dj);
        jacobi3d::sweep(&mut got, &b, 1.0 / 6.0, None);
        assert!(want.logical_eq(&got), "untiled n={n} di={di} dj={dj}");
        for (ti, tj) in TILES {
            let t = TileDims::new(ti, tj);
            let mut want = Array3::with_padding(n, n, n, di, dj);
            reference::jacobi3d(&mut want, &b, 1.0 / 6.0, Some(t));
            let mut got = Array3::with_padding(n, n, n, di, dj);
            jacobi3d::sweep(&mut got, &b, 1.0 / 6.0, Some(t));
            assert!(
                want.logical_eq(&got),
                "tiled ({ti},{tj}) n={n} di={di} dj={dj}"
            );
        }
    }
}

#[test]
fn jacobi2d_engine_matches_reference_bitwise() {
    for n in 3..=20usize {
        for di in [n, n + 1, n + 5] {
            let mut b = Array2::with_padding(n, n, di);
            fill_random2(&mut b, seed(n, di, 0));
            let mut want = Array2::with_padding(n, n, di);
            reference::jacobi2d(&mut want, &b, 0.25);
            let mut got = Array2::with_padding(n, n, di);
            jacobi2d::sweep(&mut got, &b, 0.25);
            assert!(want.logical_eq(&got), "n={n} di={di}");
        }
    }
}

#[test]
fn redblack_engine_matches_reference_bitwise() {
    for (n, di, dj) in shapes() {
        for (f, init) in redblack_fills(n, di, dj).iter().enumerate() {
            let mut schedules = vec![Schedule::Naive, Schedule::Fused];
            schedules.extend(TILES.map(|(ti, tj)| Schedule::Tiled(TileDims::new(ti, tj))));
            for sched in schedules {
                let mut want = init.clone();
                reference::redblack(&mut want, 0.4, 0.1, sched);
                let mut got = init.clone();
                redblack::sweep(&mut got, 0.4, 0.1, sched);
                assert!(
                    want.logical_eq(&got),
                    "{sched:?} fill {f} n={n} di={di} dj={dj}"
                );
            }
        }
    }
}

#[test]
fn redblack2d_engine_matches_reference_bitwise() {
    for n in 3..=20usize {
        for di in [n, n + 1, n + 5] {
            let mut uniform = Array2::with_padding(n, n, di);
            fill_random2(&mut uniform, seed(n, di, 1));
            let mut signed = Array2::with_padding(n, n, di);
            let mut rng = Xorshift64::new(seed(n, di, 1) ^ 0x5167);
            signed.fill_with(|i, j| signed_value(&mut rng, i, j, 0));
            for (f, init) in [uniform, signed].iter().enumerate() {
                for sched in [Schedule2D::Naive, Schedule2D::Fused] {
                    let mut want = init.clone();
                    reference::redblack2d(&mut want, 0.4, 0.1, sched);
                    let mut got = init.clone();
                    redblack2d::sweep(&mut got, 0.4, 0.1, sched);
                    assert!(want.logical_eq(&got), "{sched:?} fill {f} n={n} di={di}");
                }
            }
        }
    }
}

#[test]
fn resid_engine_matches_reference_bitwise() {
    for (n, di, dj) in shapes() {
        let mut u = Array3::with_padding(n, n, n, di, dj);
        let mut v = Array3::with_padding(n, n, n, di, dj);
        fill_random(&mut u, seed(n, di, dj));
        fill_random(&mut v, seed(n, di, dj) ^ 0xABCD);
        for tile in [None, Some(TileDims::new(64, 1)), Some(TileDims::new(3, 2))] {
            let mut want = Array3::with_padding(n, n, n, di, dj);
            reference::resid(&mut want, &u, &v, &Coeffs::MGRID_A, tile);
            let mut got = Array3::with_padding(n, n, n, di, dj);
            resid::sweep(&mut got, &u, Some(&v), &Coeffs::MGRID_A, tile);
            assert!(want.logical_eq(&got), "{tile:?} n={n} di={di} dj={dj}");
        }
    }
}

#[test]
fn parallel_sweeps_match_reference_for_every_thread_count() {
    // Coarser shape sample (threads x shapes would explode), all kernels.
    for (n, di, dj) in [(5usize, 5usize, 5usize), (12, 13, 17), (20, 25, 21)] {
        let mut b = Array3::with_padding(n, n, n, di, dj);
        fill_random(&mut b, seed(n, di, dj));
        let mut v = b.clone();
        fill_random(&mut v, seed(n, di, dj) ^ 0xF00D);

        let mut jac_want = Array3::with_padding(n, n, n, di, dj);
        reference::jacobi3d(&mut jac_want, &b, 1.0 / 6.0, None);
        let rb_init = redblack_fills(n, di, dj);
        let rb_want = rb_init.clone().map(|mut a| {
            reference::redblack(&mut a, 0.4, 0.1, Schedule::Naive);
            a
        });
        let mut res_want = Array3::with_padding(n, n, n, di, dj);
        reference::resid(&mut res_want, &b, &v, &Coeffs::MGRID_A, None);

        for threads in [1usize, 2, 7] {
            for tile in [None, Some(TileDims::new(64, 1)), Some(TileDims::new(3, 2))] {
                let mut jac = Array3::with_padding(n, n, n, di, dj);
                parallel::jacobi3d_sweep(&mut jac, &b, 1.0 / 6.0, tile, threads);
                assert!(
                    jac_want.logical_eq(&jac),
                    "jacobi threads={threads} tile={tile:?} n={n}"
                );
                for (f, (init, want)) in rb_init.iter().zip(&rb_want).enumerate() {
                    let mut rb = init.clone();
                    parallel::redblack_sweep(&mut rb, 0.4, 0.1, tile, threads);
                    assert!(
                        want.logical_eq(&rb),
                        "redblack fill {f} threads={threads} tile={tile:?} n={n}"
                    );
                }
                let mut res = Array3::with_padding(n, n, n, di, dj);
                parallel::resid_sweep(&mut res, &b, &v, &Coeffs::MGRID_A, tile, threads);
                assert!(
                    res_want.logical_eq(&res),
                    "resid threads={threads} tile={tile:?} n={n}"
                );
            }
        }
    }
}

#[test]
fn timestep_and_copyopt_match_reference() {
    for (n, di, dj) in [(8usize, 8usize, 8usize), (13, 14, 18)] {
        let mut b = Array3::with_padding(n, n, n, di, dj);
        fill_random(&mut b, seed(n, di, dj));

        // copy_back: row-segment memcpy vs per-point reference.
        let mut b1 = Array3::with_padding(n, n, n, di, dj);
        let mut b2 = Array3::with_padding(n, n, n, di, dj);
        timestep::copy_back(&mut b1, &b);
        reference::copy_back(&mut b2, &b);
        assert!(b1.logical_eq(&b2), "copy_back n={n}");

        // Tile-copying schedule vs the per-point reference sweep.
        for (ti, tj) in TILES {
            let mut want = Array3::with_padding(n, n, n, di, dj);
            reference::jacobi3d(&mut want, &b, 1.0 / 6.0, None);
            let mut got = Array3::with_padding(n, n, n, di, dj);
            copyopt::sweep_tiled_copying(&mut got, &b, 1.0 / 6.0, TileDims::new(ti, tj));
            assert!(want.logical_eq(&got), "copyopt ({ti},{tj}) n={n}");
        }
    }
}

#[test]
fn degenerate_grids_no_op_everywhere() {
    // nk < 3 leaves no interior: the parallel sweeps must not touch the
    // output or panic (regression for the k_chunks underflow; sequential
    // sweeps keep their documented `IterSpace::interior` contract).
    for nk in [1usize, 2] {
        let mut b = Array3::new(6, 6, nk);
        fill_random(&mut b, 11);
        let mut a = Array3::new(6, 6, nk);
        parallel::jacobi3d_sweep(&mut a, &b, 0.5, None, 4);
        assert!(a.logical_eq(&Array3::new(6, 6, nk)));
        let mut rb = b.clone();
        parallel::redblack_sweep(&mut rb, 0.4, 0.1, None, 7);
        assert!(rb.logical_eq(&b));
        let mut r = Array3::new(6, 6, nk);
        parallel::resid_sweep(&mut r, &b, &b, &Coeffs::MGRID_A, None, 4);
        assert!(r.logical_eq(&Array3::new(6, 6, nk)));
    }
}

/// One per-point reference sweep on dispatch-level kernel state.
fn run_reference(kernel: Kernel, state: &mut KernelState, tile: Option<(usize, usize)>) {
    let t = tile.map(|(ti, tj)| TileDims::new(ti, tj));
    match (kernel, state) {
        (Kernel::Jacobi, KernelState::Jacobi { a, b }) => {
            reference::jacobi3d(a, b, 1.0 / 6.0, t);
        }
        (Kernel::RedBlack, KernelState::RedBlack { a }) => {
            let sched = t.map_or(Schedule::Naive, Schedule::Tiled);
            reference::redblack(a, 0.4, 0.1, sched);
        }
        (Kernel::Resid, KernelState::Resid { r, u, v }) => {
            reference::resid(r, u, v, &Coeffs::MGRID_A, t);
        }
        _ => panic!("kernel/state mismatch"),
    }
}

/// The planner-facing gate: for every kernel x transform x size, the
/// plan's exact padded geometry and tile run bitwise identically through
/// `Kernel::run` and the per-point reference, and the tile's visit order
/// passes the dynamic legality cross-check ([`crosscheck`]). `n = 34` and
/// `n = 37` add interior rows past the small-size matrix.
#[test]
fn kernel_run_matches_reference_across_transform_plans() {
    let cache = CacheSpec::from_bytes(16 * 1024);
    let sizes: Vec<usize> = (3..=20).chain([34, 37]).collect();
    for kernel in Kernel::ALL {
        for t in [
            Transform::Orig,
            Transform::Tile,
            Transform::Pad,
            Transform::GcdPad,
        ] {
            for &n in &sizes {
                let p = plan(t, cache, n, n, &kernel.shape());
                crosscheck::check_schedule(kernel, n, n, p.tile).unwrap_or_else(|e| {
                    panic!(
                        "{}/{} n={n} tile={:?}: {e}",
                        kernel.name(),
                        t.name(),
                        p.tile
                    )
                });
                let mut got = kernel.make_state(n, n, &p, seed(n, p.padded_di, p.padded_dj));
                let mut want = got.clone();
                kernel.run(&mut got, p.tile);
                run_reference(kernel, &mut want, p.tile);
                assert!(
                    got.output().logical_eq(want.output()),
                    "{}/{} n={n} tile={:?}",
                    kernel.name(),
                    t.name(),
                    p.tile
                );
            }
        }
    }
}

/// `Kernel::run_parallel` at the GcdPad plan reproduces the sequential
/// `Kernel::run` bit for bit for every thread count.
#[test]
fn kernel_run_parallel_matches_run_for_every_thread_count() {
    let cache = CacheSpec::from_bytes(16 * 1024);
    for kernel in Kernel::ALL {
        for n in [5usize, 12, 20, 37] {
            let p = plan(Transform::GcdPad, cache, n, n, &kernel.shape());
            let mut want = kernel.make_state(n, n, &p, seed(n, 1, 2));
            kernel.run(&mut want, p.tile);
            for threads in [1usize, 2, 7] {
                let mut got = kernel.make_state(n, n, &p, seed(n, 1, 2));
                kernel.run_parallel(&mut got, p.tile, threads);
                assert!(
                    got.output().logical_eq(want.output()),
                    "{} n={n} threads={threads}",
                    kernel.name()
                );
            }
        }
    }
}
