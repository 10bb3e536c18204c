//! Tiling composed with thread parallelism: run the tiled Jacobi and RESID
//! sweeps across K-slabs on every core and verify the results are bitwise
//! identical to the sequential schedules.
//!
//! ```text
//! cargo run --release --example parallel_stencil [-- N NK]
//! ```

use std::time::Instant;

use tiling3d::core::{plan, CacheSpec, Transform};
use tiling3d::grid::{fill_random, Array3};
use tiling3d::loopnest::TileDims;
use tiling3d::stencil::resid::Coeffs;
use tiling3d::stencil::{jacobi3d, parallel, resid};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(256);
    let nk: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let p = plan(
        Transform::GcdPad,
        CacheSpec::ELEMENTS_16K_DOUBLES,
        n,
        n,
        &tiling3d::loopnest::StencilShape::jacobi3d(),
    );
    let tile = p.tile.map(|(ti, tj)| TileDims::new(ti, tj));
    println!("{n}x{n}x{nk} grids, {cores} core(s), tile {:?}", p.tile);

    // --- Jacobi ---
    let mut b = Array3::with_padding(n, n, nk, p.padded_di, p.padded_dj);
    fill_random(&mut b, 1);
    let mut seq = b.clone();
    jacobi3d::sweep(&mut seq, &b, 1.0 / 6.0, tile);
    for threads in [1, 2, cores.max(2)] {
        let mut par = b.clone();
        let t0 = Instant::now();
        parallel::jacobi3d_sweep(&mut par, &b, 1.0 / 6.0, tile, threads);
        let dt = t0.elapsed();
        assert!(seq.logical_eq(&par));
        println!("  jacobi  {threads:>2} thread(s): {dt:?} (bitwise == sequential)");
    }

    // --- RESID ---
    let mut u = Array3::with_padding(n, n, nk, p.padded_di, p.padded_dj);
    let mut v = u.clone();
    fill_random(&mut u, 2);
    fill_random(&mut v, 3);
    let mut seq_r = u.clone();
    resid::sweep(&mut seq_r, &u, Some(&v), &Coeffs::MGRID_A, tile);
    for threads in [1, cores.max(2)] {
        let mut par_r = u.clone();
        let t0 = Instant::now();
        parallel::resid_sweep(&mut par_r, &u, &v, &Coeffs::MGRID_A, tile, threads);
        let dt = t0.elapsed();
        assert!(seq_r.logical_eq(&par_r));
        println!("  resid   {threads:>2} thread(s): {dt:?} (bitwise == sequential)");
    }

    println!("K-slab decomposition keeps each thread's working set tile-shaped, so the");
    println!("paper's single-core cache analysis applies per thread unchanged.");
}
