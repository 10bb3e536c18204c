//! Quickstart: plan a tiling + padding transformation for a 3D stencil and
//! verify (a) the result is identical and (b) simulated cache misses drop.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tiling3d::cachesim::Hierarchy;
use tiling3d::core::{plan, CacheSpec, Transform};
use tiling3d::grid::{fill_random, Array3};
use tiling3d::loopnest::TileDims;
use tiling3d::stencil::jacobi3d;

fn main() {
    // Problem: 3D Jacobi on a 300 x 300 x 30 grid — large enough that two
    // array planes (300^2 x 2 doubles = 1.4 MB) overwhelm a 16KB L1, so
    // reuse across the outer K loop is lost without tiling.
    let (n, nk) = (300usize, 30usize);
    let shape = tiling3d::loopnest::StencilShape::jacobi3d();

    // 1. Ask the paper's `Pad` algorithm for a plan against a 16KB
    //    direct-mapped L1 (2048 doubles).
    let p = plan(
        Transform::Pad,
        CacheSpec::ELEMENTS_16K_DOUBLES,
        n,
        n,
        &shape,
    );
    let (ti, tj) = p.tile.expect("Pad always tiles");
    println!(
        "plan: tile ({ti}, {tj}), array dims {}x{} (padded from {n}x{n})",
        p.padded_di, p.padded_dj
    );

    // 2. Run the kernel both ways on identical data.
    let mut b = Array3::with_padding(n, n, nk, p.padded_di, p.padded_dj);
    fill_random(&mut b, 42);
    let mut a_orig = b.clone();
    let mut a_tiled = b.clone();
    jacobi3d::sweep(&mut a_orig, &b, 1.0 / 6.0, None);
    jacobi3d::sweep(&mut a_tiled, &b, 1.0 / 6.0, Some(TileDims::new(ti, tj)));
    assert!(a_orig.logical_eq(&a_tiled));
    println!("tiled and original sweeps agree bitwise");

    // 3. Compare simulated miss rates on the paper's UltraSparc2 caches.
    let mut h_orig = Hierarchy::ultrasparc2();
    jacobi3d::trace(n, n, nk, n, n, None, &mut h_orig);
    let mut h_tiled = Hierarchy::ultrasparc2();
    jacobi3d::trace(
        n,
        n,
        nk,
        p.padded_di,
        p.padded_dj,
        Some(TileDims::new(ti, tj)),
        &mut h_tiled,
    );
    println!(
        "L1 miss rate: {:.1}% original  ->  {:.1}% tiled+padded",
        h_orig.l1_miss_rate_pct(),
        h_tiled.l1_miss_rate_pct()
    );
    assert!(h_tiled.l1_miss_rate_pct() < h_orig.l1_miss_rate_pct());
}
