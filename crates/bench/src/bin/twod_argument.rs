//! Reproduces the **Section 1 argument**: 2D stencils keep group reuse in
//! even a small L1 for any realistic column length, while 3D stencils lose
//! it as soon as two planes exceed the cache — tiling is a 3D problem.
//!
//! Prints the analytic capacity boundaries (the paper's 1024 / 32x32 /
//! 362x362 figures) and backs them with simulated read miss rates for 2D
//! and 3D Jacobi across sizes straddling each boundary.
//!
//! ```text
//! cargo run --release -p tiling3d-bench --bin twod_argument
//! ```

use std::fmt::Write as _;

use tiling3d_bench::driver;
use tiling3d_cachesim::{Cache, CacheConfig, Hierarchy};
use tiling3d_loopnest::{reuse, StencilShape};
use tiling3d_obs::flags::FlagSet;
use tiling3d_stencil::{jacobi2d, jacobi3d};

fn flag_set() -> FlagSet {
    FlagSet::new(
        "twod_argument",
        "why 2D stencils don't need tiling (Section 1)",
        None,
        &[],
    )
}

fn main() {
    let _flags = driver::parse_or_exit(&flag_set());
    let j2 = StencilShape::jacobi2d();
    let j3 = StencilShape::jacobi3d();
    let l1e = CacheConfig::ULTRASPARC2_L1.capacity_elements();
    let l2e = CacheConfig::ULTRASPARC2_L2.capacity_elements();

    let mut out = String::from("analytic capacity boundaries (paper, Section 1):\n");
    let _ = writeln!(
        out,
        "  2D Jacobi, 16K L1:  group reuse up to N = {}   (paper: 1024)",
        reuse::max_column_extent_2d(l1e, &j2)
    );
    let _ = writeln!(
        out,
        "  3D Jacobi, 16K L1:  group reuse up to N = {}     (paper: 32)",
        reuse::max_plane_extent(l1e, &j3)
    );
    let _ = writeln!(
        out,
        "  3D Jacobi,  2M L2:  group reuse up to N = {}    (paper: 362)",
        reuse::max_plane_extent(l2e, &j3)
    );

    out.push_str("\nsimulated L1 *read* miss rates, one sweep (write-around floor excluded):\n");
    out.push_str("  2D Jacobi (N x N):\n");
    for n in [300usize, 500, 900, 1000, 1024, 1300, 1800] {
        let mut l1 = Cache::new(CacheConfig::ULTRASPARC2_L1);
        jacobi2d::trace(n, n, n, &mut l1);
        let note = if n == 1024 {
            "   <- conflict pathology (column = cache size), the case padding fixes"
        } else if n > 1024 {
            "   <- capacity boundary crossed"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    N={n:>5}: {:>5.2}%{note}",
            l1.stats().read_miss_rate_pct()
        );
    }
    out.push_str("  3D Jacobi (N x N x 30):\n");
    for n in [20usize, 26, 30, 40, 60, 90, 200] {
        let mut h = Hierarchy::ultrasparc2();
        jacobi3d::trace(n, n, 30, n, n, None, &mut h);
        let note = if n > 32 {
            "   <- two planes no longer fit"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    N={n:>5}: {:>5.2}%{note}",
            h.l1_stats().read_miss_rate_pct()
        );
    }
    out.push_str(
        "\nreading: 2D rates stay flat almost to N = 1024 (bar power-of-two conflict\n\
         pathologies); 3D rates jump right after N = 32 — reuse across the K loop\n\
         dies when two planes no longer fit, which is what the paper's tiling restores.\n",
    );
    driver::write_stdout(&out);
    driver::finish();
}
