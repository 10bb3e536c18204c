//! One-command reproduction report: runs a compact version of every
//! experiment and prints a paper-vs-measured summary table.
//!
//! ```text
//! cargo run --release -p tiling3d-bench --bin report [-- --step 16]
//! ```
//!
//! Use `--step 8` (or 1) for higher-resolution sweeps; the default keeps
//! the whole report under a couple of minutes. For full per-figure data
//! use the dedicated binaries (`table3`, `fig_miss`, ...).

use tiling3d_bench::{
    driver, flag_at_least, run_miss_sweeps_supervised, SweepConfig, SweepOptions, SweepReport,
};
use tiling3d_cachesim::ThreeC;
use tiling3d_core::nonconflict::enumerate_array_tiles;
use tiling3d_core::{euc3d, gcd_pad, memory_overhead_pct, plan, CacheSpec, Transform};
use tiling3d_loopnest::{reuse, StencilShape};
use tiling3d_obs::flags::{FlagSet, FlagSpec};
use tiling3d_stencil::kernels::Kernel;

fn flag_set() -> FlagSet {
    let mut flags = vec![
        FlagSpec::usize("--step", Some("16"), "sweep stride over N = 200..400"),
        FlagSpec::usize("--jobs", Some("0"), "simulation workers (0 = one per core)"),
    ];
    flags.extend_from_slice(SweepOptions::FLAGS);
    FlagSet::new(
        "report",
        "compact paper-vs-measured summary of every experiment",
        None,
        &flags,
    )
}

fn check(name: &str, ok: bool, detail: &str) {
    println!(
        "  [{}] {:<44} {}",
        if ok { "ok" } else { "!!" },
        name,
        detail
    );
}

fn main() {
    let flags = driver::parse_or_exit(&flag_set());
    let step = driver::or_exit(flag_at_least(&flags, "--step", 1, None));
    let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
    println!("tiling3d reproduction report (sweep stride {step})\n");

    println!("exact worked examples:");
    {
        let tiles = enumerate_array_tiles(2048, 200, 200, 4);
        let t1 = [(1, 1, 2048), (1, 10, 200), (3, 15, 24), (4, 56, 8)]
            .iter()
            .all(|&(tk, tj, ti)| tiles.iter().any(|t| (t.tk, t.tj, t.ti) == (tk, tj, ti)));
        check("Table 1 spot entries", t1, "200x200xM, 16K cache");

        let sel = euc3d(cache, 200, 200, &StencilShape::jacobi3d());
        check(
            "Euc3D worked example (22,13)",
            sel.iter_tile == (22, 13),
            &format!("got {:?}", sel.iter_tile),
        );
        let sel341 = euc3d(cache, 341, 341, &StencilShape::jacobi3d());
        check(
            "Euc3D pathological 341 -> (110,4)",
            sel341.iter_tile == (110, 4),
            &format!("got {:?}", sel341.iter_tile),
        );
        let g = gcd_pad(cache, 200, 200, &StencilShape::jacobi3d());
        check(
            "GcdPad tile (32,16,4)",
            (g.array_tile.ti, g.array_tile.tj, g.array_tile.tk) == (32, 16, 4),
            &format!("pads +{}/+{}", g.di_p - 200, g.dj_p - 200),
        );
        let b = (
            reuse::max_column_extent_2d(2048, &StencilShape::jacobi2d()),
            reuse::max_plane_extent(2048, &StencilShape::jacobi3d()),
            reuse::max_plane_extent(262_144, &StencilShape::jacobi3d()),
        );
        check(
            "capacity boundaries 1024/32/362",
            b == (1024, 32, 362),
            &format!("{b:?}"),
        );
    }

    println!("\nmiss-rate sweeps (N = 200..400 step {step}, NxNx30, UltraSparc2 caches):");
    let cfg = SweepConfig {
        step,
        jobs: flags.usize("--jobs"),
        ..Default::default()
    };
    let opts = driver::or_exit(SweepOptions::from_flags(&flags));
    let mut verdict = SweepReport::default();
    for kernel in Kernel::ALL {
        let sweeps =
            run_miss_sweeps_supervised(&cfg, kernel, &Transform::ALL, &opts.for_kernel(kernel));
        let (l1, _, modeled, rep) = driver::or_exit(sweeps.map_err(|e| format!("report: {e}")));
        verdict.merge(&rep);
        let m = l1.means();
        let p = modeled.means();
        let best_padded = m[3].min(m[4]);
        let best_unpadded = m[1].min(m[2]);
        check(
            &format!(
                "{}: GcdPad/Pad beat Tile/Euc3D beat-or-match Orig",
                kernel.name()
            ),
            best_padded < best_unpadded && best_padded < m[0],
            &format!(
                "L1 {:.1}->{:.1}%, modeled perf +{:.0}%",
                m[0],
                best_padded,
                100.0 * (p[3].max(p[4]) - p[0]) / p[0]
            ),
        );
    }

    println!("\nmechanism (3C classification at pathological N = 320):");
    {
        let conflict = |t: Transform| {
            let p = plan(t, cache, 320, 320, &Kernel::Jacobi.shape());
            let mut c = ThreeC::ultrasparc2_l1();
            Kernel::Jacobi.trace(320, 16, p.padded_di, p.padded_dj, p.tile, &mut c);
            c.conflict_rate_pct()
        };
        let (orig, gcd) = (conflict(Transform::Orig), conflict(Transform::GcdPad));
        check(
            "padding eliminates conflict misses",
            orig > 20.0 && gcd < 1.0,
            &format!("conflict component {orig:.1}% -> {gcd:.2}%"),
        );
    }

    println!("\nmemory overhead (Fig 22):");
    {
        let mut gsum = 0.0;
        let mut psum = 0.0;
        let sizes: Vec<usize> = (200..=400).step_by(step).collect();
        for &n in &sizes {
            let g = plan(Transform::GcdPad, cache, n, n, &StencilShape::jacobi3d());
            let p = plan(Transform::Pad, cache, n, n, &StencilShape::jacobi3d());
            gsum += memory_overhead_pct(n, n, 30, g.padded_di, g.padded_dj);
            psum += memory_overhead_pct(n, n, 30, p.padded_di, p.padded_dj);
        }
        let (g, p) = (gsum / sizes.len() as f64, psum / sizes.len() as f64);
        check(
            "GcdPad ~14.7%, Pad ~4.7% (paper)",
            p < g && g < 25.0,
            &format!("measured GcdPad {g:.1}%, Pad {p:.1}%"),
        );
    }

    println!("\nsee EXPERIMENTS.md for the full record and the wall-clock discussion.");
    driver::finish_sweep(&verdict);
}
