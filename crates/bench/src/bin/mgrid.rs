//! Reproduces the **Section 4.6 MGRID experiment**: total-execution-time
//! improvement from transforming RESID (and optionally PSINV) with GcdPad
//! on the largest grid only.
//!
//! The paper: "By transforming RESID using GcdPad for only the largest
//! grid size we obtain a total execution time improvement of 6% for the
//! reference data size (130x130x130)." `--levels 7` gives a `128^3`
//! finest grid stored in `130^3` arrays — the same reference size.
//!
//! ```text
//! cargo run --release -p tiling3d-bench --bin mgrid [-- --levels 7 --iters 4 --jobs N]
//! ```
//!
//! The timed V-cycles always run sequentially (they are the measurement);
//! `--jobs` shards only the closing cache simulations.

use tiling3d_bench::{driver, flag_at_least, SimPool, SupervisePolicy};
use tiling3d_core::{gcd_pad, CacheSpec};
use tiling3d_loopnest::{StencilShape, TileDims};
use tiling3d_multigrid::{MgConfig, MgSolver};
use tiling3d_obs::flags::{FlagSet, FlagSpec};

fn flag_set() -> FlagSet {
    FlagSet::new(
        "mgrid",
        "MGRID whole-application experiment (Section 4.6)",
        None,
        &[
            FlagSpec::usize("--levels", Some("7"), "multigrid levels (7 = 128^3 finest)"),
            FlagSpec::usize("--iters", Some("4"), "timed V-cycles"),
            FlagSpec::switch("--tile-psinv", "also tile PSINV at the finest level"),
            FlagSpec::usize("--jobs", Some("0"), "simulation workers (0 = one per core)"),
            FlagSpec::switch(
                "--health",
                "run NaN/divergence sentinels after every V-cycle",
            ),
        ],
    )
}

fn run(cfg: MgConfig, iters: usize, label: &str) -> (f64, MgSolver) {
    let mut s = MgSolver::new(cfg);
    let m = s.finest_m() as f64;
    s.set_rhs(|i, j, k| {
        // Smooth + rough mix, deterministic.
        let (x, y, z) = (i as f64 / m, j as f64 / m, k as f64 / m);
        (6.5 * x).sin() * (13.0 * y).cos() + 0.3 * (18.8 * z).sin()
    });
    let t0 = std::time::Instant::now();
    s.solve(iters);
    let dt = t0.elapsed().as_secs_f64();
    if let Err(e) = s.health() {
        eprintln!("mgrid: {label} run is numerically unhealthy: {e}");
        std::process::exit(1);
    }
    let resid_pct = 100.0 * s.stats.resid_fraction();
    println!(
        "  {label:<22} total {dt:>7.3}s   resid {:>6.3}s ({resid_pct:.0}% of routine time)   psinv {:>6.3}s   rprj3 {:>6.3}s   interp {:>6.3}s",
        s.stats.resid.as_secs_f64(),
        s.stats.psinv.as_secs_f64(),
        s.stats.rprj3.as_secs_f64(),
        s.stats.interp.as_secs_f64(),
    );
    (dt, s)
}

fn main() {
    let flags = driver::parse_or_exit(&flag_set());
    let levels = driver::or_exit(flag_at_least(&flags, "--levels", 2, None));
    let iters = flags.usize("--iters");
    let tile_psinv = flags.switch("--tile-psinv");
    let health = flags.switch("--health");
    let pool = SimPool::new(flags.usize("--jobs"));

    let m = 1usize << levels;
    println!(
        "Section 4.6: MGRID whole-application experiment, finest grid {0}^3 (arrays {1}x{1}x{1}), {iters} V-cycles",
        m,
        m + 2
    );

    // GcdPad plan for the finest-level arrays against the 16K L1.
    let shape = StencilShape::resid27();
    let g = gcd_pad(CacheSpec::ELEMENTS_16K_DOUBLES, m + 2, m + 2, &shape);
    println!(
        "GcdPad plan for the largest grid: tile ({}, {}), padded dims {}x{} (orig {}x{})",
        g.iter_tile.0,
        g.iter_tile.1,
        g.di_p,
        g.dj_p,
        m + 2,
        m + 2,
    );
    if tile_psinv {
        println!("(also tiling PSINV at the finest level — the paper's suggested extension)");
    }

    let base = MgConfig {
        health,
        ..MgConfig::mgrid(levels)
    };
    let (t_orig, mut s_orig) = run(base, iters, "Orig");
    let tile = TileDims::new(g.iter_tile.0, g.iter_tile.1);
    let tiled_cfg = MgConfig {
        pad_finest: Some((g.di_p, g.dj_p)),
        tile_finest: Some(tile),
        tile_psinv_finest: if tile_psinv { Some(tile) } else { None },
        ..base
    };
    let label = if tile_psinv {
        "GcdPad(resid+psinv)"
    } else {
        "GcdPad(resid)"
    };
    let (t_tiled, mut s_tiled) = run(tiled_cfg, iters, label);

    let n_orig = s_orig.residual_norm();
    let n_tiled = s_tiled.residual_norm();
    let same = n_orig.to_bits() == n_tiled.to_bits();
    println!(
        "\nresidual norms {}: orig {n_orig:.6e} ({:#018x}) vs transformed {n_tiled:.6e} ({:#018x})",
        if same { "agree bitwise" } else { "DIFFER" },
        n_orig.to_bits(),
        n_tiled.to_bits(),
    );
    if !same {
        eprintln!("mgrid: the transformed run's final residual norm differs from Orig's");
        std::process::exit(1);
    }
    println!(
        "total-time improvement: {:.1}%   (paper reference: ~6% on the 360MHz UltraSparc2)",
        100.0 * (t_orig - t_tiled) / t_orig
    );

    // Simulation-side view of the same transformation: the RESID kernel at
    // the reference grid size on the paper's cache geometry. The paper
    // notes this size "initially encounters a modest L1 miss rate of only
    // 6.8%", which bounds the whole-application gain.
    use tiling3d_cachesim::Hierarchy;
    use tiling3d_stencil::kernels::Kernel;
    let nk = (m + 2).min(66); // cap trace depth to keep the sim quick
                              // Orig and transformed replays are independent — one pool worker each.
    let variants = [(m + 2, m + 2, None), (g.di_p, g.dj_p, Some(g.iter_tile))];
    let hs = pool.try_map(&variants, &SupervisePolicy::default(), |&(di, dj, t)| {
        let mut h = Hierarchy::ultrasparc2();
        Kernel::Resid.trace(m + 2, nk, di, dj, t, &mut h);
        Ok(h)
    });
    let (h_orig, h_tiled) = match (&hs[0], &hs[1]) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for r in [a, b] {
                if let Err(e) = r {
                    eprintln!("mgrid: closing cache simulation failed: {e}");
                }
            }
            std::process::exit(1);
        }
    };
    let cycles =
        |h: &Hierarchy| h.l1_stats().accesses + 10 * h.l1_stats().misses + 60 * h.l2_stats().misses;
    println!(
        "\nsimulated RESID at this grid (UltraSparc2 caches): L1 {:.1}% -> {:.1}% \
         (paper: 6.8% initial); modeled kernel speed-up {:.0}%",
        h_orig.l1_miss_rate_pct(),
        h_tiled.l1_miss_rate_pct(),
        100.0 * (cycles(h_orig) as f64 / cycles(h_tiled) as f64 - 1.0)
    );
    println!(
        "(~60% of MGRID time is RESID, so a paper-era machine sees a mid-single-digit\n\
         whole-application gain; on a modern host with a large L3 + prefetchers the\n\
         tile's short rows make RESID slower instead — see EXPERIMENTS.md)"
    );
    driver::finish();
}
