//! Reproduces the performance figures: **Fig 15** (JACOBI), **Fig 17**
//! (REDBLACK), **Fig 19** (RESID), and **Fig 21** (larger RESID sizes via
//! `--min 400 --max 700`): sustained MFlops per problem size for every
//! transformation.
//!
//! Absolute MFlops are host-dependent (the paper used a 360/450 MHz
//! UltraSparc2); the reproduced *shape* is what matters: GcdPad/Pad stable
//! and fastest, Tile/Euc3D irregular, Orig slowest at large N.
//!
//! ```text
//! cargo run --release -p tiling3d-bench --bin fig_perf -- redblack [--min 200 --max 400 --step 8 --reps 3 --csv]
//! ```

use std::fmt::Write as _;

use tiling3d_bench::{
    driver, measure_grid_supervised, run_miss_sweeps_supervised, SweepConfig, SweepOptions,
};
use tiling3d_core::Transform;
use tiling3d_obs::flags::{FlagSet, FlagSpec};
use tiling3d_stencil::kernels::Kernel;

fn flag_set() -> FlagSet {
    let mut flags = SweepConfig::FLAGS.to_vec();
    flags.extend_from_slice(SweepOptions::FLAGS);
    flags.push(FlagSpec::switch("--csv", "emit CSV instead of a table"));
    flags.push(FlagSpec::switch(
        "--modeled",
        "model MFlops from simulated misses instead of wall-clock",
    ));
    flags.push(FlagSpec::switch("--plot", "render an ASCII plot"));
    flags.push(FlagSpec::switch(
        "--parallel",
        "measure the K-slab parallel sweeps across --jobs threads",
    ));
    FlagSet::new(
        "fig_perf",
        "per-size MFlops per kernel (Figs 15/17/19/21)",
        Some(("kernel", "jacobi | redblack | resid (default jacobi)")),
        &flags,
    )
}

fn main() {
    let flags = driver::parse_or_exit(&flag_set());
    let kernel = flags.positional().map_or(Ok(Kernel::Jacobi), str::parse);
    let kernel = driver::or_exit(kernel);
    let cfg = driver::or_exit(SweepConfig::from_flags(&flags));
    let opts = driver::or_exit(SweepOptions::from_flags(&flags));
    let csv = flags.switch("--csv");
    let modeled = flags.switch("--modeled");
    let parallel = flags.switch("--parallel");
    if modeled && parallel {
        driver::or_exit::<()>(Err(
            "fig_perf cannot combine --modeled with --parallel: --parallel times the K-slab sweeps on the wall clock".into(),
        ));
    }

    let fig = match (kernel, cfg.n_max > 450) {
        (Kernel::Jacobi, _) => "Fig 15",
        (Kernel::RedBlack, _) => "Fig 17",
        (Kernel::Resid, false) => "Fig 19",
        (Kernel::Resid, true) => "Fig 21",
    };
    let mut out = format!(
        "{fig}: {} performance (MFlops), N = {}..{} step {}, NxNx{} grids\n",
        kernel.name(),
        cfg.n_min,
        cfg.n_max,
        cfg.step,
        cfg.nk
    );
    if modeled {
        out.push_str(
            "(modeled from simulated misses at UltraSparc2-era penalties; see EXPERIMENTS.md)\n",
        );
    }
    if parallel {
        let _ = writeln!(
            out,
            "(K-slab parallel sweeps, --jobs {})",
            cfg.pool().jobs()
        );
    }
    driver::write_stdout(&std::mem::take(&mut out));
    let (perf, report) = if modeled {
        let sweeps = run_miss_sweeps_supervised(&cfg, kernel, &Transform::ALL, &opts);
        let (_, _, modeled, report) = driver::or_exit(sweeps.map_err(|e| format!("fig_perf: {e}")));
        (modeled, report)
    } else {
        // Wall-clock sweep, one point at a time. `--parallel` times the
        // K-slab parallel sweeps (bitwise identical results to the
        // sequential sweep, so the delta is pure thread scaling).
        let slabs = parallel.then_some(cfg.jobs);
        let grid = measure_grid_supervised(&cfg, kernel, &Transform::ALL, slabs, &opts);
        let metric = if parallel {
            "MFlops (parallel)"
        } else {
            "MFlops"
        };
        (grid.table(metric, &Transform::ALL, |&v| v), grid.report)
    };
    out.push_str(&perf.render(csv));
    if flags.switch("--plot") {
        let _ = writeln!(out, "\n{}", tiling3d_bench::plot::render(&perf, 6));
    }
    driver::write_stdout(&out);
    driver::finish_sweep(&report);
}
