//! Reproduces the cache-miss-rate figures: **Fig 14** (JACOBI), **Fig 16**
//! (REDBLACK), **Fig 18** (RESID), and **Fig 20** (larger RESID sizes via
//! `--min 400 --max 700`).
//!
//! Prints one row per problem size with the L1 (and optionally L2) miss
//! rate of every transformation — the data series behind the paper's three
//! stacked graphs per kernel.
//!
//! ```text
//! cargo run --release -p tiling3d-bench --bin fig_miss -- jacobi [--min 200 --max 400 --step 8 --l2 --csv]
//! ```

use tiling3d_bench::{driver, run_miss_sweeps_supervised, SweepConfig, SweepOptions};
use tiling3d_core::Transform;
use tiling3d_obs::flags::{FlagSet, FlagSpec};
use tiling3d_stencil::kernels::Kernel;

fn flag_set() -> FlagSet {
    let mut flags = SweepConfig::FLAGS.to_vec();
    flags.extend_from_slice(SweepOptions::FLAGS);
    flags.push(FlagSpec::switch("--csv", "emit CSV instead of a table"));
    flags.push(FlagSpec::switch(
        "--l2",
        "also print the L2 miss-rate table",
    ));
    flags.push(FlagSpec::switch("--plot", "render an ASCII plot"));
    FlagSet::new(
        "fig_miss",
        "per-size L1/L2 miss rates per kernel (Figs 14/16/18/20)",
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
    let transforms = Transform::ALL;

    let fig = match (kernel, cfg.n_max > 450) {
        (Kernel::Jacobi, _) => "Fig 14",
        (Kernel::RedBlack, _) => "Fig 16",
        (Kernel::Resid, false) => "Fig 18",
        (Kernel::Resid, true) => "Fig 20",
    };
    println!(
        "{fig}: {} L1 miss rates (%), N = {}..{} step {}, NxNx{} grids, 16K/2M direct-mapped",
        kernel.name(),
        cfg.n_min,
        cfg.n_max,
        cfg.step,
        cfg.nk
    );
    let sweeps = run_miss_sweeps_supervised(&cfg, kernel, &transforms, &opts);
    let (l1, l2, _, report) = driver::or_exit(sweeps.map_err(|e| format!("fig_miss: {e}")));
    l1.print(csv);
    if flags.switch("--plot") {
        println!("\n{}", tiling3d_bench::plot::render(&l1, 6));
    }

    if flags.switch("--l2") {
        println!("\n{fig}: {} L2 miss rates (%)", kernel.name());
        l2.print(csv);
    }
    driver::finish_sweep(&report);
}
