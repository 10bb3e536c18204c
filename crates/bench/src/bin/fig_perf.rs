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

use tiling3d_bench::{
    driver, measure_mflops_parallel, run_sweep_supervised, supervise, Metric, SweepConfig,
    SweepError, SweepOptions, SweepReport, SweepResult,
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
    let kernel = match flags.positional() {
        None => Kernel::Jacobi,
        Some(s) => s.parse().unwrap_or_else(|e: String| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
    };
    let cfg = driver::or_exit(SweepConfig::from_flags(&flags));
    let opts = driver::or_exit(SweepOptions::from_flags(&flags));
    let csv = flags.switch("--csv");

    let fig = match (kernel, cfg.n_max > 450) {
        (Kernel::Jacobi, _) => "Fig 15",
        (Kernel::RedBlack, _) => "Fig 17",
        (Kernel::Resid, false) => "Fig 19",
        (Kernel::Resid, true) => "Fig 21",
    };
    println!(
        "{fig}: {} performance (MFlops), N = {}..{} step {}, NxNx{} grids",
        kernel.name(),
        cfg.n_min,
        cfg.n_max,
        cfg.step,
        cfg.nk
    );
    let metric = if flags.switch("--modeled") {
        Metric::ModeledMFlops
    } else {
        Metric::MFlops
    };
    if metric == Metric::ModeledMFlops {
        println!(
            "(modeled from simulated misses at UltraSparc2-era penalties; see EXPERIMENTS.md)"
        );
    }
    let mut report = SweepReport::default();
    let perf = if flags.switch("--parallel") {
        // K-slab parallel wall-clock sweep: bitwise identical results to
        // the sequential sweep, so the delta is pure thread scaling. Each
        // point runs under the supervision policy; a failed point renders
        // as a gap instead of killing the sweep.
        println!("(K-slab parallel sweeps, --jobs {})", cfg.jobs);
        let rows = cfg
            .sizes()
            .into_iter()
            .map(|n| {
                let vals = Transform::ALL
                    .iter()
                    .map(|&t| {
                        report.total += 1;
                        supervise::supervise_item(&opts.policy, || {
                            let v = measure_mflops_parallel(&cfg, kernel, t, n, cfg.jobs);
                            if v.is_finite() {
                                Ok(v)
                            } else {
                                Err(SweepError::Unhealthy {
                                    reason: "non-finite MFlops".into(),
                                })
                            }
                        })
                        .unwrap_or_else(|e| {
                            report.failures.push((
                                tiling3d_bench::checkpoint::point_key(kernel, t, n, cfg.nk),
                                e,
                            ));
                            f64::NAN
                        })
                    })
                    .collect();
                (n, vals)
            })
            .collect();
        SweepResult {
            metric: "MFlops (parallel)",
            transforms: Transform::ALL.to_vec(),
            rows,
        }
    } else {
        let (r, rep) = run_sweep_supervised(&cfg, kernel, &Transform::ALL, metric, &opts)
            .unwrap_or_else(|e| {
                eprintln!("fig_perf: {e}");
                std::process::exit(2);
            });
        report.merge(&rep);
        r
    };
    perf.print(csv);
    if flags.switch("--plot") {
        println!("\n{}", tiling3d_bench::plot::render(&perf, 6));
    }
    driver::finish_sweep(&report);
}
