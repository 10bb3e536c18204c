//! Reproduces **Table 3**: average performance and cache-miss-rate
//! improvements over problem sizes 200-400 for all three kernels and the
//! five transformations (plus the Table 2 taxonomy as a header).
//!
//! Improvements follow the paper's convention: *percentage-point* drops for
//! miss rates ("a drop in the average miss rate from 10 to 8 is an
//! improvement of 2%, not 20%") and percent speed-up for performance.
//!
//! ```text
//! cargo run --release -p tiling3d-bench --bin table3 [-- --min 200 --max 400 --step 8 --nk 30 --reps 3 --no-perf --jobs N]
//! ```
//! `--step 1` reproduces the paper's full resolution; combine with
//! `--jobs $(nproc)` (the default) to shard the simulations across cores.
//! Miss rates are bit-identical for every `--jobs` value.

use std::fmt::Write as _;

use tiling3d_bench::{
    driver, measure_grid_supervised, run_miss_sweeps_supervised, SweepConfig, SweepOptions,
    SweepReport,
};
use tiling3d_core::Transform;
use tiling3d_obs::flags::{FlagSet, FlagSpec};
use tiling3d_stencil::kernels::Kernel;

fn flag_set() -> FlagSet {
    let mut flags = SweepConfig::FLAGS.to_vec();
    flags.extend_from_slice(SweepOptions::FLAGS);
    flags.push(FlagSpec::switch(
        "--no-perf",
        "skip the wall-clock MFlops rows",
    ));
    FlagSet::new(
        "table3",
        "average perf + miss-rate improvements, N = 200-400 (Table 3)",
        None,
        &flags,
    )
}

/// The Table 2 taxonomy, printed above Table 3.
const TABLE2: &str = "\
Table 2 (taxonomy):
  Orig      no tiling             no padding
  Tile      square                no padding
  Euc3D     non-conflicting       no padding
  GcdPad    fixed non-conflicting GCD padding
  Pad       variable non-confl.   < GCD padding
  GcdPadNT  no tiling             GCD padding

";

/// The paper's Table 3, printed below the reproduced one.
const PAPER_REFERENCE: &str = "
paper reference (360MHz UltraSparc2):
  JACOBI   % perf 13/10/16/17/-1   L1 1.9/3.7/4.8/5.1/1.6   L2 0.7/0.7/0.7/0.7/-0.2
  REDBLACK % perf 89/74/120/121/10 L1 6.3/9.3/12.5/12.6/2.8 L2 2.0/1.8/2.0/2.0/-0.5
  RESID    % perf 16/17/27/24/4    L1 1.9/2.5/4.7/4.7/2.2   L2 0.3/0.3/0.3/0.3/0.0
";

fn main() {
    let flags = driver::parse_or_exit(&flag_set());
    let cfg = driver::or_exit(SweepConfig::from_flags(&flags));
    let opts = driver::or_exit(SweepOptions::from_flags(&flags));
    let mut verdict = SweepReport::default();
    let with_perf = !flags.switch("--no-perf");

    let mut out = String::from(TABLE2);
    let _ = writeln!(
        out,
        "Table 3: improvements vs Orig, averaged over N = {}..{} step {} (NxNx{})",
        cfg.n_min, cfg.n_max, cfg.step, cfg.nk
    );

    let opt = [
        Transform::Tile,
        Transform::Euc3D,
        Transform::GcdPad,
        Transform::Pad,
        Transform::GcdPadNT,
    ];
    let all: Vec<Transform> = std::iter::once(Transform::Orig).chain(opt).collect();

    let _ = writeln!(
        out,
        "\n{:<10}{:<14}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "kernel", "metric", "Tile", "Euc3D", "GcdPad", "Pad", "GcdPadNT"
    );
    // One write per section: the header now, each kernel's rows as soon
    // as its sweeps finish.
    driver::write_stdout(&std::mem::take(&mut out));
    for kernel in Kernel::ALL {
        let kopts = opts.for_kernel(kernel);
        let sweeps = run_miss_sweeps_supervised(&cfg, kernel, &all, &kopts);
        let (l1, l2, modeled, report) = driver::or_exit(sweeps.map_err(|e| format!("table3: {e}")));
        verdict.merge(&report);
        let perf = with_perf.then(|| {
            let grid = measure_grid_supervised(&cfg, kernel, &all, None, &kopts);
            verdict.merge(&grid.report);
            grid.table("MFlops", &all, |&v| v)
        });

        let (m1, m2) = (l1.means(), l2.means());
        let _ = writeln!(
            out,
            "{:<10}{:<14}{:>9}{:>9}{:>9}{:>9}{:>9}   (orig L1 {:.1}%, L2 {:.1}%)",
            kernel.name(),
            "",
            "",
            "",
            "",
            "",
            "",
            m1[0],
            m2[0]
        );
        {
            let mm = modeled.means();
            let _ = write!(out, "{:<10}{:<14}", "", "% perf (mdl)");
            for i in 1..all.len() {
                let _ = write!(out, "{:>9.0}", 100.0 * (mm[i] - mm[0]) / mm[0]);
            }
            out.push('\n');
        }
        if let Some(p) = &perf {
            let mp = p.means();
            let _ = write!(out, "{:<10}{:<14}", "", "% perf (wall)");
            for i in 1..all.len() {
                let _ = write!(out, "{:>9.0}", 100.0 * (mp[i] - mp[0]) / mp[0]);
            }
            out.push('\n');
        }
        let _ = write!(out, "{:<10}{:<14}", "", "L1 miss rate");
        for i in 1..all.len() {
            let _ = write!(out, "{:>9.1}", m1[0] - m1[i]);
        }
        out.push('\n');
        let _ = write!(out, "{:<10}{:<14}", "", "L2 miss rate");
        for i in 1..all.len() {
            let _ = write!(out, "{:>9.1}", m2[0] - m2[i]);
        }
        out.push('\n');
        driver::write_stdout(&std::mem::take(&mut out));
    }

    driver::write_stdout(PAPER_REFERENCE);
    driver::finish_sweep(&verdict);
}
