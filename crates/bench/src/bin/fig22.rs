//! Reproduces **Fig 22**: memory increase from padding (JACOBI), GcdPad vs
//! Pad, over problem sizes 200-400, plus the cubic-K variant the paper
//! quotes ("if we were to use the same size for the K dimension ... average
//! memory size increases would be much less, about 1.4% and 0.5%").
//!
//! ```text
//! cargo run -p tiling3d-bench --bin fig22 [-- --step 8 --csv]
//! ```

use std::fmt::Write as _;

use tiling3d_bench::{driver, plan_for, SweepConfig};
use tiling3d_core::{memory_overhead_pct, Transform};
use tiling3d_obs::flags::{FlagSet, FlagSpec};
use tiling3d_stencil::kernels::Kernel;

fn flag_set() -> FlagSet {
    let mut flags = SweepConfig::FLAGS.to_vec();
    flags.push(FlagSpec::switch("--csv", "emit CSV instead of a table"));
    FlagSet::new(
        "fig22",
        "memory increase from padding, JACOBI (Fig 22)",
        None,
        &flags,
    )
}

fn main() {
    let flags = driver::parse_or_exit(&flag_set());
    let cfg = driver::or_exit(SweepConfig::from_flags(&flags));
    let csv = flags.switch("--csv");

    let mut out = format!(
        "Fig 22: JACOBI memory increase from padding (%), NxNx{} arrays\n",
        cfg.nk
    );
    if csv {
        out.push_str("N,GcdPad,Pad,GcdPad_cubicK,Pad_cubicK\n");
    } else {
        let _ = writeln!(
            out,
            "{:>6}{:>10}{:>10}{:>14}{:>12}",
            "N", "GcdPad", "Pad", "GcdPad(K=N)", "Pad(K=N)"
        );
    }

    let mut sums = [0.0f64; 4];
    let sizes = cfg.sizes();
    // Pad searches are independent per N — shard them on the sweep pool
    // (output order is by-size regardless of --jobs).
    let per_n = cfg.pool().map(&sizes, |&n| {
        let g = plan_for(&cfg, Kernel::Jacobi, Transform::GcdPad, n);
        let p = plan_for(&cfg, Kernel::Jacobi, Transform::Pad, n);
        // K = 30 (paper's measurement setup): honest padded/original volume
        // ratio. The paper's "K = N" remark amortises the *same measured
        // pad volume* over a cubic array (the ratio itself is K-invariant,
        // so the ~10x smaller figures it quotes only follow under that
        // accounting) — reproduced in the last two columns.
        let cubic = |di_p: usize, dj_p: usize| {
            100.0 * ((di_p * dj_p - n * n) * cfg.nk) as f64 / (n * n * n) as f64
        };
        [
            memory_overhead_pct(n, n, cfg.nk, g.padded_di, g.padded_dj),
            memory_overhead_pct(n, n, cfg.nk, p.padded_di, p.padded_dj),
            cubic(g.padded_di, g.padded_dj),
            cubic(p.padded_di, p.padded_dj),
        ]
    });
    for (&n, vals) in sizes.iter().zip(&per_n) {
        for (s, v) in sums.iter_mut().zip(vals) {
            *s += v;
        }
        let _ = if csv {
            writeln!(
                out,
                "{n},{:.3},{:.3},{:.3},{:.3}",
                vals[0], vals[1], vals[2], vals[3]
            )
        } else {
            writeln!(
                out,
                "{n:>6}{:>10.2}{:>10.2}{:>14.2}{:>12.2}",
                vals[0], vals[1], vals[2], vals[3]
            )
        };
    }
    let c = sizes.len() as f64;
    let _ = writeln!(
        out,
        "\naverages: GcdPad {:.1}%  Pad {:.1}%   (cubic K: GcdPad {:.1}%  Pad {:.1}%)",
        sums[0] / c,
        sums[1] / c,
        sums[2] / c,
        sums[3] / c
    );
    out.push_str("paper reference: GcdPad 14.7%, Pad 4.7% (cubic K: ~1.4% and ~0.5%)\n");
    out.push_str("note: the K dimension is never padded, so overhead scales with 1/K.\n");
    driver::write_stdout(&out);
    driver::finish();
}
