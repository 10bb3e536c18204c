//! `solve`: the paper's whole-application result as time to a solution.
//! MGRID (`MgSolver`, lt = 7, the 128³ reference grid) with the
//! right-hand side of the `mgrid` driver runs V-cycles until the residual
//! norm `iterate()` returns is ≤ 1e-3, twice: under `MgConfig::mgrid(7)`
//! (Orig) and under the Section 4.6 GcdPad(resid) configuration. Set-up —
//! the GcdPad plan, `MgSolver::new` and `set_rhs` — runs before every
//! pair of solves.

use std::collections::HashSet;
use std::time::Instant;

use tiling3d_core::{gcd_pad, CacheSpec};
use tiling3d_loopnest::{StencilShape, TileDims};
use tiling3d_multigrid::{MgConfig, MgSolver};

use crate::common::Window;
use crate::golden;
use crate::outcome::Outcome;
use crate::stats::quartiles;
use crate::trace::{durations, LayerSplit, SpanRec, Tracer};

/// Multigrid levels: 2^7 = 128 interior points per side.
const LEVELS: usize = 7;
/// Residual norm that counts as solved.
const TOLERANCE: f64 = 1e-3;
/// V-cycles after which a solve counts as failed.
const MAX_CYCLES: usize = 50;
/// The two configurations, in the order each pair of solves runs them.
const LABELS: [&str; 2] = ["orig", "gcdpad"];

/// Builds both solvers with the right-hand side set.
fn setup(tracer: &Tracer) -> [MgSolver; 2] {
    let root = tracer.span("bench.setup", 0);
    let m = 1usize << LEVELS;
    let g = {
        let _s = tracer.span("core.gcd_pad", root.id());
        gcd_pad(
            CacheSpec::ELEMENTS_16K_DOUBLES,
            m + 2,
            m + 2,
            &StencilShape::resid27(),
        )
    };
    let orig = MgConfig::mgrid(LEVELS);
    let padded = MgConfig {
        pad_finest: Some((g.di_p, g.dj_p)),
        tile_finest: Some(TileDims::new(g.iter_tile.0, g.iter_tile.1)),
        ..orig
    };
    [orig, padded].map(|cfg| {
        let mut s = {
            let _s = tracer.span("grid.new", root.id());
            MgSolver::new(cfg)
        };
        let _s = tracer.span("grid.set_rhs", root.id());
        let mf = m as f64;
        s.set_rhs(|i, j, k| {
            let (x, y, z) = (i as f64 / mf, j as f64 / mf, k as f64 / mf);
            (6.5 * x).sin() * (13.0 * y).cos() + 0.3 * (18.8 * z).sin()
        });
        s
    })
}

/// V-cycles until solved; returns the final norm and each cycle's
/// seconds. Traced, each cycle's routine split comes from
/// `MgSolver::stats`.
fn solve(s: &mut MgSolver, label: &str, tracer: &Tracer, parent: u64) -> (f64, Vec<f64>) {
    let mut cycles = Vec::new();
    for cycle in 1..=MAX_CYCLES {
        let before = s.stats;
        let t0 = Instant::now();
        let span = tracer.span(&format!("multigrid.iterate:{label}"), parent);
        let norm = s.iterate();
        let id = span.id();
        drop(span);
        cycles.push(t0.elapsed().as_secs_f64());
        let after = s.stats;
        for (name, d) in [
            ("stencil.resid", after.resid - before.resid),
            ("multigrid.psinv", after.psinv - before.psinv),
            ("multigrid.rprj3", after.rprj3 - before.rprj3),
            ("multigrid.interp", after.interp - before.interp),
        ] {
            tracer.record(&format!("{name}:{label}"), id, t0, d);
        }
        if norm <= TOLERANCE || cycle == MAX_CYCLES {
            return (norm, cycles);
        }
    }
    unreachable!("the loop returns on its last cycle")
}

/// Runs the workload for about `seconds` of solve pairs. A timed
/// operation is one V-cycle of each configuration: cycle i of the Orig
/// solve paired with cycle i of the GcdPad solve, which run one after the
/// other as standalone solves. Every cycle does the same work, so the
/// operations are alike and a run holds dozens of them instead of a
/// dozen solve pairs, enough for a steady tail.
pub fn run(_seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        tail_pct: 90.0,
        ..Outcome::default()
    };
    let want_iters = golden::value(golden::SOLVE, "iterations").unwrap_or("?");
    let want_bits = golden::value(golden::SOLVE, "norm_bits").unwrap_or("?");
    let window = Window::open(seconds);
    let mut setup_total = 0.0;
    let mut iters = 0;
    loop {
        let t0 = Instant::now();
        let mut solvers = setup(tracer);
        let setup_s = t0.elapsed().as_secs_f64();
        out.setup_s.push(setup_s);
        setup_total += setup_s;

        let t1 = Instant::now();
        let op = tracer.span("bench.op", 0);
        let results: Vec<(f64, Vec<f64>)> = solvers
            .iter_mut()
            .zip(LABELS)
            .map(|(s, label)| solve(s, label, tracer, op.id()))
            .collect();
        drop(op);
        let pair_s = t1.elapsed().as_secs_f64();
        drop(solvers);
        let (orig, padded) = (&results[0].1, &results[1].1);
        out.op_s.extend(orig.iter().zip(padded).map(|(a, b)| a + b));

        for ((norm, cycle_s), label) in results.iter().zip(LABELS) {
            out.attempted += 1;
            let cycles = cycle_s.len();
            iters = cycles;
            let bits = golden::hex(norm.to_bits());
            if cycles.to_string() != want_iters || bits != want_bits {
                out.fail(
                    1,
                    format!(
                        "solve {label}: {cycles} cycles to norm {bits}, golden {want_iters} \
                         cycles to {want_bits}"
                    ),
                );
            }
        }
        if results[0].0.to_bits() != results[1].0.to_bits() {
            out.fail(
                1,
                "solve: Orig and GcdPad final norms differ bitwise".into(),
            );
        }
        if !window.fits(setup_s + pair_s) {
            break;
        }
    }
    out.wall_s = window.elapsed() - setup_total;

    if tracer.on() {
        let all = tracer.spans();
        let setup_ids: HashSet<u64> = all
            .iter()
            .filter(|s| s.name == "bench.setup")
            .map(|s| s.id)
            .collect();
        let (setup_spans, timed): (Vec<SpanRec>, Vec<SpanRec>) = all
            .iter()
            .cloned()
            .partition(|s| setup_ids.contains(&s.id) || setup_ids.contains(&s.parent));
        let solves = out.setup_s.len() as f64;
        for label in LABELS {
            for routine in [
                "stencil.resid",
                "multigrid.psinv",
                "multigrid.rprj3",
                "multigrid.interp",
            ] {
                let ms: f64 = durations(&timed, &format!("{routine}:{label}"))
                    .iter()
                    .sum::<f64>()
                    * 1e3;
                let short = routine.split('.').nth(1).unwrap_or(routine);
                out.detail
                    .push((format!("multigrid.{short}_ms.{label}"), ms / solves, "ms"));
            }
            let cycles = durations(&timed, &format!("multigrid.iterate:{label}"));
            out.detail.push((
                format!("multigrid.vcycle_ms_p50.{label}"),
                quartiles(&cycles)[1] * 1e3,
                "ms",
            ));
        }
        let alloc: f64 = ["grid.new", "grid.set_rhs"]
            .iter()
            .map(|n| durations(&setup_spans, n).iter().sum::<f64>())
            .sum();
        out.detail
            .push(("grid.alloc_ms.solve".into(), alloc * 1e3 / solves, "ms"));
        out.layer_values = vec![("multigrid_iters", iters as f64)];
        out.split = Some(LayerSplit::from_spans(out.wall_s, &timed));
        out.setup_split = Some(LayerSplit::from_spans(setup_total, &setup_spans));
        out.spans = all;
    }
    out
}
