//! `figure`: regenerate a paper miss-rate figure. Set-up plans every
//! point (tile and pad search plus certification); each timed operation
//! simulates one point — `Hierarchy::new` and `Kernel::trace`, the body
//! of `bench::simulate`. Nearly all the time is cache-simulator replay;
//! there is no stencil compute.
//!
//! Points are simulated on one thread: with a second worker on this
//! two-core host, each point's time mostly measured contention for the
//! other core, and throughput varied 16% between runs instead of 3%.

use std::time::Instant;

use tiling3d_bench::SweepConfig;
use tiling3d_cachesim::Hierarchy;
use tiling3d_core::{Transform, TransformPlan};
use tiling3d_grid::Xorshift64;
use tiling3d_stencil::kernels::Kernel;

use crate::common::{certified_plan, Window};
use crate::golden;
use crate::outcome::Outcome;
use crate::stats::Fnv;
use crate::trace::{durations, LayerSplit, Tracer};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The figure's sweep: N = 208..=400 step 48 (256 and 352 are the sizes
/// that conflict pathologically in the 16 KB direct-mapped L1), the
/// paper's nk = 30, UltraSPARC-2 L1/L2.
fn config() -> SweepConfig {
    SweepConfig {
        n_min: 208,
        n_max: 400,
        step: 48,
        nk: 30,
        ..SweepConfig::default()
    }
}

/// Every point, kernel-major, then N, then transform.
fn points(cfg: &SweepConfig) -> Vec<(Kernel, Transform, usize)> {
    let mut out = Vec::new();
    for k in Kernel::ALL {
        for n in cfg.sizes() {
            for t in Transform::ALL {
                out.push((k, t, n));
            }
        }
    }
    out
}

/// Runs the workload for about `seconds` of whole simulation passes.
pub fn run(_seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let cfg = config();
    let points = points(&cfg);
    let mut out = Outcome {
        tail_pct: 90.0,
        ..Outcome::default()
    };

    let mut plans: Vec<TransformPlan> = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let setup = tracer.span("bench.setup", 0);
        let planned: Result<Vec<_>, String> = points
            .iter()
            .map(|&(k, t, n)| certified_plan(cfg.cache_spec(), k, t, n, tracer, setup.id()))
            .collect();
        drop(setup);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        match planned {
            Ok(p) => plans = p,
            Err(e) => {
                out.attempted += 1;
                out.fail(1, e);
                return out;
            }
        }
    }
    let setup_spans = tracer.spans();

    // Points run in a fixed shuffled order, so host drift during a pass
    // falls on every kind of point alike instead of on whichever kernel
    // runs last; results are digested in sweep order.
    let mut order: Vec<usize> = (0..points.len()).collect();
    let mut rng = Xorshift64::new(0xF16);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i + 1));
    }
    let window = Window::open(seconds);
    let mut accesses = 0u64;
    loop {
        let t0 = Instant::now();
        let mut rates = vec![(0.0, 0.0); points.len()];
        for &i in &order {
            let (k, _, n) = points[i];
            let p = &plans[i];
            let t = Instant::now();
            let op = tracer.span("bench.op", 0);
            let mut h = {
                let _s = tracer.span("cachesim.new", op.id());
                Hierarchy::new(cfg.l1, cfg.l2)
            };
            {
                let _s = tracer.span(&format!("cachesim.trace:{}", k.name()), op.id());
                k.trace(n, cfg.nk, p.padded_di, p.padded_dj, p.tile, &mut h);
            }
            drop(op);
            out.op_s.push(t.elapsed().as_secs_f64());
            accesses += h.l1_stats().accesses;
            rates[i] = (h.l1_miss_rate_pct(), h.l2_miss_rate_pct());
        }
        let pass_s = t0.elapsed().as_secs_f64();
        let mut digest = Fnv::default();
        for (l1, l2) in &rates {
            digest.write_u64(l1.to_bits());
            digest.write_u64(l2.to_bits());
        }
        out.attempted += points.len() as u64;
        let checks = golden::expect(golden::FIGURE, "points", &points.len().to_string())
            .and_then(|()| golden::expect(golden::FIGURE, "digest", &golden::hex(digest.finish())));
        if let Err(e) = checks {
            out.fail(points.len() as u64, format!("figure: {e}"));
        }
        if !window.fits(pass_s) {
            break;
        }
    }
    out.wall_s = window.elapsed();

    if tracer.on() {
        let all = tracer.spans();
        let timed = &all[setup_spans.len()..];
        let split = LayerSplit::from_spans(out.wall_s, timed);
        out.layer_values = vec![
            ("cachesim_accesses", accesses as f64),
            (
                "cachesim_macc_per_s",
                accesses as f64 / split.get("cachesim") / 1e6,
            ),
        ];
        for k in Kernel::ALL {
            let s: f64 = durations(timed, &format!("cachesim.trace:{}", k.name()))
                .iter()
                .sum();
            out.detail
                .push((format!("cachesim.replay_s.{}", k.name()), s, "s"));
        }
        let ms_per_setup = |name: &str| {
            durations(&setup_spans, name).iter().sum::<f64>() * 1e3 / SETUP_REPS as f64
        };
        out.detail.extend([
            ("core.plan_ms".to_string(), ms_per_setup("core.plan:"), "ms"),
            (
                "core.plan_ms.Pad".to_string(),
                ms_per_setup("core.plan:Pad"),
                "ms",
            ),
            (
                "loopnest.certify_ms".to_string(),
                ms_per_setup("loopnest.certify"),
                "ms",
            ),
        ]);
        out.setup_split = Some(LayerSplit::from_spans(
            out.setup_s.iter().sum(),
            &setup_spans,
        ));
        out.split = Some(split);
        out.spans = all;
    }
    out
}
