//! `sweep`: the compute a user runs after planning. Each timed operation
//! is one round of 14 arms, in sequence, on the default row backend:
//!
//! * 12 spatial arms — JACOBI, REDBLACK and RESID × {Orig, GcdPad} ×
//!   N ∈ {256, 300}, nk = 30 — planned like `bench::plan_for` and run by
//!   `Kernel::run`;
//! * 2 temporal arms — JACOBI and REDBLACK, T = 8 time-tiled steps at
//!   192×192×96 with one thread and `(ST, SK)` from `plan_temporal`.
//!
//! The seed fills the initial arrays. Before timing, every arm is checked
//! bitwise against `stencil::reference` (the iterated reference for the
//! temporal arms).

use std::time::Instant;

use tiling3d_core::missmodel::{
    lower_bound_misses, predict_level, KernelModel, LevelGeometry, PlanSchedule, Problem,
};
use tiling3d_core::{plan_temporal, CacheSpec, TemporalKernel, Transform, TransformPlan};
use tiling3d_grid::{fill_random, health, Array3};
use tiling3d_loopnest::TileDims;
use tiling3d_stencil::kernels::{Kernel, KernelState};
use tiling3d_stencil::redblack::Schedule;
use tiling3d_stencil::reference;
use tiling3d_stencil::resid::Coeffs;
use tiling3d_stencil::timetile::{self, TimeTile};

use crate::common::{certified_plan, Window};
use crate::outcome::Outcome;
use crate::stats::quartiles;
use crate::trace::{durations, LayerSplit, Tracer};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Plane extent and depth of the spatial arms.
const SPATIAL_N: [usize; 2] = [256, 300];
const SPATIAL_NK: usize = 30;
/// Extent, depth and steps of the temporal arms.
const TEMPORAL_N: usize = 192;
const TEMPORAL_NK: usize = 96;
const STEPS: usize = 8;
/// Red-black and Jacobi coefficients the kernels dispatch uses.
const RB: (f64, f64) = (0.4, 0.1);
const JACOBI_C: f64 = 1.0 / 6.0;

/// One arm's state.
enum ArmState {
    Spatial {
        plan: TransformPlan,
        state: KernelState,
    },
    JacobiSteps {
        bufs: Box<[Array3<f64>; 2]>,
        tile: TimeTile,
    },
    RedBlackSteps {
        a: Array3<f64>,
        tile: TimeTile,
    },
}

/// One arm: its name, kernel, and what it computes per sweep.
struct Arm {
    name: String,
    kernel: Kernel,
    /// `None` for the time-tiled arms.
    transform: Option<Transform>,
    n: usize,
    nk: usize,
    state: ArmState,
}

impl Arm {
    /// Time steps one sweep of the arm advances.
    fn steps(&self) -> usize {
        if self.transform.is_some() {
            1
        } else {
            STEPS
        }
    }

    fn flops(&self) -> u64 {
        self.kernel.sweep_flops(self.n, self.nk) * self.steps() as u64
    }

    /// Computed bytes: the arrays the sweep reads plus the one it
    /// writes, at their allocated (padded) size, per time step.
    fn computed_bytes(&self) -> f64 {
        let (di, dj) = match &self.state {
            ArmState::Spatial { plan, .. } => (plan.padded_di, plan.padded_dj),
            ArmState::JacobiSteps { bufs, .. } => (bufs[0].di(), bufs[0].dj()),
            ArmState::RedBlackSteps { a, .. } => (a.di(), a.dj()),
        };
        let arrays = match self.kernel {
            Kernel::Jacobi | Kernel::RedBlack => 2.0,
            Kernel::Resid => 3.0,
        };
        arrays * (di * dj * self.nk * 8 * self.steps()) as f64
    }

    fn sweep(&mut self) {
        match &mut self.state {
            ArmState::Spatial { plan, state } => self.kernel.run(state, plan.tile),
            ArmState::JacobiSteps { bufs, tile } => {
                timetile::jacobi_time_tiled(bufs, JACOBI_C, STEPS, *tile, 1);
            }
            ArmState::RedBlackSteps { a, tile } => {
                timetile::redblack_time_tiled(a, RB.0, RB.1, STEPS, *tile, 1);
            }
        }
    }

    fn output(&self) -> &Array3<f64> {
        match &self.state {
            ArmState::Spatial { state, .. } => state.output(),
            ArmState::JacobiSteps { bufs, .. } => &bufs[STEPS % 2],
            ArmState::RedBlackSteps { a, .. } => a,
        }
    }

    /// One more sweep of this arm, against the reference run on a copy
    /// of the state it started from: bitwise equal or an error.
    fn check_against_reference(&mut self) -> Result<(), String> {
        let same = match &mut self.state {
            ArmState::Spatial { plan, state } => {
                let mut slow = state.clone();
                run_reference(self.kernel, &mut slow, plan.tile);
                self.kernel.run(state, plan.tile);
                state.output().logical_eq(slow.output())
            }
            ArmState::JacobiSteps { bufs, tile } => {
                let mut slow = bufs.clone();
                timetile::jacobi_steps_reference(&mut slow, JACOBI_C, STEPS);
                timetile::jacobi_time_tiled(bufs, JACOBI_C, STEPS, *tile, 1);
                bufs[STEPS % 2].logical_eq(&slow[STEPS % 2])
            }
            ArmState::RedBlackSteps { a, tile } => {
                let mut slow = a.clone();
                timetile::redblack_steps_reference(&mut slow, RB.0, RB.1, STEPS);
                timetile::redblack_time_tiled(a, RB.0, RB.1, STEPS, *tile, 1);
                a.logical_eq(&slow)
            }
        };
        if same {
            Ok(())
        } else {
            Err(format!("{}: diverged from the reference", self.name))
        }
    }

    /// Static L1 prediction under the `modern` geometry, in bytes per
    /// sweep, with the Hupp–Jacob floor beside it (spatial arms only).
    fn modelled_bytes(&self) -> Option<(f64, f64)> {
        let (ArmState::Spatial { plan, .. }, Some(t)) = (&self.state, self.transform) else {
            return None;
        };
        let model = match (self.kernel, t) {
            (Kernel::Jacobi, _) => KernelModel::jacobi3d(),
            (Kernel::RedBlack, Transform::Orig) => KernelModel::redblack_naive(),
            (Kernel::RedBlack, _) => KernelModel::redblack_fused(),
            (Kernel::Resid, _) => KernelModel::resid(),
        };
        // Red-black realises its transformation as the fused schedule,
        // not a tile (as the locality query models it).
        let sched = match (self.kernel, plan.tile) {
            (Kernel::RedBlack, _) | (_, None) => PlanSchedule::Untiled,
            (_, Some((ti, tj))) => PlanSchedule::Tiled { ti, tj },
        };
        let prob = Problem {
            n: self.n,
            nk: self.nk,
            di: plan.padded_di,
            dj: plan.padded_dj,
        };
        let l1 = LevelGeometry::modern_l1();
        let line = l1.line_bytes as f64;
        let predicted = predict_level(&model, sched, &prob, &l1).misses * line;
        let floor = lower_bound_misses(&model, &prob, &l1, 0) * line;
        Some((predicted, floor))
    }
}

/// The per-point reference sweep for a spatial arm.
fn run_reference(kernel: Kernel, state: &mut KernelState, tile: Option<(usize, usize)>) {
    let t = tile.map(|(ti, tj)| TileDims::new(ti, tj));
    match (kernel, state) {
        (Kernel::Jacobi, KernelState::Jacobi { a, b }) => reference::jacobi3d(a, b, JACOBI_C, t),
        (Kernel::RedBlack, KernelState::RedBlack { a }) => {
            let sched = t.map_or(Schedule::Naive, Schedule::Tiled);
            reference::redblack(a, RB.0, RB.1, sched);
        }
        (Kernel::Resid, KernelState::Resid { r, u, v }) => {
            reference::resid(r, u, v, &Coeffs::MGRID_A, t);
        }
        _ => unreachable!("states are built by Kernel::make_state for their own kernel"),
    }
}

/// Plans, allocates and warms up every arm (one set-up repetition).
fn setup(seed: u64, tracer: &Tracer) -> Result<Vec<Arm>, String> {
    let root = tracer.span("bench.setup", 0);
    let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
    let mut arms = Vec::new();
    for kernel in Kernel::ALL {
        for t in [Transform::Orig, Transform::GcdPad] {
            for n in SPATIAL_N {
                let plan = certified_plan(cache, kernel, t, n, tracer, root.id())?;
                let state = {
                    let _s = tracer.span("grid.make_state", root.id());
                    kernel.make_state(n, SPATIAL_NK, &plan, seed)
                };
                arms.push(Arm {
                    name: format!("{}.{}.{n}", kernel.name(), t.name()),
                    kernel,
                    transform: Some(t),
                    n,
                    nk: SPATIAL_NK,
                    state: ArmState::Spatial { plan, state },
                });
            }
        }
    }
    for (kernel, tkern) in [
        (Kernel::Jacobi, TemporalKernel::Jacobi),
        (Kernel::RedBlack, TemporalKernel::RedBlack),
    ] {
        let (n, nk) = (TEMPORAL_N, TEMPORAL_NK);
        let plan = certified_plan(cache, kernel, Transform::GcdPad, n, tracer, root.id())?;
        let tp = {
            let _s = tracer.span("core.plan_temporal", root.id());
            plan_temporal(
                tkern,
                CacheSpec::from_bytes(8 * 1024 * 1024),
                n * n,
                STEPS,
                1,
            )
        };
        let tile = TimeTile {
            st: tp.st,
            sk: tp.sk,
        };
        let state = {
            let _s = tracer.span("grid.make_state", root.id());
            let mut a = Array3::with_padding(n, n, nk, plan.padded_di, plan.padded_dj);
            fill_random(&mut a, seed);
            match kernel {
                Kernel::Jacobi => ArmState::JacobiSteps {
                    bufs: Box::new([a.clone(), a]),
                    tile,
                },
                _ => ArmState::RedBlackSteps { a, tile },
            }
        };
        arms.push(Arm {
            name: format!("{}_T{STEPS}.timetile", kernel.name()),
            kernel,
            transform: None,
            n,
            nk,
            state,
        });
    }
    for arm in &mut arms {
        let _s = tracer.span(&format!("stencil.warmup:{}", arm.name), root.id());
        arm.sweep();
    }
    Ok(arms)
}

/// Runs the workload for about `seconds` of rounds.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        tail_pct: 90.0,
        ..Outcome::default()
    };
    let mut arms = Vec::new();
    for _ in 0..SETUP_REPS {
        // Free the previous repetition's arrays before allocating anew.
        drop(std::mem::take(&mut arms));
        let t0 = Instant::now();
        let made = setup(seed, tracer);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        match made {
            Ok(a) => arms = a,
            Err(e) => {
                out.attempted += 1;
                out.fail(1, format!("sweep set-up: {e}"));
                return out;
            }
        }
    }
    let setup_spans = tracer.spans();

    let mut bad = vec![false; arms.len()];
    for (arm, bad) in arms.iter_mut().zip(&mut bad) {
        if let Err(e) = arm.check_against_reference() {
            *bad = true;
            out.problems.push(e);
        }
    }

    let window = Window::open(seconds);
    let mut arm_s: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    loop {
        let t0 = Instant::now();
        let round = tracer.span("bench.op", 0);
        for (arm, times) in arms.iter_mut().zip(&mut arm_s) {
            let kind = if arm.transform.is_some() {
                "run"
            } else {
                "timetile"
            };
            let t = Instant::now();
            let _s = tracer.span(&format!("stencil.{kind}:{}", arm.name), round.id());
            arm.sweep();
            times.push(t.elapsed().as_secs_f64());
        }
        drop(round);
        let round_s = t0.elapsed().as_secs_f64();
        out.op_s.push(round_s);
        if !window.fits(round_s) {
            break;
        }
    }
    out.wall_s = window.elapsed();
    let rounds = out.op_s.len() as u64;
    out.attempted = rounds * arms.len() as u64;
    for (arm, bad) in arms.iter().zip(&bad) {
        if let Err(issue) = health::scan(arm.output()) {
            out.fail(
                rounds,
                format!("{}: output has {issue} after timing", arm.name),
            );
        } else if *bad {
            out.failed += rounds;
        }
    }

    if tracer.on() {
        let all = tracer.spans();
        let timed = &all[setup_spans.len()..];
        let split = LayerSplit::from_spans(out.wall_s, timed);
        let stencil_s = split.get("stencil");
        let flops = arms.iter().map(|a| a.flops() as f64).sum::<f64>() * rounds as f64;
        let bytes = arms.iter().map(Arm::computed_bytes).sum::<f64>() * rounds as f64;
        let (mut model_b, mut floor_b, mut model_s) = (0.0, 0.0, 0.0);
        for (arm, times) in arms.iter().zip(&arm_s) {
            let med = quartiles(times)[1];
            out.detail
                .push((format!("stencil.sweep_ms.{}", arm.name), med * 1e3, "ms"));
            out.detail.push((
                format!("stencil.computed_gbps.{}", arm.name),
                arm.computed_bytes() / med / 1e9,
                "GB/s",
            ));
            if let Some((predicted, floor)) = arm.modelled_bytes() {
                let total: f64 = times.iter().sum();
                model_b += predicted * times.len() as f64;
                floor_b += floor * times.len() as f64;
                model_s += total;
                if arm.n == 300 {
                    out.detail.push((
                        format!("stencil.model_gbps.{}", arm.name),
                        predicted / med / 1e9,
                        "GB/s",
                    ));
                    if arm.transform == Some(Transform::Orig) {
                        out.detail.push((
                            format!("stencil.floor_bytes.{}", arm.kernel.name()),
                            floor,
                            "B",
                        ));
                    }
                }
            }
        }
        for k in Kernel::ALL {
            let arm = arms
                .iter()
                .find(|a| a.kernel == k && a.transform.is_some())
                .expect("every kernel has spatial arms");
            out.detail.push((
                format!("stencil.flops_per_byte.{}", k.name()),
                arm.flops() as f64 / arm.computed_bytes(),
                "flop/B",
            ));
        }
        let alloc_s: f64 = durations(&setup_spans, "grid.make_state").iter().sum();
        out.detail.push((
            "grid.alloc_ms".into(),
            alloc_s * 1e3 / SETUP_REPS as f64,
            "ms",
        ));
        out.layer_values = vec![
            ("stencil_gflops", flops / stencil_s / 1e9),
            ("stencil_computed_gbps", bytes / stencil_s / 1e9),
            ("stencil_model_gbps", model_b / model_s / 1e9),
            ("stencil_floor_gbps", floor_b / model_s / 1e9),
            ("stencil_flops_per_byte", flops / bytes),
        ];
        out.setup_split = Some(LayerSplit::from_spans(
            out.setup_s.iter().sum(),
            &setup_spans,
        ));
        out.split = Some(split);
        out.spans = all;
    }
    out
}
