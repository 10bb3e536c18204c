//! Static-vs-simulated cross-validation gate for the locality analyzer.
//!
//! For every kernel × transform × cache geometry cell, the static miss
//! model (`core::missmodel`) predicts per-level misses with no
//! simulation; this suite replays the kernel's exact trace through
//! `cachesim` and asserts three contracts:
//!
//! 1. **Tolerance** — `|simulated - predicted|` miss rate per level stays
//!    within the stated per-level tolerance (see `TOL_*` below; the
//!    DESIGN.md §15 tolerance contract).
//! 2. **Bound** — the analytic Hupp–Jacob-style lower bound never
//!    exceeds the simulated misses of *any* level, and on the
//!    direct-mapped geometry never exceeds the simulated cold+capacity
//!    misses (3C decomposition).
//! 3. **Cliff** — a known-pathological padding (plane stride `0 mod
//!    span`) is flagged statically with a `ThrashGroup` witness and its
//!    predicted miss-rate cliff is confirmed by simulation, while the
//!    8-way geometry absorbs it — both statically and in simulation.

use tiling3d::cachesim::{
    AccessSink, CacheConfig, Hierarchy, ReplacementPolicy, ThreeC, WritePolicy,
};
use tiling3d::core::{
    lower_bound_misses, plan, predict_level, CacheSpec, GeometryPreset, KernelModel, LevelGeometry,
    PlanSchedule, Problem, Transform,
};
use tiling3d::loopnest::locality::WitnessKind;
use tiling3d::loopnest::{StencilShape, TileDims};
use tiling3d::stencil::{jacobi2d, jacobi3d, redblack, redblack2d, resid, timestep};

/// Tolerance contract (percentage points of miss rate, both levels as a
/// fraction of L1 accesses). Stated in DESIGN.md §15.
const TOL_L1_FA: f64 = 1.0; // fully-associative geometry: the pure histogram
const TOL_L1_ASSOC: f64 = 2.5; // 8-way: set-pressure near capacity is partial
const TOL_L1_DM: f64 = 4.0; // direct-mapped: first-order interference model
const TOL_L2: f64 = 1.5; // global L2 rates are small numbers
const TOL_CLIFF: f64 = 15.0; // pathological thrash cells: order-of-magnitude contract

const N3D: usize = 120;
const NK3D: usize = 20;
const N2D: usize = 300;

#[derive(Clone, Copy)]
struct Geometry {
    name: &'static str,
    l1: CacheConfig,
    l2: CacheConfig,
    l1_model: LevelGeometry,
    l2_model: LevelGeometry,
    tol_l1: f64,
}

/// The simulator's view of a static-model level: same capacity, line,
/// associativity and write policy, LRU within a set.
fn simulated(level: LevelGeometry) -> CacheConfig {
    CacheConfig {
        size_bytes: level.size_bytes,
        line_bytes: level.line_bytes,
        ways: level.ways,
        write_policy: if level.write_allocate {
            WritePolicy::WriteAllocate
        } else {
            WritePolicy::WriteAround
        },
        replacement: ReplacementPolicy::Lru,
    }
}

fn geometries() -> [Geometry; 3] {
    GeometryPreset::ALL.map(|preset| {
        let (name, tol_l1) = match preset {
            GeometryPreset::Us2 => ("us2-dm", TOL_L1_DM),
            GeometryPreset::Modern => ("modern-8w", TOL_L1_ASSOC),
            GeometryPreset::Fa => ("fa-16k", TOL_L1_FA),
        };
        let (l1_model, l2_model) = preset.levels();
        Geometry {
            name,
            l1: simulated(l1_model),
            l2: simulated(l2_model),
            l1_model,
            l2_model,
            tol_l1,
        }
    })
}

#[derive(Clone, Copy, PartialEq)]
enum Kernel {
    Jacobi3d,
    Jacobi2d,
    RedBlack3d,
    RedBlack2dNaive,
    RedBlack2dFused,
    Resid,
    Timestep,
}

const KERNELS: [Kernel; 7] = [
    Kernel::Jacobi3d,
    Kernel::Jacobi2d,
    Kernel::RedBlack3d,
    Kernel::RedBlack2dNaive,
    Kernel::RedBlack2dFused,
    Kernel::Resid,
    Kernel::Timestep,
];

const TRANSFORMS: [Transform; 4] = [
    Transform::Orig,
    Transform::GcdPad,
    Transform::Pad,
    Transform::Tile,
];

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Jacobi3d => "jacobi3d",
            Kernel::Jacobi2d => "jacobi2d",
            Kernel::RedBlack3d => "redblack3d",
            Kernel::RedBlack2dNaive => "redblack2d",
            Kernel::RedBlack2dFused => "redblack2d-f",
            Kernel::Resid => "resid",
            Kernel::Timestep => "timestep",
        }
    }

    fn two_d(self) -> bool {
        matches!(
            self,
            Kernel::Jacobi2d | Kernel::RedBlack2dNaive | Kernel::RedBlack2dFused
        )
    }

    /// The shape driving plan selection (pads + tiles).
    fn plan_shape(self) -> StencilShape {
        match self {
            Kernel::Jacobi3d | Kernel::Timestep => StencilShape::jacobi3d(),
            Kernel::Jacobi2d => StencilShape::jacobi2d(),
            Kernel::RedBlack3d => StencilShape::redblack3d_fused(),
            Kernel::RedBlack2dNaive | Kernel::RedBlack2dFused => StencilShape::redblack2d(),
            Kernel::Resid => StencilShape::resid27(),
        }
    }
}

/// One realised cell: the model inputs plus the trace closure's data.
struct Cell {
    model: KernelModel,
    sched: PlanSchedule,
    prob: Problem,
}

/// Maps a transform row onto a kernel: padded allocation + optional tile.
/// 2D kernels take the pad but run untiled (the paper tiles only 3D
/// nests; `Tile` degrades to `Orig` for them).
fn realise(kernel: Kernel, t: Transform, l1_cache: CacheSpec) -> Cell {
    let n = if kernel.two_d() { N2D } else { N3D };
    let p = plan(t, l1_cache, n, n, &kernel.plan_shape());
    let (di, dj) = (p.padded_di, p.padded_dj);
    // 2D kernels take the pad but run untiled (the paper tiles only 3D
    // nests). 3D red-black realises its locality transform as *fusion*
    // (Fig 12's transformation): the skewed-tiled schedule's working set
    // sits exactly on the capacity boundary by construction (GcdPad
    // fills the cache and the skew widens the footprint by one row and
    // column), where a binary hit/miss classifier cannot be meaningful.
    let tile = if kernel.two_d() || kernel == Kernel::RedBlack3d {
        None
    } else {
        p.tile
    };
    let sched = match tile {
        Some((ti, tj)) => PlanSchedule::Tiled { ti, tj },
        None => PlanSchedule::Untiled,
    };
    let model = match kernel {
        Kernel::Jacobi3d => KernelModel::jacobi3d(),
        Kernel::Jacobi2d => KernelModel::jacobi2d(),
        Kernel::RedBlack3d if t == Transform::Orig => KernelModel::redblack_naive(),
        Kernel::RedBlack3d => KernelModel::redblack_fused(),
        Kernel::RedBlack2dNaive => KernelModel::redblack2d_naive(),
        Kernel::RedBlack2dFused => KernelModel::redblack2d_fused(),
        Kernel::Resid => KernelModel::resid(),
        Kernel::Timestep => KernelModel::timestep(2),
    };
    let prob = if kernel.two_d() {
        Problem {
            n,
            nk: 1,
            di,
            dj: n,
        }
    } else {
        Problem {
            n,
            nk: NK3D,
            di,
            dj,
        }
    };
    Cell { model, sched, prob }
}

/// Replays the cell's exact kernel trace into any sink.
fn replay<S: AccessSink>(kernel: Kernel, cell: &Cell, sink: &mut S) {
    let Problem { n, nk, di, dj } = cell.prob;
    let tile = match cell.sched {
        PlanSchedule::Tiled { ti, tj } => Some(TileDims { ti, tj }),
        PlanSchedule::Untiled => None,
    };
    match kernel {
        Kernel::Jacobi3d => jacobi3d::trace(n, n, nk, di, dj, tile, sink),
        Kernel::Jacobi2d => jacobi2d::trace(n, n, di, sink),
        Kernel::RedBlack3d => {
            let sched = if cell.model.fused3d {
                redblack::Schedule::Fused
            } else {
                redblack::Schedule::Naive
            };
            redblack::trace(n, nk, di, dj, sched, sink);
        }
        Kernel::RedBlack2dNaive => redblack2d::trace(n, di, redblack2d::Schedule2D::Naive, sink),
        Kernel::RedBlack2dFused => redblack2d::trace(n, di, redblack2d::Schedule2D::Fused, sink),
        Kernel::Resid => resid::trace(n, n, nk, di, dj, tile, sink),
        Kernel::Timestep => timestep::trace(n, n, nk, di, dj, tile, 2, sink),
    }
}

struct Row {
    kernel: &'static str,
    transform: &'static str,
    geom: &'static str,
    level: &'static str,
    sim_pct: f64,
    pred_pct: f64,
    bound: f64,
    sim_misses: f64,
    tol: f64,
}

fn run_matrix() -> Vec<Row> {
    let mut rows = Vec::new();
    for g in geometries() {
        let l1_cache = CacheSpec::from_bytes(g.l1.size_bytes);
        for kernel in KERNELS {
            for t in TRANSFORMS {
                let cell = realise(kernel, t, l1_cache);
                let mut h = Hierarchy::new(g.l1, g.l2);
                replay(kernel, &cell, &mut h);
                let (l1s, l2s) = (h.l1_stats(), h.l2_stats());
                let acc = l1s.accesses as f64;
                let p1 = predict_level(&cell.model, cell.sched, &cell.prob, &g.l1_model);
                let p2 = predict_level(&cell.model, cell.sched, &cell.prob, &g.l2_model);
                let b1 = lower_bound_misses(&cell.model, &cell.prob, &g.l1_model, 0);
                let b2 = lower_bound_misses(
                    &cell.model,
                    &cell.prob,
                    &g.l2_model,
                    g.l1_model.capacity_elements(),
                );
                // A cell the analyzer statically flags as pathological is
                // in the thrash regime: the contract there is the cliff
                // tolerance (detect the cliff, predict its magnitude to
                // first order), not the clean-cell tolerance.
                let tol1 = if p1.conflicts.pathological {
                    TOL_CLIFF
                } else {
                    g.tol_l1
                };
                let tol2 = if p2.conflicts.pathological {
                    TOL_CLIFF
                } else {
                    TOL_L2
                };
                rows.push(Row {
                    kernel: kernel.name(),
                    transform: t.name(),
                    geom: g.name,
                    level: "L1",
                    sim_pct: 100.0 * l1s.misses as f64 / acc,
                    pred_pct: 100.0 * p1.misses / p1.accesses,
                    bound: b1,
                    sim_misses: l1s.misses as f64,
                    tol: tol1,
                });
                rows.push(Row {
                    kernel: kernel.name(),
                    transform: t.name(),
                    geom: g.name,
                    level: "L2",
                    sim_pct: 100.0 * l2s.misses as f64 / acc,
                    pred_pct: 100.0 * p2.misses / p2.accesses,
                    bound: b2,
                    sim_misses: l2s.misses as f64,
                    tol: tol2,
                });
            }
        }
    }
    rows
}

/// The full matrix: per-level tolerance + bound contracts, every cell.
#[test]
fn static_predictions_match_cachesim_across_the_matrix() {
    let rows = run_matrix();
    let mut failures = Vec::new();
    let mut worst: f64 = 0.0;
    for r in &rows {
        let delta = (r.sim_pct - r.pred_pct).abs();
        worst = worst.max(delta - r.tol);
        println!(
            "{:>9} {:12} {:8} {:3}  sim {:6.2}%  pred {:6.2}%  (delta {:5.2} tol {:4.1})  bound {:>12.0} / sim {:>12.0}",
            r.geom, r.kernel, r.transform, r.level, r.sim_pct, r.pred_pct, delta, r.tol,
            r.bound, r.sim_misses
        );
        if delta > r.tol {
            failures.push(format!(
                "{} {} {} {}: simulated {:.2}% vs predicted {:.2}% (tol {})",
                r.geom, r.kernel, r.transform, r.level, r.sim_pct, r.pred_pct, r.tol
            ));
        }
        if r.bound > r.sim_misses + 0.5 {
            failures.push(format!(
                "{} {} {} {}: bound {:.0} exceeds simulated misses {:.0}",
                r.geom, r.kernel, r.transform, r.level, r.bound, r.sim_misses
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} matrix cells breached the contract:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// On the direct-mapped geometry the bound must sit below even the
/// *cold+capacity* share of simulated misses (conflict misses are extra).
#[test]
fn lower_bound_respects_cold_plus_capacity_on_direct_mapped_l1() {
    let g = geometries()[0];
    let l1_cache = CacheSpec::from_bytes(g.l1.size_bytes);
    for kernel in KERNELS {
        for t in [Transform::Orig, Transform::GcdPad] {
            let cell = realise(kernel, t, l1_cache);
            let mut tc = ThreeC::new(g.l1);
            replay(kernel, &cell, &mut tc);
            let cold_capacity = (tc.cold + tc.capacity) as f64;
            let bound = lower_bound_misses(&cell.model, &cell.prob, &g.l1_model, 0);
            assert!(
                bound <= cold_capacity + 0.5,
                "{} {}: bound {:.0} exceeds cold+capacity {:.0}",
                kernel.name(),
                t.name(),
                bound,
                cold_capacity
            );
        }
    }
}

/// The paper's disaster case: plane stride `0 mod span`. The analyzer
/// must flag it statically (typed ThrashGroup witness), predict the
/// cliff, and the simulator must confirm it; the 8-way geometry absorbs
/// the same padding, again both statically and in simulation.
#[test]
fn pathological_pad_cliff_is_predicted_and_confirmed() {
    let (n, nk, pad) = (250usize, 24usize, 256usize);
    let model = KernelModel::jacobi3d();
    let prob = Problem {
        n,
        nk,
        di: pad,
        dj: pad,
    };

    // Static: thrash witness + cliff on the direct-mapped L1.
    let lp = predict_level(
        &model,
        PlanSchedule::Untiled,
        &prob,
        &LevelGeometry::ultrasparc2_l1(),
    );
    let thrash: Vec<_> = lp
        .conflicts
        .witnesses
        .iter()
        .filter(|w| w.kind == WitnessKind::ThrashGroup)
        .collect();
    assert!(
        !thrash.is_empty(),
        "no ThrashGroup witness for the 0-mod-span pad"
    );
    let w = thrash[0];
    assert_eq!(w.period_iters, 1);
    assert!(w.lines > w.ways, "witness must name more lines than ways");
    println!(
        "ThrashGroup witness: refs {:?} in set window {:?}, {} lines vs {} ways",
        w.refs, w.set_window, w.lines, w.ways
    );
    assert!(lp.conflicts.pathological);
    let fa_pct = 100.0 * lp.fa_misses / lp.accesses;
    assert!(
        lp.miss_rate_pct > fa_pct + 25.0,
        "predicted no cliff: {:.2}% vs FA {:.2}%",
        lp.miss_rate_pct,
        fa_pct
    );

    // Simulated: the cliff is real on direct-mapped hardware.
    let mut h = Hierarchy::ultrasparc2();
    jacobi3d::trace(n, n, nk, pad, pad, None, &mut h);
    let sim_pct = h.l1_miss_rate_pct();
    println!(
        "pathological pad: sim {sim_pct:.2}% vs pred {:.2}% (FA model {fa_pct:.2}%)",
        lp.miss_rate_pct
    );
    assert!(
        sim_pct > fa_pct + 25.0,
        "simulator saw no cliff: {sim_pct:.2}% vs FA {fa_pct:.2}%"
    );
    assert!(
        (sim_pct - lp.miss_rate_pct).abs() < TOL_CLIFF,
        "cliff magnitude off: sim {sim_pct:.2}% vs pred {:.2}%",
        lp.miss_rate_pct
    );

    // The same padding on the 8-way geometry: statically clean...
    let lp8 = predict_level(
        &model,
        PlanSchedule::Untiled,
        &prob,
        &LevelGeometry::modern_l1(),
    );
    assert!(
        lp8.conflicts.thrash_refs.is_empty(),
        "8-way should absorb the thrash"
    );
    // ... and the simulated 8-way rate stays near its FA prediction.
    let g8 = geometries()[1];
    let mut h8 = Hierarchy::new(g8.l1, g8.l2);
    jacobi3d::trace(n, n, nk, pad, pad, None, &mut h8);
    let sim8 = h8.l1_miss_rate_pct();
    let pred8 = lp8.miss_rate_pct;
    assert!(
        (sim8 - pred8).abs() < TOL_L1_ASSOC,
        "8-way cell breached tolerance: sim {sim8:.2}% vs pred {pred8:.2}%"
    );
}
