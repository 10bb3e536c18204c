//! Integration tests for the beyond-the-core subsystems: the analytic miss
//! predictor vs the simulator, time skewing, the 2D baseline algorithms,
//! inter-variable padding, and the TLB model.

use tiling3d::cachesim::{Cache, CacheConfig, Hierarchy, Tlb};
use tiling3d::core::{
    histogram, plan, CacheSpec, CostModel, KernelModel, LevelGeometry, PlanSchedule, Problem,
    Transform,
};
use tiling3d::loopnest::StencilShape;
use tiling3d::stencil::kernels::{ArrayLayout, Kernel};

const C16K: CacheSpec = CacheSpec::ELEMENTS_16K_DOUBLES;

/// The analytic model's miss rate for one `n x n x nk` sweep on the
/// conflict-free 16KB level: fully associative, 32B lines, write-around.
fn predicted_pct(model: &KernelModel, sched: PlanSchedule, n: usize, nk: usize) -> f64 {
    histogram(
        model,
        sched,
        &Problem::cube(n, nk),
        &LevelGeometry::fa_16k(),
    )
    .miss_rate_pct_at(C16K.elements as f64)
}

/// The analytic model is a fully-associative LRU idealisation; it must
/// track the simulator *in that configuration* closely for untiled sweeps.
#[test]
fn predictor_matches_fully_associative_simulation_untiled() {
    let cases: [(Kernel, KernelModel); 2] = [
        (Kernel::Jacobi, KernelModel::jacobi3d()),
        (Kernel::Resid, KernelModel::resid()),
    ];
    for (kernel, model) in cases {
        for &n in &[216usize, 280] {
            let nk = 30;
            let mut cfg = CacheConfig::ULTRASPARC2_L1;
            cfg.ways = cfg.num_lines(); // fully associative LRU
            let mut fa = Cache::new(cfg);
            kernel.trace(n, nk, n, n, None, &mut fa);
            let sim_pct = fa.stats().miss_rate_pct();
            let pred = predicted_pct(&model, PlanSchedule::Untiled, n, nk);
            assert!(
                (sim_pct - pred).abs() < 1.0,
                "{} N={n}: fully-assoc simulated {sim_pct:.2}% vs predicted {pred:.2}%",
                kernel.name()
            );
        }
    }
}

/// The replacement-policy surprise the predictor work uncovered: in the
/// borderline working-set regime a direct-mapped cache *beats* the
/// fully-associative LRU cache on the RESID sweep, because modulo
/// placement resists LRU's cyclic eviction of the J-band.
#[test]
fn direct_mapped_beats_lru_in_the_borderline_regime() {
    let (n, nk) = (280usize, 30usize);
    let mut fa_cfg = CacheConfig::ULTRASPARC2_L1;
    fa_cfg.ways = fa_cfg.num_lines();
    let mut fa = Cache::new(fa_cfg);
    Kernel::Resid.trace(n, nk, n, n, None, &mut fa);
    let mut dm = Cache::new(CacheConfig::ULTRASPARC2_L1);
    Kernel::Resid.trace(n, nk, n, n, None, &mut dm);
    assert!(
        dm.stats().miss_rate_pct() + 3.0 < fa.stats().miss_rate_pct(),
        "direct-mapped {:.2}% should beat LRU {:.2}% here",
        dm.stats().miss_rate_pct(),
        fa.stats().miss_rate_pct()
    );
}

#[test]
fn predictor_matches_simulator_tiled() {
    // GcdPad plans are non-conflicting by construction, so the model's
    // conflict-free assumption holds outright.
    let kernel = Kernel::Jacobi;
    let model = KernelModel::jacobi3d();
    for &n in &[216usize, 280, 341] {
        let nk = 30;
        let p = plan(Transform::GcdPad, C16K, n, n, &kernel.shape());
        let (ti, tj) = p.tile.unwrap();
        let mut h = Hierarchy::ultrasparc2();
        kernel.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut h);
        let sim = h.l1_miss_rate_pct();
        let pred = predicted_pct(&model, PlanSchedule::Tiled { ti, tj }, n, nk);
        assert!(
            (sim - pred).abs() < 2.0,
            "N={n}: simulated {sim:.2}% vs predicted {pred:.2}%"
        );
    }
}

#[test]
fn predictor_ranks_transforms_like_the_simulator() {
    // The model's whole job: order schedules correctly. The FA simulation
    // at these sizes gives untiled 25.10%, (30,14) 19.22%, (1,1) 25.33%:
    // a degenerate tile is no better than not tiling, but only ~0.2pp
    // worse — its tiny halo columns are revisited within ~270 elements,
    // so LRU absorbs almost all the refetches the old closed-form cost
    // function charged. The histogram model ties the two at its class
    // resolution, so the ranking contract is `<=`, not `<`.
    let model = KernelModel::jacobi3d();
    let (n, nk) = (280usize, 30usize);
    let tiled = |ti, tj| predicted_pct(&model, PlanSchedule::Tiled { ti, tj }, n, nk);
    let untiled = predicted_pct(&model, PlanSchedule::Untiled, n, nk);
    let good_tile = tiled(30, 14);
    let degenerate = tiled(1, 1);
    assert!(good_tile < untiled);
    assert!(untiled <= degenerate);
    assert!(
        degenerate - good_tile > 5.0,
        "degenerate {degenerate:.2}% must stay far above the good tile {good_tile:.2}%"
    );
}

#[test]
fn two_d_baselines_are_consistent() {
    use tiling3d::core::tile2d::{esseghir_tall, euc2d, lrw_square};
    let cost = CostModel::new(2, 2);
    for &di in &[200usize, 300, 341, 500] {
        let e = euc2d(2048, di, cost);
        let l = lrw_square(2048, di, cost);
        let t = esseghir_tall(2048, di, cost).unwrap();
        // Euc selects by the cost model, so nothing beats it among the
        // three (it considers the square and near-tall candidates too).
        assert!(e.cost <= l.cost + 1e-9, "di={di}");
        assert!(e.cost <= t.cost + 1e-9, "di={di}");
    }
}

#[test]
fn intervar_padding_defuses_the_base_collision() {
    // K = 32 makes GCD-padded RESID arrays collide base-to-base under
    // consecutive allocation (see EXPERIMENTS.md); staggering must fix it.
    let kernel = Kernel::Resid;
    let (n, nk) = (300usize, 32usize);
    let p = plan(Transform::GcdPad, C16K, n, n, &kernel.shape());
    let rate = |layout: ArrayLayout| {
        let mut h = Hierarchy::ultrasparc2();
        kernel.trace_with_layout(n, nk, p.padded_di, p.padded_dj, p.tile, layout, &mut h);
        h.l1_miss_rate_pct()
    };
    let consecutive = rate(ArrayLayout::Consecutive);
    let staggered = rate(ArrayLayout::Staggered {
        cache_bytes: 16 * 1024,
        line_bytes: 32,
    });
    assert!(
        staggered < consecutive - 3.0,
        "staggering should cut several points: {consecutive:.2}% -> {staggered:.2}%"
    );
}

#[test]
fn tlb_pressure_is_orders_of_magnitude_below_l1_gains() {
    let kernel = Kernel::Jacobi;
    let (n, nk) = (300usize, 30usize);
    let orig = plan(Transform::Orig, C16K, n, n, &kernel.shape());
    let tiled = plan(Transform::GcdPad, C16K, n, n, &kernel.shape());
    let tlb_rate = |p: &tiling3d::core::TransformPlan| {
        let mut t = Tlb::ultrasparc2();
        kernel.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut t);
        t.stats().miss_rate_pct()
    };
    let l1_rate = |p: &tiling3d::core::TransformPlan| {
        let mut h = Hierarchy::ultrasparc2();
        kernel.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut h);
        h.l1_miss_rate_pct()
    };
    let tlb_cost = tlb_rate(&tiled) - tlb_rate(&orig);
    let l1_gain = l1_rate(&orig) - l1_rate(&tiled);
    assert!(
        tlb_cost >= 0.0,
        "tiling should not reduce TLB pressure here"
    );
    assert!(
        l1_gain > 10.0 * tlb_cost,
        "L1 gain ({l1_gain:.2}pp) should dwarf TLB cost ({tlb_cost:.2}pp)"
    );
}

#[test]
fn time_skewing_beats_per_sweep_tiling_on_the_simple_kernel_only() {
    use tiling3d::stencil::timeskew;
    // Simple kernel (bare time loop, 2D): skewing reuses across steps.
    let (n, steps) = (100usize, 12usize);
    let array_bytes = (n * n * 8) as u64;
    let bases = tiling3d::core::intervar::staggered_bases(2, array_bytes, 16 * 1024, 32);
    let bases = [bases[0], bases[1]];
    let read_misses = |skewed: bool| {
        let mut l1 = Cache::new(CacheConfig::ULTRASPARC2_L1);
        if skewed {
            timeskew::trace_time_skewed(n, n, steps, steps, 8, bases, &mut l1);
        } else {
            timeskew::trace_naive(n, n, steps, bases, &mut l1);
        }
        l1.stats().read_misses
    };
    assert!(read_misses(true) * 2 < read_misses(false));
}

#[test]
fn copying_never_changes_results_and_always_adds_traffic() {
    use tiling3d::cachesim::CountingSink;
    use tiling3d::grid::{fill_random, Array3};
    use tiling3d::loopnest::TileDims;
    use tiling3d::stencil::{copyopt, jacobi3d};
    let n = 16;
    let mut b = Array3::new(n, n, n);
    fill_random(&mut b, 5);
    let mut plain = Array3::new(n, n, n);
    jacobi3d::sweep(&mut plain, &b, 0.5, None);
    let mut copied = Array3::new(n, n, n);
    copyopt::sweep_tiled_copying(&mut copied, &b, 0.5, TileDims::new(5, 5));
    assert!(plain.logical_eq(&copied));

    let mut c1 = CountingSink::default();
    jacobi3d::trace(n, n, n, n, n, Some(TileDims::new(5, 5)), &mut c1);
    let mut c2 = CountingSink::default();
    copyopt::trace_tiled_copying(n, n, n, n, n, TileDims::new(5, 5), &mut c2);
    assert!(c2.reads + c2.writes > c1.reads + c1.writes);
}

#[test]
fn dependence_analysis_certifies_the_papers_schedules() {
    use tiling3d::loopnest::dependence::*;
    // Out-of-place kernels: tiling trivially legal.
    assert!(jj_ii_tiling_legal(&outofplace_dependences(
        &StencilShape::resid27()
    )));
    // In-place single-colour stencil: legal via full permutability.
    assert!(jj_ii_tiling_legal(&inplace_dependences(
        &StencilShape::redblack3d()
    )));
    // Time loops require skewing (the Song & Li case).
    let time_deps: Vec<Dependence> = StencilShape::jacobi2d()
        .offsets()
        .iter()
        .map(|&(di, dj, _)| Dependence {
            distance: (1, dj, di),
            kind: DepKind::Flow,
        })
        .collect();
    assert!(!jj_ii_tiling_legal(&time_deps));
    // After the J' = J + T skew every distance is non-negative.
    let skewed: Vec<Dependence> = time_deps
        .iter()
        .map(|d| Dependence {
            distance: (d.distance.0, d.distance.1 + d.distance.0, d.distance.2),
            kind: d.kind,
        })
        .collect();
    assert!(band_fully_permutable(&skewed, &[0, 1]));
}
