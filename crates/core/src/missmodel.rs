//! The static miss model: per-level cache-miss prediction and analytic
//! lower bounds for every certified schedule, with **no simulation**.
//!
//! This module composes the two halves of `tiling3d_loopnest::locality`
//! into end-to-end predictions:
//!
//! 1. **Fully-associative model** — [`histogram`] builds the symbolic
//!    reuse-distance histogram of a kernel × schedule × geometry, from
//!    which one [`ReuseHistogram::misses_at`] evaluation per cache level
//!    yields the conflict-free miss count. The paper's untiled and tiled
//!    closed forms (§2.3) are two points on this curve; evaluated on a
//!    [`LevelGeometry::fully_associative`] level it is the `predict`
//!    command's conflict-free model.
//!
//! 2. **Conflict correction** — [`predict_level`] assembles the
//!    schedule's *live set* (the address intervals whose residency the
//!    surviving reuse classes depend on) and the stencil's per-point
//!    reference group, runs [`analyze_conflicts`] against the level's
//!    set geometry, and charges the destroyed fraction of each reuse
//!    class plus a per-access penalty for thrash groups. This is what
//!    lets a *static* analysis see the paper's padding cliffs: a plane
//!    stride that is `0 mod span` puts the `K`-planes in the same sets
//!    as the centre columns and the prediction jumps from 25% to ~70%
//!    while the fully-associative model stays flat.
//!
//! 3. **Lower-bound oracle** — [`lower_bound_misses`] evaluates an
//!    analytic bound in the spirit of Hong–Kung / Hupp–Jacob: any cache
//!    of capacity `C` (any associativity, any replacement) must miss at
//!    least the distinct-line compulsory traffic, plus `(P - C)/L` per
//!    additional full sweep over a `P`-element array, plus the forced
//!    write traffic of the write policy. Reports therefore show
//!    `simulated / predicted / bound` per level, and CI asserts
//!    `bound <= simulated` everywhere.
//!
//! The model mirrors the layouts of `tiling3d-stencil`'s trace
//! generators (array base order, read batching, copy-back nests), so the
//! validation gate can hold predictions against `cachesim` within a few
//! percent across kernels × transforms × geometries.

use tiling3d_loopnest::locality::{
    analyze_conflicts, ClassKind, ConflictReport, LiveInterval, PointRef, ReuseHistogram,
    SetGeometry, WitnessKind,
};
use tiling3d_loopnest::StencilShape;

/// One cache level as the static analyzer sees it: capacity, line and
/// set geometry, and the write policy (the only parts of the simulator
/// configuration that the analytic model depends on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelGeometry {
    /// Display name (`"L1"`, `"L2"`).
    pub name: &'static str,
    /// Capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (1 = direct-mapped; `num_lines` = fully associative).
    pub ways: usize,
    /// True for write-allocate, false for write-around.
    pub write_allocate: bool,
}

impl LevelGeometry {
    /// Capacity in `f64` elements.
    pub fn capacity_elements(&self) -> usize {
        self.size_bytes / 8
    }

    /// Line length in `f64` elements.
    pub fn line_elems(&self) -> usize {
        self.line_bytes / 8
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    /// The level's set geometry for conflict analysis.
    pub fn set_geometry(&self) -> SetGeometry {
        SetGeometry {
            sets: self.sets(),
            line_elems: self.line_elems(),
            ways: self.ways,
        }
    }

    /// The paper's UltraSparc2 L1: 16KB direct-mapped, 32B lines,
    /// write-around.
    pub fn ultrasparc2_l1() -> Self {
        LevelGeometry {
            name: "L1",
            size_bytes: 16 * 1024,
            line_bytes: 32,
            ways: 1,
            write_allocate: false,
        }
    }

    /// The paper's UltraSparc2 L2: 2MB direct-mapped, 64B lines,
    /// write-allocate.
    pub fn ultrasparc2_l2() -> Self {
        LevelGeometry {
            name: "L2",
            size_bytes: 2 * 1024 * 1024,
            line_bytes: 64,
            ways: 1,
            write_allocate: true,
        }
    }

    /// A modern 32KB 8-way write-allocate L1 with 64B lines.
    pub fn modern_l1() -> Self {
        LevelGeometry {
            name: "L1",
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
            write_allocate: true,
        }
    }

    /// A modern 1MB 8-way write-allocate L2 with 64B lines.
    pub fn modern_l2() -> Self {
        LevelGeometry {
            name: "L2",
            size_bytes: 1024 * 1024,
            line_bytes: 64,
            ways: 8,
            write_allocate: true,
        }
    }

    /// A fully-associative LRU, write-around level: one set, so no set
    /// conflict is representable (the conflict-free machine model).
    pub fn fully_associative(size_bytes: usize, line_bytes: usize) -> Self {
        LevelGeometry {
            name: "L1",
            size_bytes,
            line_bytes,
            ways: (size_bytes / line_bytes).max(1),
            write_allocate: false,
        }
    }

    /// A fully-associative LRU level of the same capacity/line as the
    /// UltraSparc2 L1 (the conflict-free reference geometry).
    pub fn fa_16k() -> Self {
        Self::fully_associative(16 * 1024, 32)
    }
}

/// Static description of one kernel for the miss model: the stencil
/// shape plus the schedule facts that the trace generators realise
/// (array count and placement, passes, time steps, copy-back nests).
#[derive(Clone, Debug)]
pub struct KernelModel {
    /// Display name.
    pub name: &'static str,
    /// The stencil's read pattern on its main input array.
    pub shape: StencilShape,
    /// True when the output array is the input array.
    pub in_place: bool,
    /// Additional input arrays read once per point (RESID's `V`).
    pub extra_streams: usize,
    /// Full passes over the array per time step (2 for naive red-black).
    pub passes: u64,
    /// Time steps (each step = `passes` sweeps, plus the copy nest when
    /// `copy_back`).
    pub steps: u64,
    /// True for the TIMESTEP kernel's explicit copy nest (`B = A` after
    /// each sweep).
    pub copy_back: bool,
    /// True for 2D kernels (one plane, no `K` reuse).
    pub two_d: bool,
    /// Extra columns the fused 2D red-black schedule keeps in flight
    /// (the trailing opposite-colour column).
    pub fused_lag_cols: usize,
    /// Input-array reads actually issued per point. Usually
    /// `shape.reads_per_point()`, but the fused 3D schedule's shape is
    /// the *union* footprint of two colour updates (12 offsets) while
    /// each visited point issues only its own 7 reads.
    pub reads_per_point: usize,
    /// True for the fused 3D red-black schedule: its single pass is not a
    /// monotone sweep but a sequence of full-plane colour trips (red of
    /// `K+1`, then black of `K`), so each array line is touched by six
    /// trips per iteration at roughly three planes' reuse distance.
    pub fused3d: bool,
}

impl KernelModel {
    /// 3D Jacobi, `A = f(B)`.
    pub fn jacobi3d() -> Self {
        KernelModel {
            name: "jacobi3d",
            shape: StencilShape::jacobi3d(),
            in_place: false,
            extra_streams: 0,
            passes: 1,
            steps: 1,
            copy_back: false,
            two_d: false,
            fused_lag_cols: 0,
            reads_per_point: 6,
            fused3d: false,
        }
    }

    /// 2D Jacobi, `A = f(B)`.
    pub fn jacobi2d() -> Self {
        KernelModel {
            name: "jacobi2d",
            shape: StencilShape::jacobi2d(),
            two_d: true,
            reads_per_point: 4,
            ..Self::jacobi3d()
        }
    }

    /// Naive 3D red-black: in place, two colour passes.
    pub fn redblack_naive() -> Self {
        KernelModel {
            name: "redblack3d",
            shape: StencilShape::redblack3d(),
            in_place: true,
            passes: 2,
            reads_per_point: 7,
            ..Self::jacobi3d()
        }
    }

    /// Fused 3D red-black: in place, one pass over the ATD-4 shape; each
    /// visited point still issues the 7-point reads.
    pub fn redblack_fused() -> Self {
        KernelModel {
            name: "redblack3d-fused",
            shape: StencilShape::redblack3d_fused(),
            in_place: true,
            reads_per_point: 7,
            fused3d: true,
            ..Self::jacobi3d()
        }
    }

    /// Naive 2D red-black: in place, two colour passes.
    pub fn redblack2d_naive() -> Self {
        KernelModel {
            name: "redblack2d",
            shape: StencilShape::redblack2d(),
            in_place: true,
            passes: 2,
            two_d: true,
            reads_per_point: 5,
            ..Self::jacobi3d()
        }
    }

    /// Fused 2D red-black: in place, one pass with a trailing
    /// opposite-colour column in flight.
    pub fn redblack2d_fused() -> Self {
        KernelModel {
            name: "redblack2d-fused",
            shape: StencilShape::redblack2d(),
            in_place: true,
            two_d: true,
            fused_lag_cols: 1,
            reads_per_point: 5,
            ..Self::jacobi3d()
        }
    }

    /// RESID: `R = V - A (x) U`, 27-point.
    pub fn resid() -> Self {
        KernelModel {
            name: "resid",
            shape: StencilShape::resid27(),
            extra_streams: 1,
            reads_per_point: 27,
            ..Self::jacobi3d()
        }
    }

    /// TIMESTEP: `steps` Jacobi sweeps, each followed by a copy-back
    /// nest `B = A`.
    pub fn timestep(steps: u64) -> Self {
        KernelModel {
            name: "timestep",
            steps,
            copy_back: true,
            ..Self::jacobi3d()
        }
    }

    /// Sweeps over the input array (`passes * steps`).
    pub fn sweeps(&self) -> f64 {
        (self.passes * self.steps) as f64
    }

    /// Accesses per interior point per step, not counting the copy nest.
    pub fn accesses_per_point(&self) -> u64 {
        self.reads_per_point as u64 + self.extra_streams as u64 + 1
    }
}

/// Problem geometry: interior extent and allocated (possibly padded)
/// array dimensions. For 2D kernels use `nk = 1` and `dj = n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Problem {
    /// Interior extent in `I` and `J` (`n x n` per plane).
    pub n: usize,
    /// Interior extent in `K` (1 for 2D kernels).
    pub nk: usize,
    /// Allocated leading dimension (`>= n`).
    pub di: usize,
    /// Allocated second dimension (`>= n`).
    pub dj: usize,
}

impl Problem {
    /// An unpadded `n x n x nk` problem.
    pub fn cube(n: usize, nk: usize) -> Self {
        Problem {
            n,
            nk,
            di: n,
            dj: n,
        }
    }

    /// The same problem with padded allocated dimensions.
    pub fn with_alloc(self, di: usize, dj: usize) -> Self {
        Problem { di, dj, ..self }
    }

    /// Interior points updated per full sweep set.
    pub fn points(&self, model: &KernelModel) -> f64 {
        let nn = ((self.n - 2) * (self.n - 2)) as f64;
        if model.two_d {
            nn
        } else {
            nn * (self.nk - 2) as f64
        }
    }

    /// Allocated elements of one array.
    pub fn alloc_elements(&self, model: &KernelModel) -> f64 {
        if model.two_d {
            (self.di * self.n) as f64
        } else {
            (self.di * self.dj * self.nk) as f64
        }
    }

    /// Plane stride in elements.
    pub fn plane_stride(&self) -> usize {
        self.di * self.dj
    }
}

/// The schedule dimension of the model: untiled sweep or the paper's
/// `(TI, TJ)` iteration tiling (Fig 6 JJ/II schedule).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSchedule {
    /// Plain `K/J/I` sweep.
    Untiled,
    /// Tiled with iteration tile `(ti, tj)`.
    Tiled {
        /// Iteration-tile extent in `I`.
        ti: usize,
        /// Iteration-tile extent in `J`.
        tj: usize,
    },
}

/// Reuse distance assigned to within-line spatial reuse: a handful of
/// row positions across the reference group. Any real capacity exceeds
/// it; only a zero-size cache would not.
fn spatial_distance(le: f64) -> f64 {
    8.0 * le
}

/// Element base of the main *input* array in the trace generators'
/// layout (out-of-place kernels allocate the output first).
fn input_base(model: &KernelModel, prob: &Problem) -> f64 {
    if model.in_place {
        0.0
    } else {
        prob.alloc_elements(model)
    }
}

/// The per-`dk` column groups of a shape: `(dk, min_dj, span)` per
/// distinct plane offset, ordered by `dk`.
fn plane_groups(shape: &StencilShape) -> Vec<(i32, i32, usize)> {
    let dks: std::collections::BTreeSet<i32> = shape.offsets().iter().map(|o| o.2).collect();
    dks.into_iter()
        .map(|dk| {
            let djs: Vec<i32> = shape
                .offsets()
                .iter()
                .filter(|o| o.2 == dk)
                .map(|o| o.1)
                .collect();
            let lo = *djs.iter().min().unwrap();
            let hi = *djs.iter().max().unwrap();
            (dk, lo, (hi - lo) as usize)
        })
        .collect()
}

/// Joint column working set of the untiled sweep in elements, including
/// streaming companions: the reuse distance of the `J`-direction group
/// reuse.
fn j_reuse_distance(model: &KernelModel, prob: &Problem, write_col: bool) -> f64 {
    let cols: usize = plane_groups(&model.shape).iter().map(|g| g.2 + 1).sum();
    let companions = model.extra_streams + model.fused_lag_cols + usize::from(write_col);
    ((cols + companions) * prob.di) as f64
}

/// Builds the symbolic reuse-distance histogram of one kernel ×
/// schedule × problem for a level's line length and write policy.
///
/// The histogram is the *fully-associative LRU* model: evaluating
/// [`ReuseHistogram::misses_at`] at any capacity yields the conflict-free
/// miss count there, so one call covers every cache level with the same
/// line length.
pub fn histogram(
    model: &KernelModel,
    sched: PlanSchedule,
    prob: &Problem,
    level: &LevelGeometry,
) -> ReuseHistogram {
    let le = level.line_elems() as f64;
    let wa = level.write_allocate;
    let p = prob.points(model);
    let steps = model.steps as f64;
    let sweeps = model.sweeps();
    let alloc = prob.alloc_elements(model);
    let atd = model.shape.atd() as f64;
    let d_s = spatial_distance(le);
    // Inter-sweep distance: the whole live footprint between two passes
    // over the input array (both arrays for out-of-place kernels).
    let d_pass = if model.in_place { alloc } else { 2.0 * alloc };

    let total_reads = model.reads_per_point as f64 * p * steps;
    let mut h = ReuseHistogram::new(
        p * steps * model.accesses_per_point() as f64
            + if model.copy_back {
                2.0 * p * steps
            } else {
                0.0
            },
    );

    h.push("cold", ClassKind::Cold, f64::INFINITY, p / le);
    h.push(
        "inter-sweep",
        ClassKind::Pass,
        d_pass,
        (sweeps - 1.0) * p / le,
    );
    let mut fetch = p / le + (sweeps - 1.0) * p / le;

    match sched {
        PlanSchedule::Untiled if model.fused3d => {
            // Fused 3D red-black: the single pass is a sequence of
            // full-plane colour trips (red of `K+1`, black of `K`), and
            // a line of plane `K` is touched by the six trips whose
            // centre is `K-1`, `K`, or `K+1`. Consecutive touches are
            // 1-2 trips apart, each trip spanning ~3 planes of lines:
            // one fetch plus five refetches when 3 planes don't fit —
            // the fusion payoff is exactly that this distance is
            // O(planes), not O(array) like the naive inter-pass reuse.
            let d_k = (atd - 1.0) * prob.plane_stride() as f64;
            let trip_count = sweeps * 5.0 * p / le;
            h.push("trip refetch", ClassKind::Plane, d_k, trip_count);
            fetch += trip_count;
            // Within a trip, rows `j-1`/`j+1` re-touch the centre row's
            // lines a few rows later.
            let j_count = sweeps * 2.0 * p / le;
            h.push("J-reuse", ClassKind::Column, 3.0 * prob.di as f64, j_count);
            fetch += j_count;
        }
        PlanSchedule::Untiled => {
            let d_k = (atd - 1.0) * prob.plane_stride() as f64;
            let d_j = j_reuse_distance(model, prob, wa && !model.in_place);
            if !model.two_d {
                let k_count = sweeps * (atd - 1.0) * p / le;
                h.push("K-reuse", ClassKind::Plane, d_k, k_count);
                fetch += k_count;
            }
            let cols: usize = plane_groups(&model.shape).iter().map(|g| g.2 + 1).sum();
            let j_count = sweeps * (cols as f64 - atd) * p / le;
            h.push("J-reuse", ClassKind::Column, d_j, j_count);
            fetch += j_count;
        }
        PlanSchedule::Tiled { ti, tj } => {
            let (ti, tj) = (ti as f64, tj as f64);
            let (m, n) = (model.shape.m() as f64, model.shape.n() as f64);
            let cost = (ti + m) * (tj + n) / (ti * tj);
            let atf = (ti + m) * (tj + n);
            let companions = (model.extra_streams + usize::from(wa && !model.in_place)) as f64;
            // One iteration tile's K-sweep footprint: the reuse distance
            // of the halo rows shared with the next II tile.
            let d_halo_i = (atf + companions * ti * tj) * prob.nk as f64;
            // Halo columns shared across JJ tiles return after a full II
            // row of tiles.
            let tiles_i = ((prob.n as f64 - 2.0) / ti).max(1.0);
            let d_halo_j = tiles_i * d_halo_i;
            let hi_count = sweeps * (m * (tj + n)) / (ti * tj) * p / le;
            let hj_count = sweeps * (n * ti) / (ti * tj) * p / le;
            h.push("halo-I", ClassKind::Column, d_halo_i, hi_count);
            h.push("halo-J", ClassKind::Column, d_halo_j, hj_count);
            fetch += hi_count + hj_count;
            // Within-tile K and J reuse (the reuse the tile was sized to
            // protect): distances are the tile working sets. In a cache
            // with more than one set, each unaligned tile row spills on
            // average ~(le-1)/2 elements of occupancy into neighbouring
            // sets — for cache-filling tiles (Euc3D/Pad select the
            // largest fitting tile) this set-pressure slop decides
            // whether the working set really fits. A fully-associative
            // cache has no sets to overflow, so no slop there.
            let slop = tile_row_slop(level);
            let rows = atd * (tj + n) + companions * tj;
            let d1 = atd * atf + companions * ti * tj + rows * slop;
            let cws_tile: f64 = plane_groups(&model.shape)
                .iter()
                .map(|g| (g.2 + 1) as f64)
                .sum::<f64>()
                * (ti + m);
            let d_tj = (cws_tile + companions * ti).min(d1);
            if !model.two_d {
                let k_count = sweeps * (atd - 1.0) * cost * p / le;
                h.push("K-reuse", ClassKind::Plane, d1, k_count);
                fetch += k_count;
            }
            let j_count = sweeps * (cws_tile / ti - atd * cost).max(0.0) * p / le;
            h.push("J-reuse", ClassKind::Column, d_tj, j_count);
            fetch += j_count;
        }
    }
    h.push(
        "I-reuse",
        ClassKind::Spatial,
        d_s,
        (total_reads - fetch).max(0.0),
    );

    // Extra streaming arrays (RESID's V): cold + spatial only.
    if model.extra_streams > 0 {
        let s = model.extra_streams as f64;
        h.push(
            "stream cold",
            ClassKind::Cold,
            f64::INFINITY,
            s * p * steps / le,
        );
        h.push(
            "stream spatial",
            ClassKind::Spatial,
            d_s,
            s * p * steps * (le - 1.0) / le,
        );
    }

    // Writes.
    if model.copy_back {
        // TIMESTEP: sweep writes A, copy reads A and writes B.
        let d_step = 2.0 * alloc;
        if wa {
            h.push("A write cold", ClassKind::Cold, f64::INFINITY, p / le);
            h.push(
                "A write inter-step",
                ClassKind::Pass,
                d_step,
                (steps - 1.0) * p / le,
            );
            h.push(
                "A write spatial",
                ClassKind::Spatial,
                d_s,
                steps * p * (le - 1.0) / le,
            );
            h.push("copy read A", ClassKind::Pass, d_step, steps * p / le);
            h.push(
                "copy read spatial",
                ClassKind::Spatial,
                d_s,
                steps * p * (le - 1.0) / le,
            );
            h.push("copy write B", ClassKind::Pass, d_step, steps * p / le);
            h.push(
                "copy write spatial",
                ClassKind::Spatial,
                d_s,
                steps * p * (le - 1.0) / le,
            );
        } else {
            // Write-around: writes only hit lines already resident from
            // reads; non-resident lines take one miss per *element*.
            h.push("A write cold", ClassKind::Uncached, f64::INFINITY, p);
            h.push(
                "A write inter-step",
                ClassKind::Pass,
                d_step,
                (steps - 1.0) * p,
            );
            h.push("copy read A cold", ClassKind::Cold, f64::INFINITY, p / le);
            h.push(
                "copy read A",
                ClassKind::Pass,
                d_step,
                (steps - 1.0) * p / le,
            );
            h.push(
                "copy read spatial",
                ClassKind::Spatial,
                d_s,
                steps * p * (le - 1.0) / le,
            );
            h.push("copy write B", ClassKind::Pass, d_step, steps * p);
        }
    } else if model.in_place {
        // The centre read just touched the line.
        h.push("writes (in place)", ClassKind::Spatial, 2.0, p * steps);
    } else if wa {
        h.push("write cold", ClassKind::Cold, f64::INFINITY, p * steps / le);
        h.push(
            "write spatial",
            ClassKind::Spatial,
            d_s,
            p * steps * (le - 1.0) / le,
        );
    } else {
        // Write-around to a never-read output array: never allocated.
        h.push("writes", ClassKind::Uncached, f64::INFINITY, p * steps);
    }
    h
}

/// Labels for the per-point reference group (interned so the conflict
/// report can carry `&'static str` provenance).
fn ref_label(off: (i32, i32, i32)) -> &'static str {
    match off {
        (0, 0, 0) => "in(0,0,0)",
        (-1, 0, 0) => "in(-1,0,0)",
        (1, 0, 0) => "in(+1,0,0)",
        (0, -1, 0) => "in(0,-1,0)",
        (0, 1, 0) => "in(0,+1,0)",
        (0, 0, -1) => "in(0,0,-1)",
        (0, 0, 1) => "in(0,0,+1)",
        (_, _, -1) => "in(*,*,-1)",
        (_, _, 1) => "in(*,*,+1)",
        (_, _, 0) => "in(*,*,0)",
        _ => "in(*,*,*)",
    }
}

/// The stencil's per-point reference group as absolute element offsets
/// (input reads, streaming arrays, and — under write-allocate — the
/// output reference).
fn point_refs(model: &KernelModel, prob: &Problem, wa: bool) -> Vec<PointRef> {
    let base = input_base(model, prob) as i64;
    let (di, ps) = (prob.di as i64, prob.plane_stride() as i64);
    let mut refs: Vec<PointRef> = model
        .shape
        .offsets()
        .iter()
        .map(|&(a, b, c)| PointRef {
            label: ref_label((a, b, c)),
            offset: base + i64::from(a) + i64::from(b) * di + i64::from(c) * ps,
        })
        .collect();
    if model.extra_streams > 0 {
        refs.push(PointRef {
            label: "stream V",
            offset: 2 * prob.alloc_elements(model) as i64,
        });
    }
    // The output stream can only evict lines if stores install them:
    // under write-around the out array never enters the cache, so it is
    // invisible to conflict analysis no matter how its sets align.
    if wa && !model.in_place {
        refs.push(PointRef {
            label: "out",
            offset: 0,
        });
    }
    refs
}

/// The live set whose residency the surviving reuse classes depend on at
/// capacity `cap`: planes when `K`-reuse is alive, else column bands and
/// row streams when `J`-reuse is alive, plus streaming companions.
/// Per-tile-row set-occupancy slop (elements): unaligned row segments
/// spill ~(le-1)/2 elements into neighbouring sets. Zero for a
/// fully-associative level, which has no sets to overflow.
fn tile_row_slop(level: &LevelGeometry) -> f64 {
    if level.sets() > 1 {
        ((level.line_elems() as f64 - 1.0) / 2.0).floor()
    } else {
        0.0
    }
}

fn live_intervals(
    model: &KernelModel,
    sched: PlanSchedule,
    prob: &Problem,
    cap: f64,
    level: &LevelGeometry,
    wa: bool,
) -> Vec<LiveInterval> {
    let base = input_base(model, prob) as i64;
    let (di, ps) = (prob.di as i64, prob.plane_stride() as i64);
    let mut iv: Vec<LiveInterval> = Vec::new();
    let atd = model.shape.atd() as f64;
    match sched {
        PlanSchedule::Untiled => {
            let d_k = (atd - 1.0) * ps as f64;
            let d_j = j_reuse_distance(model, prob, wa && !model.in_place);
            if !model.two_d && d_k <= cap && d_k > 0.0 {
                for (dk, _lo, _span) in plane_groups(&model.shape) {
                    iv.push(LiveInterval {
                        label: "plane",
                        start: base + i64::from(dk) * ps,
                        len: ps as usize,
                        protects: Some(ClassKind::Plane),
                    });
                }
            } else if d_j <= cap {
                for (dk, lo, span) in plane_groups(&model.shape) {
                    if span > 0 {
                        iv.push(LiveInterval {
                            label: "column band",
                            start: base + i64::from(dk) * ps + i64::from(lo) * di,
                            len: (span + 1) * di as usize,
                            protects: Some(ClassKind::Column),
                        });
                    } else {
                        iv.push(LiveInterval {
                            label: "plane stream",
                            start: base + i64::from(dk) * ps + i64::from(lo) * di,
                            len: di as usize,
                            protects: None,
                        });
                    }
                }
            } else {
                return iv; // only spatial reuse left: thrash analysis covers it
            }
        }
        PlanSchedule::Tiled { ti, tj } => {
            let (m, n) = (model.shape.m() as i64, model.shape.n() as i64);
            // Same working-set figure as the histogram's `d1`, slop
            // included: tiles that spill at line granularity keep no
            // residency worth protecting.
            let companions = (model.extra_streams + usize::from(wa && !model.in_place)) as f64;
            let (tif, tjf) = (ti as f64, tj as f64);
            let slop = tile_row_slop(level);
            let rows = atd * (tjf + n as f64) + companions * tjf;
            let d1 = atd * ((ti as i64 + m) * (tj as i64 + n)) as f64
                + companions * tif * tjf
                + rows * slop;
            if d1 > cap {
                return iv;
            }
            let dk_lo = i64::from(model.shape.offsets().iter().map(|o| o.2).min().unwrap());
            for dk in 0..model.shape.atd() as i64 {
                for jc in 0..(tj as i64 + n) {
                    iv.push(LiveInterval {
                        label: if dk == -dk_lo {
                            "tile band"
                        } else {
                            "tile plane"
                        },
                        start: base + (dk + dk_lo) * ps + (jc - n / 2) * di,
                        len: ti + m as usize,
                        protects: Some(if dk == -dk_lo {
                            ClassKind::Column
                        } else {
                            ClassKind::Plane
                        }),
                    });
                }
            }
        }
    }
    let row = match sched {
        PlanSchedule::Untiled => di as usize,
        PlanSchedule::Tiled { ti, .. } => ti,
    };
    if model.extra_streams > 0 {
        iv.push(LiveInterval {
            label: "stream V",
            start: 2 * prob.alloc_elements(model) as i64,
            len: row,
            protects: None,
        });
    }
    if wa && !model.in_place {
        iv.push(LiveInterval {
            label: "out stream",
            start: 0,
            len: row,
            protects: None,
        });
    }
    iv
}

/// A complete per-level static prediction.
#[derive(Clone, Debug)]
pub struct LevelPrediction {
    /// Level display name.
    pub level: &'static str,
    /// Predicted misses including the conflict correction.
    pub misses: f64,
    /// The fully-associative (conflict-free) component.
    pub fa_misses: f64,
    /// Extra misses charged to set-index interference.
    pub conflict_extra: f64,
    /// Total accesses of the modelled stream.
    pub accesses: f64,
    /// `100 * misses / accesses`.
    pub miss_rate_pct: f64,
    /// The conflict analysis backing `conflict_extra`.
    pub conflicts: ConflictReport,
    /// Analytic lower bound on the level's misses (any placement, any
    /// replacement).
    pub bound_misses: f64,
}

/// Predicts one cache level: fully-associative histogram + conflict
/// correction + lower bound.
pub fn predict_level(
    model: &KernelModel,
    sched: PlanSchedule,
    prob: &Problem,
    level: &LevelGeometry,
) -> LevelPrediction {
    let h = histogram(model, sched, prob, level);
    let cap = level.capacity_elements() as f64;
    let fa = h.misses_at(cap);
    let le = level.line_elems() as f64;
    let geom = level.set_geometry();
    let refs = point_refs(model, prob, level.write_allocate);
    let intervals = live_intervals(model, sched, prob, cap, level, level.write_allocate);
    let conflicts = analyze_conflicts(&geom, &refs, &intervals, prob.di);
    let p = prob.points(model);
    let steps = model.steps as f64;
    // Each point's accesses walk the group's distinct colliding lines in
    // turn, so a thrashing set costs one miss per *line transition* per
    // point — `lines` per point, regardless of how many refs share each
    // line — minus the 1/le fetch the conflict-free model already counts.
    let thrash_extra: f64 = conflicts
        .witnesses
        .iter()
        .filter(|w| w.kind == WitnessKind::ThrashGroup)
        .map(|w| w.lines as f64 * p * steps * (1.0 - 1.0 / le))
        .sum();
    // Interference kills a measured fraction of each protected class that
    // the fully-associative model counted as hits. Once a majority of a
    // class dies the regime is pathological: the interfering references
    // co-advance with the protected band, so the kill windows sweep the
    // whole band over a column lifetime and the static partial-survivor
    // estimate is transient — escalate to a full kill.
    let escalate = |k: f64| if k >= 0.5 { 1.0 } else { k };
    let kill_extra = escalate(conflicts.column_kill) * h.surviving_count(ClassKind::Column, cap)
        + escalate(conflicts.plane_kill) * h.surviving_count(ClassKind::Plane, cap);
    let misses = (fa + thrash_extra + kill_extra).min(h.accesses);
    let bound = lower_bound_misses(model, prob, level, 0);
    LevelPrediction {
        level: level.name,
        misses,
        fa_misses: fa,
        conflict_extra: misses - fa,
        accesses: h.accesses,
        miss_rate_pct: 100.0 * misses / h.accesses,
        conflicts,
        bound_misses: bound,
    }
}

/// Analytic lower bound on the misses of *any* cache of this level's
/// capacity and line length — any associativity, any placement, any
/// replacement policy (including OPT).
///
/// Derivation (Hong–Kung partitioning, in the form Hupp & Jacob use for
/// stencil sweeps):
///
/// * **Compulsory**: each array's distinct lines must be fetched once.
///   We count `P/L` per touched array — an underestimate of the true
///   footprint (which includes halos), hence safe.
/// * **Capacity**: between two consecutive full sweeps over an array of
///   `E >= P` elements, at most `C + U` elements can persist in the
///   hierarchy up to this level (`U` = upstream capacity); at least
///   `(P - C - U)/L` lines must be refetched per extra sweep.
/// * **Forced writes**: under write-around, a store can only hit a line
///   that reads made resident; stores to a never-read output array must
///   all miss. Under write-allocate the output costs its compulsory
///   lines instead.
///
/// `upstream_elements` is 0 for L1; for L2 pass the L1 capacity (lines
/// can persist in either level between sweeps).
pub fn lower_bound_misses(
    model: &KernelModel,
    prob: &Problem,
    level: &LevelGeometry,
    upstream_elements: usize,
) -> f64 {
    let le = level.line_elems() as f64;
    let cap = (level.capacity_elements() + upstream_elements) as f64;
    let p = prob.points(model);
    let steps = model.steps as f64;
    let refetch = (p - cap).max(0.0) / le;
    // Input array: compulsory + one capacity term per extra full sweep.
    let mut bound = p / le + (model.sweeps() - 1.0) * refetch;
    // Streaming arrays: compulsory.
    bound += model.extra_streams as f64 * p / le;
    if model.copy_back {
        // A is fully read by each copy nest: compulsory + capacity terms.
        bound += p / le + (steps - 1.0) * refetch;
        if !level.write_allocate {
            // A's first-step stores precede any read of A: all must miss.
            bound += p;
        }
    } else if !model.in_place {
        if level.write_allocate {
            bound += p * steps / le;
        } else {
            // Output array is never read: every store misses.
            bound += p * steps;
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us2_l1() -> LevelGeometry {
        LevelGeometry::ultrasparc2_l1()
    }

    /// Capacity of the paper's 16KB L1 in doubles.
    const C16K: f64 = 2048.0;

    /// Miss rate of one sweep on the conflict-free 16KB level (fully
    /// associative, 4-double lines, write-around) of the closed forms.
    fn fa_pct(m: &KernelModel, sched: PlanSchedule, n: usize, nk: usize) -> f64 {
        histogram(m, sched, &Problem::cube(n, nk), &LevelGeometry::fa_16k()).miss_rate_pct_at(C16K)
    }

    /// Joint column working set (in elements) of the untiled sweep: for
    /// each distinct `dk` plane group, `(J-span + 1)` columns of length
    /// `di` — the J-reuse test of the historical closed forms.
    fn column_working_set(shape: &StencilShape, di: usize) -> usize {
        let mut total_cols = 0usize;
        let dks: std::collections::BTreeSet<i32> = shape.offsets().iter().map(|o| o.2).collect();
        for dk in dks {
            let djs: Vec<i32> = shape
                .offsets()
                .iter()
                .filter(|o| o.2 == dk)
                .map(|o| o.1)
                .collect();
            let span = (djs.iter().max().unwrap() - djs.iter().min().unwrap()) as usize;
            total_cols += span + 1;
        }
        total_cols * di
    }

    #[test]
    fn jacobi_untiled_closed_form() {
        // K-reuse lost, J-reuse alive (5 columns x 8B x N fits for
        // N <= 409): refetch = ATD = 3 -> (3/4 + 1 write)/7 = 25%.
        let pct = fa_pct(&KernelModel::jacobi3d(), PlanSchedule::Untiled, 300, 30);
        assert!((pct - 25.0).abs() < 0.01, "{pct}");
    }

    #[test]
    fn resid_untiled_closed_form() {
        let resid = |n| fa_pct(&KernelModel::resid(), PlanSchedule::Untiled, n, 30);
        // Joint working set = 9 stencil columns + 1 V column = 10 cols =
        // 24KB at N=300 > 16KB: J-reuse dead -> refetch = 9 ->
        // (9/4 + 1/4 + 1)/29 = 12.07%.
        let pct = resid(300);
        assert!((pct - 100.0 * 3.5 / 29.0).abs() < 0.01, "{pct}");
        // At small N the same kernel keeps J-reuse: 6.9%. The boundary is
        // 10 * N <= 2048, i.e. N = 204.
        let pct = resid(130);
        assert!((pct - 100.0 * 2.0 / 29.0).abs() < 0.01, "{pct}");
        assert!(resid(204) < resid(205) - 4.0);
    }

    #[test]
    fn small_problems_keep_all_reuse() {
        // N = 30: two 900-element planes fit in 2048 -> one fetch per
        // sweep: (1/4 + 1)/7 = 17.9%.
        let pct = fa_pct(&KernelModel::jacobi3d(), PlanSchedule::Untiled, 30, 30);
        assert!((pct - 100.0 * 1.25 / 7.0).abs() < 0.01, "{pct}");
    }

    #[test]
    fn column_working_sets() {
        // Jacobi: plane k has J-span 2 (3 cols), planes k+-1 span 0.
        assert_eq!(column_working_set(&StencilShape::jacobi3d(), 100), 500);
        // RESID: three planes, span 2 each.
        assert_eq!(column_working_set(&StencilShape::resid27(), 100), 900);
    }

    #[test]
    fn tiled_prediction_uses_the_cost_function() {
        let m = KernelModel::jacobi3d();
        let pct = fa_pct(&m, PlanSchedule::Tiled { ti: 30, tj: 14 }, 300, 30);
        // (32*16)/(30*14)/4 + 1 write per point, over 7 accesses.
        let expect = 100.0 * (512.0 / 420.0 / 4.0 + 1.0) / 7.0;
        assert!((pct - expect).abs() < 0.01, "{pct}");
        // Tiling must beat the untiled prediction.
        assert!(pct < fa_pct(&m, PlanSchedule::Untiled, 300, 30));
    }

    #[test]
    fn in_place_kernels_do_not_pay_write_misses() {
        let sweep = |m: &KernelModel| {
            let fa = LevelGeometry::fa_16k();
            histogram(m, PlanSchedule::Untiled, &Problem::cube(300, 30), &fa)
        };
        let rb = sweep(&KernelModel::redblack_naive());
        let j = sweep(&KernelModel::jacobi3d());
        // Same refetch structure, but red-black's misses are reads only
        // (two passes) while Jacobi pays a write miss per point.
        assert!(rb.misses_at(C16K) < 2.0 * j.misses_at(C16K));
        assert!(rb.miss_rate_pct_at(C16K) < 20.0);
    }

    /// The pre-miss-model closed forms, reimplemented verbatim: the
    /// fully-associative histogram must reproduce them exactly on every
    /// shared case (array larger than cache, so the inter-sweep class
    /// misses — the only regime the historical formulas modelled).
    #[test]
    fn histogram_agrees_with_the_historical_closed_forms() {
        fn old_untiled(m: &KernelModel, n: usize, nk: usize) -> f64 {
            let (di, dj, cache) = (n, n, C16K as usize);
            let p = ((n - 2) * (n - 2) * (nk - 2)) as f64;
            let atd = m.shape.atd();
            let refetch = if (atd.saturating_sub(1)) * di * dj <= cache {
                1.0
            } else if column_working_set(&m.shape, di) + m.extra_streams * di <= cache {
                atd as f64
            } else {
                column_working_set(&m.shape, 1) as f64
            };
            let misses = m.passes as f64 * refetch * p / 4.0
                + m.extra_streams as f64 * p / 4.0
                + if m.in_place { 0.0 } else { p };
            100.0 * misses / (p * m.accesses_per_point() as f64)
        }
        // The fused red-black sweep as the closed forms saw it: one
        // monotone pass issuing all 12 reads of the ATD-4 union shape.
        let fused_one_pass = KernelModel {
            reads_per_point: 12,
            fused3d: false,
            ..KernelModel::redblack_fused()
        };
        for m in [
            KernelModel::jacobi3d(),
            KernelModel::redblack_naive(),
            fused_one_pass,
            KernelModel::resid(),
        ] {
            for (n, nk) in [
                (30, 30),
                (130, 30),
                (204, 30),
                (205, 30),
                (280, 24),
                (300, 30),
            ] {
                let new = fa_pct(&m, PlanSchedule::Untiled, n, nk);
                let old = old_untiled(&m, n, nk);
                assert!(
                    (new - old).abs() < 1e-9,
                    "{} N={n}: histogram {new} vs historical {old}",
                    m.name
                );
            }
        }
        // Tiled: the cost function, for tiles whose working set fits.
        for m in [KernelModel::jacobi3d(), KernelModel::resid()] {
            for (ti, tj) in [(30, 14), (22, 13), (16, 16)] {
                let p = f64::from(298 * 298 * 28);
                let cost = crate::CostModel::from_shape(&m.shape).eval(ti as i64, tj as i64);
                let old_misses = p * cost / 4.0
                    + m.extra_streams as f64 * p / 4.0
                    + if m.in_place { 0.0 } else { p };
                let old = 100.0 * old_misses / (p * m.accesses_per_point() as f64);
                let new = fa_pct(&m, PlanSchedule::Tiled { ti, tj }, 300, 30);
                assert!(
                    (new - old).abs() < 1e-9,
                    "{} tile ({ti},{tj}): histogram {new} vs historical {old}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn predictions_match_the_simulator_at_clean_sizes() {
        use tiling3d_cachesim::Hierarchy;
        // N = 280: a conflict-clean size (the simulator measures 25.1%
        // there; N = 300 carries ~7pp of partial plane-stride conflicts,
        // which a conflict-free model rightly does not predict).
        let (n, nk) = (280usize, 30usize);

        // JACOBI untiled.
        let mut h = Hierarchy::ultrasparc2();
        jacobi_trace(n, nk, &mut h);
        let sim = h.l1_miss_rate_pct();
        let pred = fa_pct(&KernelModel::jacobi3d(), PlanSchedule::Untiled, n, nk);
        assert!(
            (sim - pred).abs() < 1.5,
            "JACOBI untiled: simulated {sim:.2}% vs predicted {pred:.2}%"
        );
    }

    /// Minimal local trace of untiled Jacobi so this crate's tests do not
    /// depend on `tiling3d-stencil` (which depends back on this crate).
    fn jacobi_trace<S: tiling3d_cachesim::AccessSink>(n: usize, nk: usize, sink: &mut S) {
        let (di, ps) = (n, n * n);
        let b_base = (ps * nk * 8) as u64;
        for k in 1..nk - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let idx = (i + j * di + k * ps) as i64;
                    let b = |off: i64| b_base + ((idx + off) * 8) as u64;
                    sink.read(b(-1));
                    sink.read(b(1));
                    sink.read(b(-(di as i64)));
                    sink.read(b(di as i64));
                    sink.read(b(-(ps as i64)));
                    sink.read(b(ps as i64));
                    sink.write((idx * 8) as u64);
                }
            }
        }
    }

    #[test]
    fn histogram_reproduces_the_untiled_closed_forms() {
        // JACOBI N=300 on the 16K L1: K dead, J alive -> 25%.
        let m = KernelModel::jacobi3d();
        let pr = Problem::cube(300, 30);
        let h = histogram(&m, PlanSchedule::Untiled, &pr, &us2_l1());
        assert!((h.miss_rate_pct_at(2048.0) - 25.0).abs() < 0.01);
        // The same histogram evaluated at L2-like capacity keeps K-reuse:
        // (1/4 + 1)/7 = 17.86%.
        assert!((h.miss_rate_pct_at(200_000.0) - 100.0 * 1.25 / 7.0).abs() < 0.01);
        // And at a tiny capacity even J dies: (5/4 + 1)/7 = 32.1%.
        assert!((h.miss_rate_pct_at(256.0) - 100.0 * 2.25 / 7.0).abs() < 0.01);
    }

    #[test]
    fn histogram_knees_mark_the_reuse_boundaries() {
        let m = KernelModel::jacobi3d();
        let pr = Problem::cube(300, 30);
        let h = histogram(&m, PlanSchedule::Untiled, &pr, &us2_l1());
        let knees = h.knees();
        // d_J = 5 cols * 300, d_K = 2 * 90000, d_pass = 2 * alloc.
        assert!(knees.contains(&1500));
        assert!(knees.contains(&180_000));
    }

    #[test]
    fn tiled_histogram_matches_the_cost_function_in_the_tile_window() {
        let m = KernelModel::jacobi3d();
        let pr = Problem::cube(300, 30);
        let h = histogram(&m, PlanSchedule::Tiled { ti: 30, tj: 14 }, &pr, &us2_l1());
        // Within the tile window (d1 = 3*512 = 1536 <= 2048 < halo
        // distances): misses/point = cost/L + 1 write.
        let expect = 100.0 * (512.0 / 420.0 / 4.0 + 1.0) / 7.0;
        assert!(
            (h.miss_rate_pct_at(2048.0) - expect).abs() < 0.01,
            "{} vs {expect}",
            h.miss_rate_pct_at(2048.0)
        );
    }

    #[test]
    fn conflict_correction_sees_the_pathological_pad() {
        // di = dj = 256: plane stride 0 mod 2048 -> thrash. The
        // fully-associative model stays at 25%; the conflict-aware
        // prediction must jump far above it.
        let m = KernelModel::jacobi3d();
        let pr = Problem::cube(250, 30).with_alloc(256, 256);
        let lp = predict_level(&m, PlanSchedule::Untiled, &pr, &us2_l1());
        assert!(!lp.conflicts.thrash_refs.is_empty());
        assert!(lp.conflicts.pathological);
        let fa_rate = 100.0 * lp.fa_misses / lp.accesses;
        assert!((fa_rate - 25.0).abs() < 0.5, "fa = {fa_rate}");
        assert!(
            lp.miss_rate_pct > fa_rate + 25.0,
            "predicted cliff missing: {} vs {}",
            lp.miss_rate_pct,
            fa_rate
        );
    }

    #[test]
    fn clean_sizes_carry_no_conflict_correction() {
        let m = KernelModel::jacobi3d();
        let pr = Problem::cube(280, 30);
        let lp = predict_level(&m, PlanSchedule::Untiled, &pr, &us2_l1());
        assert!(
            lp.conflicts.witnesses.is_empty(),
            "{:?}",
            lp.conflicts.witnesses
        );
        assert_eq!(lp.conflict_extra, 0.0);
    }

    #[test]
    fn modern_8way_geometry_absorbs_the_us2_conflicts() {
        let m = KernelModel::jacobi3d();
        let pr = Problem::cube(300, 30);
        let lp = predict_level(&m, PlanSchedule::Untiled, &pr, &LevelGeometry::modern_l1());
        assert!(lp.conflicts.thrash_refs.is_empty());
        assert_eq!(lp.conflicts.column_kill, 0.0);
    }

    #[test]
    fn lower_bound_sits_below_the_fa_prediction() {
        for (m, n, nk) in [
            (KernelModel::jacobi3d(), 120, 20),
            (KernelModel::redblack_naive(), 120, 20),
            (KernelModel::resid(), 120, 20),
            (KernelModel::timestep(3), 120, 20),
            (KernelModel::jacobi2d(), 300, 1),
            (KernelModel::redblack2d_naive(), 300, 1),
        ] {
            let pr = Problem::cube(n, nk);
            for level in [
                us2_l1(),
                LevelGeometry::ultrasparc2_l2(),
                LevelGeometry::modern_l1(),
            ] {
                let lp = predict_level(&m, PlanSchedule::Untiled, &pr, &level);
                let bound = lower_bound_misses(&m, &pr, &level, 0);
                assert!(
                    bound <= lp.fa_misses + 1e-6,
                    "{} {}: bound {} > fa {}",
                    m.name,
                    level.name,
                    bound,
                    lp.fa_misses
                );
            }
        }
    }

    #[test]
    fn timestep_histogram_accounts_the_copy_nest() {
        let m = KernelModel::timestep(3);
        let pr = Problem::cube(120, 20);
        let h = histogram(&m, PlanSchedule::Untiled, &pr, &us2_l1());
        // 3 steps x (7 sweep accesses + 2 copy accesses) per point.
        let p = pr.points(&m);
        assert!((h.accesses - 3.0 * 9.0 * p).abs() < 1e-6);
        // Class counts sum to the access count.
        let total: f64 = h.classes.iter().map(|c| c.count).sum();
        assert!(
            (total - h.accesses).abs() / h.accesses < 1e-9,
            "{total} vs {}",
            h.accesses
        );
    }

    #[test]
    fn class_counts_sum_to_accesses_for_every_kernel() {
        for m in [
            KernelModel::jacobi3d(),
            KernelModel::jacobi2d(),
            KernelModel::redblack_naive(),
            KernelModel::redblack_fused(),
            KernelModel::redblack2d_naive(),
            KernelModel::redblack2d_fused(),
            KernelModel::resid(),
            KernelModel::timestep(2),
        ] {
            let pr = if m.two_d {
                Problem {
                    n: 300,
                    nk: 1,
                    di: 300,
                    dj: 300,
                }
            } else {
                Problem::cube(120, 20)
            };
            for level in [us2_l1(), LevelGeometry::modern_l1()] {
                for sched in [
                    PlanSchedule::Untiled,
                    PlanSchedule::Tiled { ti: 30, tj: 14 },
                ] {
                    if m.two_d && matches!(sched, PlanSchedule::Tiled { .. }) {
                        continue;
                    }
                    let h = histogram(&m, sched, &pr, &level);
                    let total: f64 = h.classes.iter().map(|c| c.count).sum();
                    assert!(
                        (total - h.accesses).abs() / h.accesses < 1e-9,
                        "{} {:?}: {total} vs {}",
                        m.name,
                        sched,
                        h.accesses
                    );
                }
            }
        }
    }
}
