//! Unified kernel dispatch for the benchmark harness.
//!
//! The paper evaluates the same six transformations (Table 2) on three
//! kernels; this module packages those kernels behind one enum so the
//! harness can sweep `kernel x transform x problem-size` uniformly:
//! allocate state under a [`tiling3d_core::TransformPlan`] (which fixes the
//! padded dimensions), run timed sweeps, and replay cache traces.

use tiling3d_cachesim::AccessSink;
use tiling3d_core::{
    plan_certified, CacheSpec, CertifiedPlan, IllegalPlan, SweepDiscipline, Transform,
    TransformPlan,
};
use tiling3d_grid::{fill_random, Array3};
use tiling3d_loopnest::{StencilShape, TileDims};

use crate::{jacobi3d, parallel, redblack, resid};

/// How the kernel's arrays are placed in the simulated address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrayLayout {
    /// Back-to-back allocation (Fortran `COMMON`-style) — the default the
    /// paper's measurements reflect.
    Consecutive,
    /// Inter-variable padding (Section 3.5): bases staggered so the
    /// arrays' cache offsets are spread `cache/num_arrays` apart.
    Staggered {
        /// Target cache capacity in bytes.
        cache_bytes: u64,
        /// Cache line size in bytes (bases stay line-aligned).
        line_bytes: u64,
    },
}

/// The three evaluation kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// 6-point 3D Jacobi (Fig 3).
    Jacobi,
    /// 3D red-black SOR (Fig 12); untiled = naive schedule, tiled = the
    /// fused + skewed-tiled schedule.
    RedBlack,
    /// 27-point MGRID RESID (Fig 13).
    Resid,
}

/// Owned arrays for one kernel at one problem size / padding.
#[derive(Clone, Debug)]
pub enum KernelState {
    /// Jacobi's output and input arrays.
    Jacobi {
        /// Output array `A`.
        a: Array3<f64>,
        /// Input array `B`.
        b: Array3<f64>,
    },
    /// Red-black's single in-place array.
    RedBlack {
        /// The in-place array `A`.
        a: Array3<f64>,
    },
    /// RESID's residual, solution and right-hand-side arrays.
    Resid {
        /// Output residual `R`.
        r: Array3<f64>,
        /// 27-point input `U`.
        u: Array3<f64>,
        /// Second input `V`.
        v: Array3<f64>,
    },
}

impl KernelState {
    /// The array the kernel writes: Jacobi's `A`, red-black's in-place
    /// `A`, RESID's residual `R`. This is the grid the numerical health
    /// sentinels scan after a sweep.
    pub fn output(&self) -> &Array3<f64> {
        match self {
            KernelState::Jacobi { a, .. } | KernelState::RedBlack { a } => a,
            KernelState::Resid { r, .. } => r,
        }
    }

    /// Mutable access to the output array (see [`KernelState::output`]) —
    /// how the fault-injection harness plants NaN writes.
    pub fn output_mut(&mut self) -> &mut Array3<f64> {
        match self {
            KernelState::Jacobi { a, .. } | KernelState::RedBlack { a } => a,
            KernelState::Resid { r, .. } => r,
        }
    }
}

impl Kernel {
    /// All three kernels in the paper's table order.
    pub const ALL: [Kernel; 3] = [Kernel::Jacobi, Kernel::RedBlack, Kernel::Resid];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Jacobi => "JACOBI",
            Kernel::RedBlack => "REDBLACK",
            Kernel::Resid => "RESID",
        }
    }

    /// The stencil shape tile selection should plan for. Red-black plans
    /// for the *fused* schedule (ATD 4), since that is what gets tiled.
    ///
    /// See also the [`std::str::FromStr`] impl, the one spelling-to-kernel
    /// mapping shared by the CLI and every bench driver.
    pub fn shape(self) -> StencilShape {
        match self {
            Kernel::Jacobi => StencilShape::jacobi3d(),
            Kernel::RedBlack => StencilShape::redblack3d_fused(),
            Kernel::Resid => StencilShape::resid27(),
        }
    }

    /// How this kernel's sweep uses its arrays — fixes the dependence set
    /// its schedules must be certified against. Jacobi and RESID write a
    /// distinct output array (no dependences); red-black updates one array
    /// in place under the fused schedule.
    pub fn discipline(self) -> SweepDiscipline {
        match self {
            Kernel::Jacobi | Kernel::Resid => SweepDiscipline::OutOfPlace,
            Kernel::RedBlack => SweepDiscipline::FusedRedBlack,
        }
    }

    /// Plans `t` for this kernel and certifies the schedule its executors
    /// will run. The only way to obtain the [`CertifiedPlan`] that
    /// [`Kernel::run_certified`] and [`Kernel::trace_certified`] require.
    pub fn plan_certified(
        self,
        t: Transform,
        cache: CacheSpec,
        di: usize,
        dj: usize,
    ) -> Result<CertifiedPlan, IllegalPlan> {
        plan_certified(t, cache, di, dj, &self.shape(), &self.discipline())
    }

    /// FLOPs of one full sweep over an `n x n x nk` problem.
    pub fn sweep_flops(self, n: usize, nk: usize) -> u64 {
        match self {
            Kernel::Jacobi => jacobi3d::sweep_flops(n, n, nk),
            Kernel::RedBlack => redblack::sweep_flops(n, nk),
            Kernel::Resid => resid::sweep_flops(n, n, nk),
        }
    }

    /// Allocates kernel state for an `n x n x nk` problem with the padded
    /// dimensions of `plan`, deterministically initialised from `seed`.
    pub fn make_state(self, n: usize, nk: usize, plan: &TransformPlan, seed: u64) -> KernelState {
        let (di, dj) = (plan.padded_di, plan.padded_dj);
        match self {
            Kernel::Jacobi => {
                let a = Array3::with_padding(n, n, nk, di, dj);
                let mut b = Array3::with_padding(n, n, nk, di, dj);
                fill_random(&mut b, seed);
                KernelState::Jacobi { a, b }
            }
            Kernel::RedBlack => {
                let mut a = Array3::with_padding(n, n, nk, di, dj);
                fill_random(&mut a, seed);
                KernelState::RedBlack { a }
            }
            Kernel::Resid => {
                let r = Array3::with_padding(n, n, nk, di, dj);
                let mut u = Array3::with_padding(n, n, nk, di, dj);
                let mut v = Array3::with_padding(n, n, nk, di, dj);
                fill_random(&mut u, seed);
                fill_random(&mut v, seed ^ 0xABCD);
                KernelState::Resid { r, u, v }
            }
        }
    }

    /// Runs one sweep under the plan's tile (or the original schedule when
    /// the plan is untiled).
    ///
    /// # Panics
    /// Panics if `state` was built for a different kernel.
    pub fn run(self, state: &mut KernelState, tile: Option<(usize, usize)>) {
        let t = tile.map(|(ti, tj)| TileDims::new(ti, tj));
        match (self, state) {
            (Kernel::Jacobi, KernelState::Jacobi { a, b }) => {
                jacobi3d::sweep(a, b, 1.0 / 6.0, t);
            }
            (Kernel::RedBlack, KernelState::RedBlack { a }) => {
                let sched = match t {
                    None => redblack::Schedule::Naive,
                    Some(t) => redblack::Schedule::Tiled(t),
                };
                redblack::sweep(a, 0.4, 0.1, sched);
            }
            (Kernel::Resid, KernelState::Resid { r, u, v }) => {
                resid::sweep(r, u, Some(v), &resid::Coeffs::MGRID_A, t);
            }
            _ => panic!("kernel/state mismatch"),
        }
    }

    /// Runs one sweep across `threads` K-slabs (see [`crate::parallel`]).
    ///
    /// Bitwise identical to [`Kernel::run`] with the same tile for every
    /// thread count; red-black runs its two colour phases under a global
    /// barrier.
    ///
    /// # Panics
    /// Panics if `state` was built for a different kernel or
    /// `threads == 0`.
    pub fn run_parallel(
        self,
        state: &mut KernelState,
        tile: Option<(usize, usize)>,
        threads: usize,
    ) {
        let t = tile.map(|(ti, tj)| TileDims::new(ti, tj));
        match (self, state) {
            (Kernel::Jacobi, KernelState::Jacobi { a, b }) => {
                parallel::jacobi3d_sweep(a, b, 1.0 / 6.0, t, threads);
            }
            (Kernel::RedBlack, KernelState::RedBlack { a }) => {
                parallel::redblack_sweep(a, 0.4, 0.1, t, threads);
            }
            (Kernel::Resid, KernelState::Resid { r, u, v }) => {
                parallel::resid_sweep(r, u, v, &resid::Coeffs::MGRID_A, t, threads);
            }
            _ => panic!("kernel/state mismatch"),
        }
    }

    /// Runs one sweep under a dependence-certified plan.
    ///
    /// In debug builds this first revalidates the certificate and replays
    /// the transformed visit order through the dynamic cross-check
    /// ([`crate::crosscheck`]): the executed permutation must cover every
    /// interior point once and respect the certificate's dependences.
    /// Release builds run the sweep directly — certification is a
    /// plan-time gate, not a per-sweep cost.
    ///
    /// # Panics
    /// Panics if `state` was built for a different kernel, or (debug
    /// builds) if the dynamic cross-check contradicts the certificate.
    pub fn run_certified(self, state: &mut KernelState, plan: &CertifiedPlan) {
        #[cfg(debug_assertions)]
        {
            let a = match state {
                KernelState::Jacobi { a, .. } => &*a,
                KernelState::RedBlack { a } => &*a,
                KernelState::Resid { r, .. } => &*r,
            };
            plan.certificate()
                .revalidate()
                .expect("stored legality certificate no longer validates");
            crate::crosscheck::check_schedule(self, a.ni(), a.nk(), plan.tile())
                .expect("dynamic cross-check contradicts the legality certificate");
        }
        self.run(state, plan.tile());
    }

    /// Replays the cache trace of one sweep under a dependence-certified
    /// plan, using the plan's padded allocation dimensions.
    pub fn trace_certified<S: AccessSink>(
        self,
        n: usize,
        nk: usize,
        plan: &CertifiedPlan,
        sink: &mut S,
    ) {
        let (di, dj) = plan.padded_dims();
        self.trace(n, nk, di, dj, plan.tile(), sink);
    }

    /// Replays the cache trace of one sweep for an `n x n x nk` problem
    /// allocated `di x dj`, tiled or not.
    pub fn trace<S: AccessSink>(
        self,
        n: usize,
        nk: usize,
        di: usize,
        dj: usize,
        tile: Option<(usize, usize)>,
        sink: &mut S,
    ) {
        let _span = if tiling3d_obs::collecting() {
            let s = tiling3d_obs::span(&format!("trace:{}", self.name()));
            let interior = |x: usize| x.saturating_sub(2) as u64;
            s.add("points", interior(n) * interior(n) * interior(nk));
            Some(s)
        } else {
            None
        };
        let t = tile.map(|(ti, tj)| TileDims::new(ti, tj));
        match self {
            Kernel::Jacobi => jacobi3d::trace(n, n, nk, di, dj, t, sink),
            Kernel::RedBlack => {
                let sched = match t {
                    None => redblack::Schedule::Naive,
                    Some(t) => redblack::Schedule::Tiled(t),
                };
                redblack::trace(n, nk, di, dj, sched, sink);
            }
            Kernel::Resid => resid::trace(n, n, nk, di, dj, t, sink),
        }
    }

    /// Number of arrays the kernel touches (for layout planning).
    pub fn num_arrays(self) -> usize {
        match self {
            Kernel::Jacobi => 2,
            Kernel::RedBlack => 1,
            Kernel::Resid => 3,
        }
    }

    /// Like [`Kernel::trace`] but with an explicit inter-array layout —
    /// the Section 3.5 experiment hook. `Consecutive` reproduces plain
    /// Fortran-style allocation; `Staggered` applies inter-variable
    /// padding via `tiling3d_core::intervar::staggered_bases`.
    #[allow(clippy::too_many_arguments)]
    pub fn trace_with_layout<S: AccessSink>(
        self,
        n: usize,
        nk: usize,
        di: usize,
        dj: usize,
        tile: Option<(usize, usize)>,
        layout: ArrayLayout,
        sink: &mut S,
    ) {
        let t = tile.map(|(ti, tj)| TileDims::new(ti, tj));
        let array_bytes = (di * dj * nk * 8) as u64;
        let bases = match layout {
            ArrayLayout::Consecutive => {
                tiling3d_core::intervar::consecutive_bases(self.num_arrays(), array_bytes, 8)
            }
            ArrayLayout::Staggered {
                cache_bytes,
                line_bytes,
            } => tiling3d_core::intervar::staggered_bases(
                self.num_arrays(),
                array_bytes,
                cache_bytes,
                line_bytes,
            ),
        };
        match self {
            Kernel::Jacobi => {
                crate::jacobi3d::trace_at(n, n, nk, di, dj, t, bases[0], bases[1], sink);
            }
            Kernel::RedBlack => {
                let sched = match t {
                    None => redblack::Schedule::Naive,
                    Some(t) => redblack::Schedule::Tiled(t),
                };
                redblack::trace(n, nk, di, dj, sched, sink);
            }
            Kernel::Resid => {
                crate::resid::trace_at(n, n, nk, di, dj, t, [bases[0], bases[1], bases[2]], sink);
            }
        }
    }

    /// Accesses (loads + stores) issued per interior point — used for
    /// cross-checking simulated access totals.
    pub fn accesses_per_point(self) -> u64 {
        match self {
            Kernel::Jacobi => 7,   // 6 loads + 1 store
            Kernel::RedBlack => 8, // 7 loads + 1 store
            Kernel::Resid => 29,   // 27 U + 1 V loads + 1 store
        }
    }
}

impl std::str::FromStr for Kernel {
    type Err = String;

    /// Parses a kernel name, case-insensitively, accepting the paper's
    /// table spellings plus the aliases the drivers have historically
    /// taken (`rb`, `red-black`, `mgrid`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "jacobi" => Ok(Kernel::Jacobi),
            "redblack" | "red-black" | "rb" => Ok(Kernel::RedBlack),
            "resid" | "mgrid" => Ok(Kernel::Resid),
            other => Err(format!(
                "unknown kernel '{other}' (expected jacobi, redblack, or resid)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_cachesim::CountingSink;
    use tiling3d_core::{plan, CacheSpec, Transform};

    #[test]
    fn kernel_from_str_round_trips_every_variant() {
        for k in Kernel::ALL {
            assert_eq!(k.name().parse::<Kernel>().unwrap(), k);
            assert_eq!(k.name().to_ascii_lowercase().parse::<Kernel>().unwrap(), k);
        }
        for (alias, want) in [
            ("rb", Kernel::RedBlack),
            ("red-black", Kernel::RedBlack),
            ("mgrid", Kernel::Resid),
        ] {
            assert_eq!(alias.parse::<Kernel>().unwrap(), want);
        }
        assert!("sor".parse::<Kernel>().is_err());
    }

    #[test]
    fn state_and_run_work_for_every_kernel_and_transform() {
        let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
        for kernel in Kernel::ALL {
            let shape = kernel.shape();
            for t in Transform::ALL {
                let p = plan(t, cache, 40, 40, &shape);
                let mut st = kernel.make_state(40, 12, &p, 1);
                kernel.run(&mut st, p.tile);
            }
        }
    }

    #[test]
    fn tiled_and_untiled_runs_agree_for_every_kernel() {
        let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
        for kernel in Kernel::ALL {
            let shape = kernel.shape();
            let orig = plan(Transform::Orig, cache, 30, 30, &shape);
            let tiled = plan(Transform::GcdPad, cache, 30, 30, &shape);
            let mut s1 = kernel.make_state(30, 10, &orig, 9);
            let mut s2 = kernel.make_state(30, 10, &tiled, 9);
            kernel.run(&mut s1, orig.tile);
            kernel.run(&mut s2, tiled.tile);
            let out = |s: &KernelState| match s {
                KernelState::Jacobi { a, .. } => a.clone(),
                KernelState::RedBlack { a } => a.clone(),
                KernelState::Resid { r, .. } => r.clone(),
            };
            assert!(out(&s1).logical_eq(&out(&s2)), "{}", kernel.name());
        }
    }

    #[test]
    fn trace_volume_matches_accesses_per_point() {
        for kernel in Kernel::ALL {
            let mut c = CountingSink::default();
            kernel.trace(12, 8, 14, 13, Some((5, 3)), &mut c);
            let pts = 10u64 * 10 * 6;
            assert_eq!(
                c.reads + c.writes,
                kernel.accesses_per_point() * pts,
                "{}",
                kernel.name()
            );
        }
    }

    #[test]
    fn layouts_change_addresses_not_volume() {
        for kernel in Kernel::ALL {
            let mut a = CountingSink::default();
            let mut b = CountingSink::default();
            kernel.trace_with_layout(14, 8, 14, 14, None, ArrayLayout::Consecutive, &mut a);
            kernel.trace_with_layout(
                14,
                8,
                14,
                14,
                None,
                ArrayLayout::Staggered {
                    cache_bytes: 16 * 1024,
                    line_bytes: 32,
                },
                &mut b,
            );
            assert_eq!(a.reads, b.reads, "{}", kernel.name());
            assert_eq!(a.writes, b.writes, "{}", kernel.name());
        }
    }

    #[test]
    fn consecutive_layout_matches_plain_trace() {
        use tiling3d_cachesim::Hierarchy;
        for kernel in Kernel::ALL {
            let mut h1 = Hierarchy::ultrasparc2();
            kernel.trace(30, 10, 32, 31, Some((5, 4)), &mut h1);
            let mut h2 = Hierarchy::ultrasparc2();
            kernel.trace_with_layout(
                30,
                10,
                32,
                31,
                Some((5, 4)),
                ArrayLayout::Consecutive,
                &mut h2,
            );
            assert_eq!(h1.l1_stats(), h2.l1_stats(), "{}", kernel.name());
        }
    }

    #[test]
    fn certified_runs_match_uncertified_for_every_kernel_and_transform() {
        let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
        for kernel in Kernel::ALL {
            for t in Transform::ALL {
                let cp = kernel
                    .plan_certified(t, cache, 30, 30)
                    .unwrap_or_else(|e| panic!("{} {t:?}: {e}", kernel.name()));
                let mut s1 = kernel.make_state(30, 10, cp.plan(), 3);
                let mut s2 = s1.clone();
                kernel.run_certified(&mut s1, &cp);
                kernel.run(&mut s2, cp.tile());
                let out = |s: &KernelState| match s {
                    KernelState::Jacobi { a, .. } => a.clone(),
                    KernelState::RedBlack { a } => a.clone(),
                    KernelState::Resid { r, .. } => r.clone(),
                };
                assert!(out(&s1).logical_eq(&out(&s2)), "{} {t:?}", kernel.name());
            }
        }
    }

    #[test]
    fn certified_trace_matches_uncertified_trace() {
        let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
        for kernel in Kernel::ALL {
            let cp = kernel
                .plan_certified(Transform::GcdPad, cache, 25, 25)
                .unwrap();
            let mut c1 = CountingSink::default();
            kernel.trace_certified(25, 9, &cp, &mut c1);
            let (di, dj) = cp.padded_dims();
            let mut c2 = CountingSink::default();
            kernel.trace(25, 9, di, dj, cp.tile(), &mut c2);
            assert_eq!((c1.reads, c1.writes), (c2.reads, c2.writes));
        }
    }

    #[test]
    fn names_and_flops() {
        assert_eq!(Kernel::Jacobi.name(), "JACOBI");
        assert!(Kernel::Resid.sweep_flops(10, 10) > Kernel::Jacobi.sweep_flops(10, 10));
    }
}
