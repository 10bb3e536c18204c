//! The paper's stencil kernels — compute and cache-trace forms.
//!
//! Three kernels carry the whole experimental evaluation of Rivera & Tseng
//! (SC 2000), and all three live here, each in **original** and **tiled**
//! form, as both an actual `f64` computation and an exact address-trace
//! generator for the cache simulator:
//!
//! * [`jacobi3d`] — the 6-point 3D Jacobi iteration of Fig 3/6 (plus the
//!   2D variant of Fig 1 used for the "2D doesn't need tiling" argument);
//! * [`redblack`] — 3D red-black SOR in the three forms of Fig 12: naive
//!   two-pass, fused (black points of plane `K` updated right after red
//!   points of plane `K+1`), and the skewed tiled schedule;
//! * [`resid`] — the 27-point RESID kernel of SPEC/NAS MGRID (Fig 13),
//!   reading a second input array `V` (the cross-interference case of
//!   Section 3.5).
//!
//! Tiling **never changes results**: the tiled schedules execute the same
//! per-point expression in a different order, and red-black's skewed tiling
//! preserves the red-before-black dependence exactly, so every tiled sweep
//! is bitwise identical to its original — a property the test suites check
//! exhaustively.
//!
//! [`kernels::Kernel`] packages the three kernels behind one dispatch enum
//! for the benchmark harness, and [`parallel`] provides scoped-thread
//! K-slab parallel sweeps showing that the paper's intra-nest tiling
//! composes with thread parallelism.
//!
//! Every production sweep runs on one **row-segment engine**: the loop
//! nest is decomposed into contiguous unit-stride (or stride-2, for
//! red-black colours) row segments, and each segment runs through a
//! [`rowexec`] kernel — pre-sliced operand rows so the compiler can
//! eliminate bounds checks and autovectorize the `I` loop. Each kernel
//! module exposes one public sweep whose schedule (tile, red-black order)
//! is passed as data. The engine is held bitwise-equal to the original
//! per-point formulations, which survive in [`mod@reference`] as the
//! executable specification.
//!
//! Schedule legality is checked in two independent layers. Statically,
//! the planner certifies each plan's schedule against
//! [`kernels::Kernel::discipline`] with
//! `tiling3d_core::legality::certificate_for` where the plan is made
//! (`tiling3d_bench::plan_for` refuses an illegal one); the executors
//! here take raw tiles. Dynamically, [`crosscheck`] replays a walker's
//! visit order and verifies it is a permutation of the iteration space
//! consistent with the certified dependences; the row-engine golden gate
//! runs it for every planned tile.

#![warn(missing_docs)]

pub mod copyopt;
pub mod crosscheck;
pub mod jacobi2d;
pub mod jacobi3d;
pub mod kernels;
pub mod parallel;
pub mod redblack;
pub mod redblack2d;
pub mod reference;
pub mod resid;
pub mod rowexec;
pub mod timeskew;
pub mod timestep;
pub mod timetile;
