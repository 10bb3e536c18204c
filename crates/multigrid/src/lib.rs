//! A full V-cycle multigrid Poisson solver in the style of SPEC/NAS MGRID.
//!
//! The paper's Section 4.6 measures the whole-application effect of tiling
//! the RESID kernel inside MGRID. MGRID is the NAS `MG` benchmark: a
//! V-cycle multigrid solver on **periodic** grids of size `2^l`, stored in
//! `(2^l + 2)^3` arrays with one ghost layer per face (which is exactly why
//! the SPEC reference grid is "130 x 130 x 130" = 128 + 2). This crate is
//! that substrate, built from scratch:
//!
//! * [`PeriodicGrid`] — ghost-layered periodic grids with the `comm3`
//!   boundary exchange;
//! * [`ops`] — the four MG routines: `resid` (the paper's Fig 13 kernel,
//!   reused from `tiling3d-stencil`), the `psinv` smoother, the `rprj3`
//!   full-weighting restriction, and the `interp` trilinear prolongation,
//!   each a walk over rows that calls a `tiling3d_stencil::rowexec` row
//!   kernel;
//! * [`MgSolver`] — the `mg3P` V-cycle driver with per-routine wall-clock
//!   time and call counts ([`RoutineStats`]; no FLOP counts), and
//!   optional tiling + padding of the finest-level
//!   `resid`/`psinv` (the Section 4.6 transformation: "array padding
//!   cannot be performed directly in MGRID ... instead, we can enable
//!   padding by declaring a new padded array" — here padding is a
//!   first-class allocation parameter).
//!
//! The multigrid *mathematics* is standard; what the paper (and this
//! reproduction) cares about is that the memory behaviour matches MGRID:
//! a succession of grid sizes per iteration — which defeats time-skewing
//! tiling schemes — with most time spent in 27-point stencils on the
//! finest grid.

#![warn(missing_docs)]

mod grid;
pub mod ops;
mod solver;

pub use grid::PeriodicGrid;
pub use solver::{MgConfig, MgSolver, RoutineStats};
