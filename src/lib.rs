//! # tiling3d
//!
//! A reproduction of **Rivera & Tseng, "Tiling Optimizations for 3D
//! Scientific Computations" (SC 2000)** as a production-quality Rust
//! workspace. This facade crate re-exports the public API of every
//! subsystem:
//!
//! * [`grid`] — padded column-major 2D/3D arrays (the Fortran-layout data
//!   substrate),
//! * [`cachesim`] — a multi-level set-associative cache simulator driven by
//!   exact kernel access traces,
//! * [`loopnest`] — a miniature loop-transformation framework (iteration
//!   spaces, strip-mine + permute tiling, stencil shapes, reuse analysis),
//! * [`core`] — the paper's algorithms: the tile cost model, non-conflicting
//!   tile enumeration, `Euc3D`, `GcdPad`, and `Pad`,
//! * [`stencil`] — the three evaluation kernels (JACOBI, REDBLACK, RESID)
//!   plus the multigrid helper kernels, each in original and tiled form,
//!   with matching cache-trace generators,
//! * [`multigrid`] — a full V-cycle multigrid Poisson solver in the style of
//!   SPEC/NAS MGRID.
//!
//! Beyond the paper's core: [`core`] also houses the classical 2D tile
//! algorithms (`tile2d`), the Section 3.1 copy-cost model (`copymodel`),
//! the Section 3.2 effective-cache method (`effcache`), Section 3.5
//! inter-variable padding (`intervar`) and the static miss model
//! (`missmodel`); [`cachesim`] adds a TLB and a 3C (cold/capacity/conflict)
//! classifier; [`loopnest`] adds dependence analysis; [`stencil`] adds the
//! Fig 5 time-step pattern, tile copying, 2D red-black fusion and a
//! time-skewing baseline. The `tiling3d-bench` crate regenerates every
//! table and figure of the paper, and `tiling3d-cli` exposes planning,
//! simulation and prediction as a command-line tool.
//!
//! ## Quickstart
//!
//! ```
//! use tiling3d::core::{plan, CacheSpec, Transform};
//! use tiling3d::loopnest::StencilShape;
//!
//! // Plan tiling + padding for a 200x200xM array targeting a 16KB
//! // direct-mapped L1 holding 2048 doubles, for the 3D Jacobi stencil.
//! let cache = CacheSpec::ELEMENTS_16K_DOUBLES;
//! let p = plan(Transform::Pad, cache, 200, 200, &StencilShape::jacobi3d());
//! let (ti, tj) = p.tile.unwrap();
//! assert!(ti > 0 && tj > 0);
//! assert!(p.padded_di >= 200 && p.padded_dj >= 200);
//! ```

pub use tiling3d_cachesim as cachesim;
pub use tiling3d_core as core;
pub use tiling3d_grid as grid;
pub use tiling3d_loopnest as loopnest;
pub use tiling3d_multigrid as multigrid;
pub use tiling3d_obs as obs;
pub use tiling3d_stencil as stencil;
