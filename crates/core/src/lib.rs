//! Tile-size selection and array-padding algorithms for 3D stencil codes.
//!
//! This crate implements the primary contribution of Rivera & Tseng,
//! *"Tiling Optimizations for 3D Scientific Computations"* (SC 2000):
//!
//! * the **cost model** for iteration tiles,
//!   `Cost(TI, TJ) = (TI+m)(TJ+n) / (TI*TJ)` ([`CostModel`]);
//! * enumeration of **non-conflicting array tiles** on a direct-mapped
//!   cache ([`nonconflict`]), including the classic 2D Euclidean-remainder
//!   sequence and its 3D extension;
//! * **Euc3D** (Fig 9): select the min-cost non-conflicting tile for the
//!   given (possibly pathological) array dimensions ([`euc3d`]);
//! * **GcdPad** (Fig 10): fix a power-of-two tile filling the cache and pad
//!   the array dimensions so `gcd(DI_p, C) = TI`, `gcd(DJ_p, C) = TJ`
//!   ([`gcd_pad`]);
//! * **Pad** (Fig 11): search pads bounded by GcdPad's, running Euc3D per
//!   candidate, stopping at the first tile at least as good as GcdPad's
//!   ([`pad`]);
//! * the whole-transformation driver [`plan`] covering every row of the
//!   paper's Table 2 (`Orig`, `Tile`, `Euc3D`, `GcdPad`, `Pad`,
//!   `GcdPadNT`).
//!
//! # Example: the paper's worked example (Section 3.3)
//!
//! For a `200 x 200 x M` array and a 16K cache holding 2048 doubles,
//! Euc3D selects the iteration tile `(22, 13)`, which originates from the
//! non-conflicting array tile `TK=3, TJ=15, TI=24`:
//!
//! ```
//! use tiling3d_core::{euc3d, CacheSpec};
//! use tiling3d_loopnest::StencilShape;
//!
//! let sel = euc3d(CacheSpec::ELEMENTS_16K_DOUBLES, 200, 200, &StencilShape::jacobi3d());
//! assert_eq!(sel.iter_tile, (22, 13));
//! assert_eq!((sel.array_tile.ti, sel.array_tile.tj, sel.array_tile.tk), (24, 15, 3));
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod copymodel;
mod cost;
mod effcache;
mod euc;
mod gcdpad;
pub mod intervar;
pub mod legality;
pub mod missmodel;
pub mod nonconflict;
mod overhead;
mod padsearch;
mod plan;
pub mod temporal;
pub mod tile2d;

pub use api::{
    respond, respond_enveloped, GeometryPreset, PlanQuery, PlanRequest, PlanResponse, ReqStencil,
    TransformSel, API_VERSION,
};
pub use cost::CostModel;
pub use effcache::effective_cache_tile;
pub use euc::{euc3d, euc3d_select, Euc3dOptions, Euc3dSelection, TileSelection};
pub use gcdpad::{gcd_pad, GcdPadPlan};
pub use legality::{plan_certified, CertifiedPlan, IllegalPlan, SweepDiscipline};
pub use missmodel::{
    histogram, lower_bound_misses, predict_level, KernelModel, LevelGeometry, LevelPrediction,
    PlanSchedule, Problem,
};
pub use nonconflict::ArrayTile;
pub use overhead::{memory_overhead_pct, padded_elements};
pub use padsearch::pad;
pub use plan::{plan, CacheSpec, Transform, TransformPlan};
pub use temporal::{
    plan_temporal, plan_temporal_certified, temporal_certificate, CertifiedTemporalPlan,
    IllegalTemporalPlan, TemporalKernel, TemporalPlan,
};
