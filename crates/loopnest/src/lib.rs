//! A miniature loop-transformation framework for stencil nests.
//!
//! The paper's transformations are *compiler* transformations: strip-mine
//! the inner two loops of a 3D stencil nest, permute the tile-controlling
//! loops outermost (Fig 6), and optionally pad the array's leading
//! dimensions. This crate models exactly that class of programs:
//!
//! * [`StencilShape`] — a stencil as a set of constant offsets
//!   `(di, dj, dk)` from the loop indices, with the derived quantities the
//!   paper's cost model needs: trim amounts `m`/`n` and the array-tile
//!   depth (ATD);
//! * [`IterSpace`] — rectangular 3D iteration spaces with Fortran loop
//!   order (`K` outer, `I` inner), plus [`for_each_tiled`] implementing the
//!   paper's JJ/II tiling schedule;
//! * [`Nest`] — a tiny loop IR over which [`Nest::tile_jj_ii`] performs
//!   strip-mine + permute, and whose interpreter replays the exact address
//!   stream of the (transformed) nest into any
//!   [`AccessSink`](tiling3d_cachesim::AccessSink) consumer;
//! * [`reuse`] — the capacity analysis behind Section 1 of the paper: why
//!   2D stencils keep group reuse up to column length ~`C/2` while 3D
//!   stencils lose it beyond plane size `sqrt(C/(ATD-1))`;
//! * [`legality`] — dependence-certified schedule legality: every
//!   transformation is modelled as a [`Schedule`] and proved (or refuted,
//!   with a witness) against the kernel's [`DepSet`], producing a
//!   machine-checkable [`LegalityCertificate`];
//! * [`Nest::verify`] — a static safety pass over the IR that rejects
//!   out-of-bounds references and write-write aliasing before any address
//!   stream reaches the cache simulator.
//!
//! # Example: the paper's Section 1 boundary numbers
//!
//! ```
//! use tiling3d_loopnest::{reuse, StencilShape};
//!
//! let jacobi3 = StencilShape::jacobi3d();
//! // 16K L1 (2048 doubles): reuse lost beyond 32 x 32 x M ...
//! assert_eq!(reuse::max_plane_extent(2048, &jacobi3), 32);
//! // ... and 2M L2 (262144 doubles): lost beyond 362 x 362 x M.
//! assert_eq!(reuse::max_plane_extent(262_144, &jacobi3), 362);
//!
//! let jacobi2 = StencilShape::jacobi2d();
//! // 2D: a 16K L1 keeps group reuse up to 1024-long columns.
//! assert_eq!(reuse::max_column_extent_2d(2048, &jacobi2), 1024);
//! ```

#![warn(missing_docs)]

pub mod dependence;
mod ir;
pub mod legality;
mod rows;
mod shape;
mod space;
mod verify;

pub mod locality;
pub mod reuse;

pub use ir::{ArrayDesc, ArrayRef, Dim, Loop, LoopKind, Nest};
pub use legality::{certify, Dep, DepSet, LegalityCertificate, Schedule, Verdict, Violation};
pub use locality::{
    analyze_conflicts, ClassKind, ConflictReport, ConflictWitness, LiveInterval, PointRef,
    ReuseClass, ReuseHistogram, SetGeometry, WitnessKind,
};
pub use rows::{for_each_rows, for_each_tiled_rows, stride2_clip, stride2_last};
pub use shape::StencilShape;
pub use space::{for_each, for_each_tiled, IterSpace, TileDims};
pub use verify::VerifyError;
