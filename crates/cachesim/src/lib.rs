//! Trace-driven multi-level cache simulation.
//!
//! Rivera & Tseng (SC 2000) evaluate their tiling/padding transformations by
//! simulating the 16KB L1 and 2MB L2 **direct-mapped** caches of a Sun
//! UltraSparc2 over the exact address streams of the stencil kernels. This
//! crate is that substrate, generalised:
//!
//! * [`CacheConfig`] — capacity / line size / associativity / write policy,
//!   with presets for the UltraSparc2 geometry used throughout the paper;
//! * [`Cache`] — one level: set-associative LRU with a specialised
//!   direct-mapped fast path, write-allocate or write-around (no-allocate)
//!   policies;
//! * [`Hierarchy`] — a two-level L1→L2 hierarchy with per-level
//!   [`AccessStats`];
//! * [`AccessSink`] — the trait kernels' trace generators drive: single
//!   loads and stores, and one batched call, [`AccessSink::row`]; also
//!   implemented by [`CountingSink`] (for FLOP/access accounting) and
//!   [`DistinctLineCounter`] (an analytic cold-miss oracle used to validate
//!   the paper's cost model);
//! * [`RowShape`] — one stencil point's accesses, so a walker can hand a
//!   whole row segment to [`AccessSink::row`] (a contiguous copy row is a
//!   one-slot shape), which [`Hierarchy`] replays a cache line at a time,
//!   and on direct-mapped levels replays rows whose streams conflict from
//!   a memo of their outcomes.
//!
//! Addresses are **byte** addresses; stencil traces scale element offsets by
//! `size_of::<f64>()` and place each array at a configurable base.
//!
//! # Example
//!
//! ```
//! use tiling3d_cachesim::{AccessSink, Cache, CacheConfig};
//!
//! let mut l1 = Cache::new(CacheConfig::ULTRASPARC2_L1);
//! l1.read(0);      // cold miss
//! l1.read(8);      // same 32-byte line: hit
//! l1.read(16 * 1024); // maps to set 0 again: conflict miss
//! l1.read(0);      // evicted by the conflict: miss
//! let s = l1.stats();
//! assert_eq!(s.accesses, 4);
//! assert_eq!(s.misses, 3);
//! ```

#![warn(missing_docs)]

mod cache;
mod config;
mod hierarchy;
mod level;
mod mmu;
mod row;
mod sinks;
mod stats;
mod threec;
mod tlb;

pub use cache::Cache;
pub use config::{CacheConfig, WritePolicy};
pub use hierarchy::Hierarchy;
pub use mmu::{MmuHierarchy, PAGE_TABLE_BASE};
pub use row::{RowShape, Slot, MIN_PLANNED_POINTS};
pub use sinks::{AccessSink, CountingSink, DistinctLineCounter};
pub use stats::{AccessStats, Throughput, ThroughputTimer};
pub use threec::ThreeC;
pub use tlb::Tlb;
