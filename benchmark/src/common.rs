//! Pieces more than one workload uses: certified planning split into its
//! two layers, and the timed window.

use std::time::Instant;

use tiling3d_core::legality::certificate_for;
use tiling3d_core::{plan, CacheSpec, Transform, TransformPlan};
use tiling3d_stencil::kernels::Kernel;

use crate::trace::Tracer;

/// `bench::plan_for` split into its layers: `core::plan` (tile and pad
/// search) under `core.plan:<T>`, then the legality certificate of the
/// schedule the executors run under `loopnest.certify`.
pub fn certified_plan(
    cache: CacheSpec,
    kernel: Kernel,
    t: Transform,
    n: usize,
    tracer: &Tracer,
    parent: u64,
) -> Result<TransformPlan, String> {
    let p = {
        let _s = tracer.span(&format!("core.plan:{}", t.name()), parent);
        plan(t, cache, n, n, &kernel.shape())
    };
    let legal = {
        let _s = tracer.span("loopnest.certify", parent);
        certificate_for(&kernel.discipline(), p.tile.is_some(), true).is_legal()
    };
    if legal {
        Ok(p)
    } else {
        Err(format!(
            "{} {} at N={n}: schedule is not certified legal",
            kernel.name(),
            t.name()
        ))
    }
}

/// The timed window: operations start while one more of the last
/// operation's length still fits, and at least one always runs.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    /// Opens a window of `seconds` now.
    pub fn open(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether another operation lasting `last_s` ends inside the window.
    pub fn fits(&self, last_s: f64) -> bool {
        self.elapsed() + last_s <= self.seconds
    }

    /// Seconds since the window opened.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}
