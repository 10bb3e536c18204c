//! `SimPool` — a scoped worker pool for embarrassingly parallel simulation
//! sweeps.
//!
//! Every paper artifact is a sweep over independent `(N, kernel,
//! algorithm)` points, each replaying a full address trace through its own
//! [`tiling3d_cachesim::Hierarchy`]. The points share nothing, so the pool
//! shards them across scoped OS threads (no external dependencies) with
//! **deterministic result ordering**: results come back
//! indexed by input position, so a sweep's output — and therefore every
//! table and figure — is bit-identical for any worker count. DESIGN.md
//! §8 ("Sharded sweeps") records the invariants.
//!
//! The pool has one worker loop, the supervised
//! [`SimPool::try_map`](crate::SimPool::try_map) in [`crate::supervise`]:
//! work distribution is dynamic (an atomic next-item counter), which keeps
//! the pool balanced even though large-`N` points cost ~10x small ones.
//! [`SimPool::map`] is that loop under [`SupervisePolicy::strict`].

use std::thread;

use crate::SupervisePolicy;

/// Worker pool for sharded simulation sweeps.
#[derive(Clone, Copy, Debug)]
pub struct SimPool {
    jobs: usize,
}

impl SimPool {
    /// Creates a pool with `jobs` workers; `0` means one worker per
    /// available core (the drivers' `--jobs` default).
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            jobs
        };
        SimPool { jobs }
    }

    /// Number of workers this pool will spawn.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item and returns the results **in item order**,
    /// regardless of which worker computed what or when it finished: the
    /// supervised [`SimPool::try_map`](crate::SimPool::try_map) under
    /// [`SupervisePolicy::strict`], for sweeps that have no use for a
    /// partial result.
    ///
    /// # Panics
    /// Panics naming the first failed item (its index and error) when `f`
    /// panics on any item.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.try_map(items, &SupervisePolicy::strict(), |x| Ok(f(x)))
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|e| panic!("pool item {i} failed: {e}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::supervise::silence_expected_panics;

    #[test]
    fn zero_means_available_parallelism() {
        assert!(SimPool::new(0).jobs() >= 1);
        assert_eq!(SimPool::new(3).jobs(), 3);
        assert_eq!(SimPool::new(1).jobs(), 1);
    }

    #[test]
    fn progress_reports_every_item() {
        let count = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        let items: Vec<usize> = (0..50).collect();
        SimPool::new(4).try_map_with_progress(
            &items,
            &SupervisePolicy::default(),
            |&x| Ok(x),
            |done| {
                count.fetch_add(1, Ordering::Relaxed);
                max_seen.fetch_max(done, Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 50);
        assert_eq!(max_seen.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn map_panics_naming_the_failed_item() {
        silence_expected_panics();
        let items: Vec<u64> = (0..20).collect();
        for jobs in [1usize, 4] {
            let err = std::panic::catch_unwind(|| {
                SimPool::new(jobs).map(&items, |&x| {
                    assert!(x != 13, "fault-injected: boom at 13");
                    x
                })
            })
            .expect_err("a failed item must fail the map");
            let msg = err
                .downcast_ref::<String>()
                .expect("map panics with a formatted message");
            assert!(msg.contains("pool item 13 failed"), "jobs={jobs}: {msg}");
            assert!(msg.contains("boom at 13"), "jobs={jobs}: {msg}");
        }
    }
}
