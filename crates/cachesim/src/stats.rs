//! Access counters, miss-rate arithmetic, and simulation throughput.

use std::time::{Duration, Instant};

/// Hit/miss counters for one cache level (or one simulated run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Total accesses presented to this level.
    pub accesses: u64,
    /// Accesses that missed at this level.
    pub misses: u64,
    /// Read subset of `accesses`.
    pub reads: u64,
    /// Read subset of `misses`.
    pub read_misses: u64,
    /// Write subset of `accesses`.
    pub writes: u64,
    /// Write subset of `misses`.
    pub write_misses: u64,
}

impl AccessStats {
    /// Miss rate in percent over all accesses, as the paper reports it
    /// (e.g. "original miss rate 32.7"). Zero-access runs report 0.
    pub fn miss_rate_pct(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.accesses as f64
        }
    }

    /// Read-only miss rate in percent.
    pub fn read_miss_rate_pct(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            100.0 * self.read_misses as f64 / self.reads as f64
        }
    }

    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &AccessStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
        self.reads += other.reads;
        self.read_misses += other.read_misses;
        self.writes += other.writes;
        self.write_misses += other.write_misses;
    }

    /// Adds the counts of one replay call.
    pub(crate) fn count(&mut self, t: &Tally) {
        self.accesses += t.reads + t.writes;
        self.misses += t.read_misses + t.write_misses;
        self.reads += t.reads;
        self.read_misses += t.read_misses;
        self.writes += t.writes;
        self.write_misses += t.write_misses;
    }

    /// Folds this stats block into the global observability metrics
    /// registry as deterministic counters under `prefix` (no-op when the
    /// recorder is off). Counters are jobs-invariant because the underlying
    /// counts are — merging shard stats commutes.
    pub fn fold_obs_metrics(&self, prefix: &str) {
        if !tiling3d_obs::collecting() {
            return;
        }
        tiling3d_obs::counter_add(&format!("{prefix}.accesses"), self.accesses);
        tiling3d_obs::counter_add(&format!("{prefix}.misses"), self.misses);
        tiling3d_obs::counter_add(&format!("{prefix}.read_misses"), self.read_misses);
        tiling3d_obs::counter_add(&format!("{prefix}.write_misses"), self.write_misses);
    }

    /// Records one access: the bookkeeping of the single-access calls,
    /// [`crate::Cache::access`] and [`crate::Cache::access_reference`].
    #[inline]
    pub(crate) fn record(&mut self, is_write: bool, miss: bool) {
        self.accesses += 1;
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        if miss {
            self.misses += 1;
            if is_write {
                self.write_misses += 1;
            } else {
                self.read_misses += 1;
            }
        }
    }
}

/// One level's counts over one replay call. Replay loops keep it in a
/// local, where the counters stay in registers, and merge it into the
/// level's [`AccessStats`] once per call with [`AccessStats::count`];
/// `accesses` and `misses` are the sums, so they are not counted apart.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    pub reads: u64,
    pub read_misses: u64,
    pub writes: u64,
    pub write_misses: u64,
}

impl Tally {
    /// Adds another tally.
    #[inline]
    pub(crate) fn add(&mut self, other: &Tally) {
        self.reads += other.reads;
        self.read_misses += other.read_misses;
        self.writes += other.writes;
        self.write_misses += other.write_misses;
    }
}

/// Simulation throughput: accesses replayed against wall time.
///
/// The harness accumulates one of these per sweep so every driver can
/// report how fast the engine is actually running. The end-to-end
/// benchmark's `figure` workload reports the same quantity as
/// `cachesim_macc_per_s`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Throughput {
    /// Accesses simulated.
    pub accesses: u64,
    /// Wall time spent simulating them.
    pub wall: Duration,
}

impl Throughput {
    /// Simulated accesses per second (0 for an empty measurement).
    pub fn accesses_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.accesses as f64 / s
        }
    }

    /// Accumulates another measurement. Wall times add, so merging the
    /// per-shard measurements of a parallel sweep yields aggregate CPU
    /// throughput (can exceed single-thread rate × 1).
    pub fn merge(&mut self, other: &Throughput) {
        self.accesses += other.accesses;
        self.wall += other.wall;
    }

    /// Folds this measurement into the global observability metrics: the
    /// access count as the deterministic counter `sim.accesses`, the wall
    /// time as the gauge `sim.wall_us` (gauges are excluded from the
    /// jobs-determinism comparison). No-op when the recorder is off.
    pub fn fold_obs_metrics(&self) {
        if !tiling3d_obs::collecting() {
            return;
        }
        tiling3d_obs::counter_add("sim.accesses", self.accesses);
        tiling3d_obs::gauge_add("sim.wall_us", self.wall.as_secs_f64() * 1e6);
    }

    /// Renders `12.3 Macc/s over 45.6 Maccesses` style summaries.
    pub fn summary(&self) -> String {
        format!(
            "{:.1}M accesses in {:.2}s ({:.1}M acc/s)",
            self.accesses as f64 / 1e6,
            self.wall.as_secs_f64(),
            self.accesses_per_sec() / 1e6,
        )
    }
}

/// Started stopwatch for one simulation; stop it with the access count.
#[derive(Debug)]
pub struct ThroughputTimer(Instant);

impl ThroughputTimer {
    /// Starts timing.
    pub fn start() -> Self {
        ThroughputTimer(Instant::now())
    }

    /// Stops timing and packages the measurement.
    pub fn stop(self, accesses: u64) -> Throughput {
        Throughput {
            accesses,
            wall: self.0.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_merge() {
        let mut s = AccessStats::default();
        s.record(false, true);
        s.record(false, false);
        s.record(true, true);
        s.record(true, false);
        assert_eq!(s.accesses, 4);
        assert_eq!(s.misses, 2);
        assert_eq!(s.miss_rate_pct(), 50.0);
        assert_eq!(s.read_miss_rate_pct(), 50.0);

        let mut t = AccessStats::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.accesses, 8);
        assert_eq!(t.read_misses, 2);
    }

    #[test]
    fn empty_run_has_zero_rate() {
        assert_eq!(AccessStats::default().miss_rate_pct(), 0.0);
        assert_eq!(AccessStats::default().read_miss_rate_pct(), 0.0);
    }
}
