//! The 3C miss classification (Hill): cold / capacity / conflict.
//!
//! The paper's entire mechanism is about **conflict** misses: tiles that
//! fit comfortably still thrash in a direct-mapped cache when their
//! columns collide, and Euc3D/GcdPad/Pad are precisely conflict-
//! elimination algorithms. This sink makes that claim measurable: it runs
//! the target cache, a fully-associative LRU cache of equal capacity, and
//! an infinite cache side by side over the same trace and classifies
//!
//! * **cold** — misses in the infinite cache (first touch of a line);
//! * **capacity** — additional misses in the fully-associative cache
//!   (working set exceeds capacity under LRU);
//! * **conflict** — additional misses in the real (set-associative)
//!   cache (limited associativity).
//!
//! A correctly "non-conflicting" tile should drive the conflict component
//! to (near) zero — the integration tests assert exactly that for the
//! paper's padded transforms.

use std::collections::HashSet;

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::sinks::AccessSink;

/// Cold/capacity/conflict miss breakdown for one cache geometry.
#[derive(Clone, Debug)]
pub struct ThreeC {
    real: Cache,
    full: Cache,
    seen: HashSet<u64>,
    line_shift: u32,
    /// Total accesses observed.
    pub accesses: u64,
    /// First-touch (compulsory) misses.
    pub cold: u64,
    /// Fully-associative misses beyond cold.
    pub capacity: u64,
    /// Real-cache misses beyond fully-associative.
    pub conflict: u64,
}

impl ThreeC {
    /// Builds the classifier for the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is invalid.
    pub fn new(cfg: CacheConfig) -> Self {
        let full_cfg = CacheConfig {
            ways: cfg.num_lines(),
            ..cfg
        };
        ThreeC {
            real: Cache::new(cfg),
            full: Cache::new(full_cfg),
            seen: HashSet::new(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            accesses: 0,
            cold: 0,
            capacity: 0,
            conflict: 0,
        }
    }

    /// Classifier for the paper's 16KB direct-mapped L1.
    pub fn ultrasparc2_l1() -> Self {
        Self::new(CacheConfig::ULTRASPARC2_L1)
    }

    fn record(&mut self, addr: u64, is_write: bool) {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let is_cold = self.seen.insert(line);
        let full_miss = self.full.access(addr, is_write);
        let real_miss = self.real.access(addr, is_write);
        // Classify only real misses, so the classes partition them exactly
        // (a fully-associative LRU can occasionally miss where the real
        // cache hits; such accesses are not misses and get no class).
        if real_miss {
            if is_cold {
                self.cold += 1;
            } else if full_miss {
                self.capacity += 1;
            } else {
                self.conflict += 1;
            }
        }
    }

    /// Real-cache total misses (cold + capacity + conflict + the write-
    /// around re-misses counted under their triggering class).
    pub fn total_misses(&self) -> u64 {
        self.real.stats().misses
    }

    /// Conflict misses as a percentage of all accesses.
    pub fn conflict_rate_pct(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            100.0 * self.conflict as f64 / self.accesses as f64
        }
    }
}

impl AccessSink for ThreeC {
    #[inline]
    fn read(&mut self, addr: u64) {
        self.record(addr, false);
    }

    #[inline]
    fn write(&mut self, addr: u64) {
        self.record(addr, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ThreeC {
        // 8-line (256B), 32B-line, direct-mapped, write-allocate.
        let mut cfg = CacheConfig::direct_mapped(256, 32);
        cfg.write_policy = crate::config::WritePolicy::WriteAllocate;
        ThreeC::new(cfg)
    }

    #[test]
    fn pure_cold_misses() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.read(i * 32);
        }
        assert_eq!(c.cold, 8);
        assert_eq!(c.capacity, 0);
        assert_eq!(c.conflict, 0);
    }

    #[test]
    fn pure_conflict_misses() {
        let mut c = tiny();
        // Two lines mapping to the same set, alternated: fits easily in
        // the fully-associative model, thrashes the direct-mapped one.
        for _ in 0..10 {
            c.read(0);
            c.read(256);
        }
        assert_eq!(c.cold, 2);
        assert_eq!(c.capacity, 0);
        assert_eq!(c.conflict, 18);
    }

    #[test]
    fn pure_capacity_misses() {
        let mut c = tiny();
        // Cyclic sweep over 16 lines through an 8-line cache: LRU misses
        // every time in both models after the cold pass.
        for _ in 0..3 {
            for i in 0..16u64 {
                c.read(i * 32);
            }
        }
        assert_eq!(c.cold, 16);
        assert_eq!(c.conflict, 0, "fully-assoc misses must be capacity");
        assert_eq!(c.capacity, 32);
    }

    #[test]
    fn classes_are_exhaustive_for_read_traces() {
        let mut c = tiny();
        let mut x = 123456789u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            c.read(x % 4096);
        }
        assert_eq!(c.cold + c.capacity + c.conflict, c.total_misses());
    }
}
