//! Single-level set-associative cache model.

use crate::config::{CacheConfig, WritePolicy};
use crate::level::{with_view, Assoc, Direct, Index, Level, Lru, View, EMPTY};
use crate::sinks::AccessSink;
use crate::stats::{AccessStats, Tally};

/// One cache level: set-associative with true-LRU replacement and a
/// direct-mapped fast path.
///
/// The model tracks only tags — no data — because the workspace uses it
/// purely for hit/miss accounting. Writes honour the configured
/// [`WritePolicy`]: under `WriteAround` a missing write is counted as a miss
/// but does **not** allocate (so stores to an output array cannot evict the
/// input array's tile, the assumption the paper's tile analysis makes).
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    index: Index,
    /// Direct-mapped levels: the line each set holds. Unused when
    /// `ways > 1`.
    dm_tags: Vec<u64>,
    /// Associative levels: per set, `ways` slots of `(line, last_use)`.
    sets: Vec<(u64, u64)>,
    /// Clock and MRU short-circuit of associative levels.
    lru: Lru,
    stats: AccessStats,
}

impl Cache {
    /// Builds a cache for `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.validate()` fails — geometry errors are programming
    /// errors in this workspace, not runtime conditions.
    pub fn new(cfg: CacheConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cache config: {e}");
        }
        let num_sets = cfg.num_sets();
        Cache {
            cfg,
            index: Index::new(&cfg),
            dm_tags: if cfg.ways == 1 {
                vec![EMPTY; num_sets]
            } else {
                Vec::new()
            },
            sets: if cfg.ways > 1 {
                vec![(EMPTY, 0); num_sets * cfg.ways]
            } else {
                Vec::new()
            },
            lru: Lru::default(),
            stats: AccessStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated since construction or the last [`Cache::reset`].
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Clears both the counters and the cache contents (cold restart).
    pub fn reset(&mut self) {
        self.stats = AccessStats::default();
        self.dm_tags.fill(EMPTY);
        self.sets.fill((EMPTY, 0));
        self.lru = Lru::default();
    }

    /// A level view of this cache for one replay call (see
    /// [`crate::level`]).
    pub(crate) fn view(&mut self) -> View<'_> {
        let allocates_stores = self.cfg.write_policy == WritePolicy::WriteAllocate;
        if self.cfg.ways == 1 {
            View::Direct(Direct::new(&mut self.dm_tags, self.index, allocates_stores))
        } else {
            View::Assoc(Assoc::new(
                &mut self.sets,
                &mut self.lru,
                self.index,
                self.cfg.ways,
                allocates_stores,
            ))
        }
    }

    /// Adds one replay call's counts.
    pub(crate) fn count(&mut self, t: &Tally) {
        self.stats.count(t);
    }

    /// Presents one access; returns `true` on a miss.
    ///
    /// The lookup runs on a level view. On associative configurations an
    /// access to the line of the previous resident access resolves in the
    /// MRU short-circuit: it is a hit by construction, so the way scan is
    /// skipped, and the line, which holds the newest LRU stamp already,
    /// keeps it. Hits and misses are bit-identical to the full path
    /// ([`Cache::access_reference`]). Direct-mapped configurations always
    /// take the full lookup, which is a single compare there.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let miss = with_view!(self, |v| v.access(addr, is_write));
        self.stats.record(is_write, miss);
        miss
    }

    /// The reference the replay paths are tested against: one access with
    /// a full lookup and per-access bookkeeping, never taking the MRU
    /// short-circuit, and sharing no lookup code with the level views.
    /// Kept public so the golden-equivalence tests can compare the engine
    /// with the original per-access behaviour; the two may be freely
    /// interleaved on one cache.
    #[inline]
    pub fn access_reference(&mut self, addr: u64, is_write: bool) -> bool {
        let (line, set) = self.index.split(addr);
        let allocate = !is_write || self.cfg.write_policy == WritePolicy::WriteAllocate;
        let miss = if self.cfg.ways == 1 {
            let slot = &mut self.dm_tags[set];
            let miss = *slot != line;
            if miss && allocate {
                *slot = line;
            }
            miss
        } else {
            self.lru.clock += 1;
            let base = set * self.cfg.ways;
            let slots = &mut self.sets[base..base + self.cfg.ways];
            let hit = slots.iter().position(|(l, _)| *l == line);
            // Victim: empty slot if any, else least recently used.
            let victim = || {
                slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (t, lu))| if *t == EMPTY { 0 } else { *lu + 1 })
                    .map(|(pos, _)| pos)
                    .expect("ways > 0")
            };
            let filled = hit.or_else(|| allocate.then(victim));
            if let Some(pos) = filled {
                slots[pos] = (line, self.lru.clock);
                self.lru.last_line = line;
                self.lru.last_slot = base + pos;
            }
            hit.is_none()
        };
        self.stats.record(is_write, miss);
        miss
    }

    /// True when the line containing `addr` is currently resident —
    /// a probe that does not perturb stats or LRU state.
    pub fn probe(&self, addr: u64) -> bool {
        let (line, set) = self.index.split(addr);
        if self.cfg.ways == 1 {
            self.dm_tags[set] == line
        } else {
            let ways = self.cfg.ways;
            self.sets[set * ways..(set + 1) * ways]
                .iter()
                .any(|(l, _)| *l == line)
        }
    }
}

impl AccessSink for Cache {
    #[inline]
    fn read(&mut self, addr: u64) {
        self.access(addr, false);
    }

    #[inline]
    fn write(&mut self, addr: u64) {
        self.access(addr, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize, policy: WritePolicy) -> Cache {
        // 256B cache, 32B lines -> 8 lines.
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            ways,
            write_policy: policy,
        })
    }

    #[test]
    fn direct_mapped_spatial_hit() {
        let mut c = tiny(1, WritePolicy::WriteAllocate);
        assert!(c.access(0, false)); // cold
        assert!(!c.access(31, false)); // same line
        assert!(c.access(32, false)); // next line cold
    }

    #[test]
    fn direct_mapped_conflict_thrash() {
        let mut c = tiny(1, WritePolicy::WriteAllocate);
        // 0 and 256 map to the same set in a 256B direct-mapped cache.
        for _ in 0..4 {
            assert!(c.access(0, false));
            assert!(c.access(256, false));
        }
        assert_eq!(c.stats().misses, 8);
    }

    #[test]
    fn two_way_absorbs_pairwise_conflict() {
        let mut c = tiny(2, WritePolicy::WriteAllocate);
        assert!(c.access(0, false));
        assert!(c.access(256, false));
        for _ in 0..4 {
            assert!(!c.access(0, false));
            assert!(!c.access(256, false));
        }
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, WritePolicy::WriteAllocate);
        c.access(0, false); // way A of set 0
        c.access(256, false); // way B
        c.access(0, false); // touch A -> B is LRU
        c.access(512, false); // evicts B (256)
        assert!(c.probe(0));
        assert!(!c.probe(256));
        assert!(c.probe(512));
    }

    #[test]
    fn write_around_does_not_allocate() {
        let mut c = tiny(1, WritePolicy::WriteAround);
        assert!(c.access(0, true)); // write miss, no fill
        assert!(!c.probe(0));
        assert!(c.access(0, false)); // still a read miss
        assert!(!c.access(0, true)); // write *hit* on resident line
        let s = c.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.write_misses, 1);
    }

    #[test]
    fn write_allocate_fills_on_write() {
        let mut c = tiny(1, WritePolicy::WriteAllocate);
        assert!(c.access(64, true));
        assert!(c.probe(64));
        assert!(!c.access(64, false));
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut c = tiny(1, WritePolicy::WriteAllocate);
        c.access(0, false);
        c.access(0, false);
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0, false)); // cold again
    }

    #[test]
    fn fully_associative_has_no_conflicts_within_capacity() {
        // 8 lines fully associative: any 8 distinct lines coexist.
        let mut c = tiny(8, WritePolicy::WriteAllocate);
        for i in 0..8u64 {
            c.access(i * 4096, false);
        }
        for i in 0..8u64 {
            assert!(!c.access(i * 4096, false), "line {i} should be resident");
        }
    }

    /// Deterministic xorshift for equivalence traces (no external deps).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    #[test]
    fn fast_path_matches_reference_on_random_traces() {
        for ways in [1usize, 2, 4] {
            for policy in [WritePolicy::WriteAround, WritePolicy::WriteAllocate] {
                let mut fast = tiny(ways, policy);
                let mut slow = tiny(ways, policy);
                let mut rng = Rng(0x1234_5678 + ways as u64);
                for step in 0..20_000u64 {
                    let r = rng.next();
                    // Mix of strided walks (MRU-friendly) and random jumps.
                    let addr = if r.is_multiple_of(4) {
                        r % 2048
                    } else {
                        (step * 8) % 1024
                    };
                    let is_write = r.is_multiple_of(7);
                    assert_eq!(
                        fast.access(addr, is_write),
                        slow.access_reference(addr, is_write),
                        "ways={ways} step={step} addr={addr}"
                    );
                }
                assert_eq!(fast.stats(), slow.stats());
                // Contents agree too (probe a window).
                for a in (0..2048u64).step_by(8) {
                    assert_eq!(fast.probe(a), slow.probe(a), "ways={ways} addr={a}");
                }
            }
        }
    }

    #[test]
    fn interleaving_fast_and_reference_paths_is_coherent() {
        let mut c = tiny(2, WritePolicy::WriteAllocate);
        c.access(0, false);
        assert!(!c.access_reference(0, false));
        assert!(!c.access(0, false));
        c.access_reference(256, false);
        assert!(!c.access(256, false));
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn write_around_miss_does_not_poison_mru() {
        // ways=2 so the MRU short-circuit is actually consulted.
        for ways in [1usize, 2] {
            let mut c = tiny(ways, WritePolicy::WriteAround);
            c.access(0, false); // line 0 resident, MRU
            c.access(256, true); // write miss, no allocate — MRU must stay line 0
            assert!(!c.access(0, false), "ways={ways}: line 0 still resident");
            assert!(c.access(256, false), "ways={ways}: line 8 was never filled");
        }
    }

    #[test]
    fn ultrasparc_l1_set_mapping() {
        let mut c = Cache::new(CacheConfig::ULTRASPARC2_L1);
        // 16K apart -> same set, conflict in a direct-mapped cache.
        c.access(0, false);
        assert!(c.access(16 * 1024, false));
        assert!(c.access(0, false));
        // 8K apart -> different sets, no conflict.
        c.reset();
        c.access(0, false);
        c.access(8 * 1024, false);
        assert!(!c.access(0, false));
    }
}
