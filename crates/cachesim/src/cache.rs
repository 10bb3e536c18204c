//! Single-level set-associative cache model.

use crate::config::{CacheConfig, WritePolicy};
use crate::sinks::AccessSink;
use crate::stats::AccessStats;

const EMPTY: u64 = u64::MAX;

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
    line_shift: u32,
    set_mask: u64,
    /// `log2(num_sets)`, precomputed so the hot path needs no popcount.
    tag_shift: u32,
    /// Direct-mapped fast path: one tag per set. Unused when `ways > 1`.
    dm_tags: Vec<u64>,
    /// Associative path: per set, `ways` slots of `(tag, last_use)`.
    sets: Vec<(u64, u64)>,
    clock: u64,
    stats: AccessStats,
    /// MRU short-circuit (associative configurations only): the line of
    /// the most recent access that left a resident line behind (hit, or
    /// miss that allocated). Stencil traces touch the same line for
    /// several consecutive `I` iterations, so most probes resolve here
    /// without a way scan. `EMPTY` when invalid; never consulted when
    /// `ways == 1`.
    last_line: u64,
    /// Slot index (into `sets`) of `last_line` when `ways > 1`, so the
    /// short-circuit can refresh the LRU timestamp without a set scan.
    last_slot: usize,
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
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            tag_shift: num_sets.trailing_zeros(),
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
            clock: 0,
            stats: AccessStats::default(),
            last_line: EMPTY,
            last_slot: 0,
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
        self.clock = 0;
        self.dm_tags.fill(EMPTY);
        self.sets.fill((EMPTY, 0));
        self.last_line = EMPTY;
        self.last_slot = 0;
    }

    /// Presents one access; returns `true` on a miss.
    ///
    /// For associative configurations, accesses that fall in the same line
    /// as the previous resident access resolve in the MRU short-circuit: a
    /// same-line repeat is a hit by construction, so the way scan is
    /// skipped and only the LRU timestamp is refreshed. The short-circuit
    /// is bit-identical to the full path ([`Cache::access_reference`]): it
    /// performs the same counter updates and the same LRU-timestamp
    /// refresh. Direct-mapped configurations always take the full lookup —
    /// there it is already a single compare, so an MRU probe would cost as
    /// much as it saves; their batched hot path is
    /// [`AccessSink::read_run`], which segments runs by line instead.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let line = addr >> self.line_shift;
        if self.cfg.ways > 1 && line == self.last_line {
            self.clock += 1;
            self.sets[self.last_slot].1 = self.clock;
            self.stats.record(is_write, false);
            return false;
        }
        self.access_cold(line, is_write)
    }

    /// The full-lookup reference path: identical semantics to
    /// [`Cache::access`] but never takes the MRU short-circuit. Kept public
    /// so the golden-equivalence tests and the cachesim benches can compare
    /// the fast path against the original per-access behaviour; the two may
    /// be freely interleaved on one cache.
    #[inline]
    pub fn access_reference(&mut self, addr: u64, is_write: bool) -> bool {
        self.access_cold(addr >> self.line_shift, is_write)
    }

    #[inline]
    fn access_cold(&mut self, line: u64, is_write: bool) -> bool {
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.tag_shift;
        let allocate = !is_write || matches!(self.cfg.write_policy, WritePolicy::WriteAllocate);

        let miss = if self.cfg.ways == 1 {
            // Direct-mapped: the lookup is one compare, and `access` never
            // consults the MRU state for `ways == 1`, so none is kept.
            let slot = &mut self.dm_tags[set];
            let miss = *slot != tag;
            if miss && allocate {
                *slot = tag;
            }
            miss
        } else {
            self.access_assoc(line, set, tag, allocate)
        };

        self.stats.record(is_write, miss);
        miss
    }

    /// Kept out of line so the compact direct-mapped sequence is all that
    /// callers inline — the way scans here would otherwise bloat every
    /// inlined `access` even in sims that never take them.
    #[inline(never)]
    fn access_assoc(&mut self, line: u64, set: usize, tag: u64, allocate: bool) -> bool {
        self.clock += 1;
        let ways = self.cfg.ways;
        let base = set * ways;
        let slots = &mut self.sets[base..base + ways];
        // Hit?
        if let Some(pos) = slots.iter().position(|(t, _)| *t == tag) {
            slots[pos].1 = self.clock;
            self.last_line = line;
            self.last_slot = base + pos;
            return false;
        }
        if allocate {
            // Victim: empty slot if any, else least recently used.
            let (pos, victim) = slots
                .iter_mut()
                .enumerate()
                .min_by_key(|(_, (t, lu))| if *t == EMPTY { 0 } else { *lu + 1 })
                .expect("ways > 0");
            *victim = (tag, self.clock);
            self.last_line = line;
            self.last_slot = base + pos;
        }
        true
    }

    /// Records `n` guaranteed read hits on the most recently accessed line —
    /// the bulk tail of a batched run whose head access left the line
    /// resident. Performs exactly the counter and LRU updates `n` calls to
    /// [`Cache::access`] would.
    #[inline]
    pub(crate) fn record_line_read_hits(&mut self, n: u64) {
        self.stats.accesses += n;
        self.stats.reads += n;
        if self.cfg.ways > 1 {
            self.clock += n;
            self.sets[self.last_slot].1 = self.clock;
        }
    }

    /// Records `n` guaranteed write hits on the most recently accessed line
    /// — the bulk tail of a batched write run whose head access left the
    /// line resident (a write hit, or a write miss under
    /// [`WritePolicy::WriteAllocate`]). Performs exactly the counter and
    /// LRU updates `n` calls to [`Cache::access`] would.
    #[inline]
    pub(crate) fn record_line_write_hits(&mut self, n: u64) {
        self.stats.accesses += n;
        self.stats.writes += n;
        if self.cfg.ways > 1 {
            self.clock += n;
            self.sets[self.last_slot].1 = self.clock;
        }
    }

    /// Records `n` guaranteed write misses on a non-resident line — the
    /// bulk tail of a batched write run whose head access missed under
    /// [`WritePolicy::WriteAround`] (the line was not filled, so every
    /// same-line store after it misses too). Counter-for-counter and
    /// clock-for-clock identical to `n` calls to [`Cache::access`].
    #[inline]
    pub(crate) fn record_line_write_misses(&mut self, n: u64) {
        self.stats.accesses += n;
        self.stats.writes += n;
        self.stats.misses += n;
        self.stats.write_misses += n;
        if self.cfg.ways > 1 {
            self.clock += n;
        }
    }

    /// Records guaranteed hits spread over lines that were each probed
    /// earlier in the same row chunk and cannot have been evicted since.
    /// Counts and clock advance as for `reads + writes` calls to
    /// [`Cache::access`]; LRU timestamps are left as the probes set them,
    /// which keeps each touched line most recent in its set — the only
    /// order replacement ever compares, as no set holds two touched lines.
    #[inline]
    pub(crate) fn record_hits(&mut self, reads: u64, writes: u64) {
        self.stats.accesses += reads + writes;
        self.stats.reads += reads;
        self.stats.writes += writes;
        if self.cfg.ways > 1 {
            self.clock += reads + writes;
        }
    }

    /// Adds counts replayed elsewhere: a memoized outcome of a row class.
    /// Direct-mapped only, where no LRU clock advances.
    #[inline]
    pub(crate) fn record_stats(&mut self, s: &AccessStats) {
        debug_assert_eq!(self.cfg.ways, 1);
        self.stats.merge(s);
    }

    /// Makes the line containing `addr` resident without counting an
    /// access: the end state of a memoized row class. Direct-mapped only.
    #[inline]
    pub(crate) fn install(&mut self, addr: u64) {
        let line = addr >> self.line_shift;
        self.dm_tags[(line & self.set_mask) as usize] = line >> self.tag_shift;
    }

    /// Line size helper for run segmentation.
    #[inline]
    pub(crate) fn line_bytes(&self) -> u64 {
        self.cfg.line_bytes as u64
    }

    /// True when the line containing `addr` is currently resident —
    /// a probe that does not perturb stats or LRU state.
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.tag_shift;
        if self.cfg.ways == 1 {
            self.dm_tags[set] == tag
        } else {
            let ways = self.cfg.ways;
            self.sets[set * ways..(set + 1) * ways]
                .iter()
                .any(|(t, _)| *t == tag)
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

    #[inline]
    fn read_run(&mut self, addr: u64, stride: i64, n: usize) {
        // Segment the run by line: probe the first access of each line,
        // then record the rest of the line's accesses as guaranteed hits in
        // bulk (after a read probe the line is always resident — reads
        // allocate under every write policy). The same-line test is a
        // shift+compare, so this is division-free and valid for any stride,
        // including descending, zero, and line-skipping runs (the latter
        // simply probe every access).
        let shift = self.line_shift;
        let mut a = addr;
        let mut rem = n;
        while rem > 0 {
            self.access(a, false);
            let line = a >> shift;
            rem -= 1;
            a = a.wrapping_add(stride as u64);
            let mut hits = 0u64;
            while rem > 0 && a >> shift == line {
                hits += 1;
                rem -= 1;
                a = a.wrapping_add(stride as u64);
            }
            if hits > 0 {
                self.record_line_read_hits(hits);
            }
        }
    }

    #[inline]
    fn write_run(&mut self, addr: u64, stride: i64, n: usize) {
        // Same line segmentation as `read_run`, but the bulk tail of a
        // line depends on whether the head store left it resident: it does
        // on a hit or an allocating miss, while a `WriteAround` miss leaves
        // the line cold and every same-line store after it misses too.
        let shift = self.line_shift;
        let mut a = addr;
        let mut rem = n;
        while rem > 0 {
            let head_miss = self.access(a, true);
            let line = a >> shift;
            rem -= 1;
            a = a.wrapping_add(stride as u64);
            let mut tail = 0u64;
            while rem > 0 && a >> shift == line {
                tail += 1;
                rem -= 1;
                a = a.wrapping_add(stride as u64);
            }
            if tail > 0 {
                let resident =
                    !head_miss || matches!(self.cfg.write_policy, WritePolicy::WriteAllocate);
                if resident {
                    self.record_line_write_hits(tail);
                } else {
                    self.record_line_write_misses(tail);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplacementPolicy;

    fn tiny(ways: usize, policy: WritePolicy) -> Cache {
        // 256B cache, 32B lines -> 8 lines.
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            ways,
            write_policy: policy,
            replacement: ReplacementPolicy::Lru,
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
    fn read_run_equals_individual_reads() {
        for ways in [1usize, 2, 8] {
            for (start, stride, n) in [
                (0u64, 8i64, 100usize), // dense unit-stride
                (3, 8, 50),             // unaligned start
                (0, 32, 40),            // exactly line-stride
                (8, 16, 33),            // paper's neighbour-pair stride
                (500, -8, 20),          // descending
                (40, 0, 10),            // degenerate
                (0, 4096, 9),           // line-skipping
            ] {
                let mut batched = tiny(ways, WritePolicy::WriteAround);
                let mut single = tiny(ways, WritePolicy::WriteAround);
                // Warm both with a shared prefix so runs start non-cold.
                for c in [&mut batched, &mut single] {
                    for a in (0..256).step_by(8) {
                        c.access(a, false);
                    }
                }
                batched.read_run(start, stride, n);
                let mut a = start;
                for _ in 0..n {
                    single.read(a);
                    a = a.wrapping_add(stride as u64);
                }
                assert_eq!(
                    batched.stats(),
                    single.stats(),
                    "ways={ways} start={start} stride={stride} n={n}"
                );
            }
        }
    }

    #[test]
    fn write_run_equals_individual_writes() {
        for ways in [1usize, 2, 8] {
            for policy in [WritePolicy::WriteAround, WritePolicy::WriteAllocate] {
                for (start, stride, n) in [
                    (0u64, 8i64, 100usize), // dense unit-stride
                    (3, 8, 50),             // unaligned start
                    (0, 32, 40),            // exactly line-stride
                    (8, 16, 33),            // stride-2 elements
                    (500, -8, 20),          // descending
                    (40, 0, 10),            // degenerate
                    (0, 4096, 9),           // line-skipping
                ] {
                    let mut batched = tiny(ways, policy);
                    let mut single = tiny(ways, policy);
                    // Warm both with a shared prefix so runs hit a mix of
                    // resident and cold lines.
                    for c in [&mut batched, &mut single] {
                        for a in (0..256).step_by(8) {
                            c.access(a, false);
                        }
                    }
                    batched.write_run(start, stride, n);
                    let mut a = start;
                    for _ in 0..n {
                        single.write(a);
                        a = a.wrapping_add(stride as u64);
                    }
                    assert_eq!(
                        batched.stats(),
                        single.stats(),
                        "ways={ways} policy={policy:?} start={start} stride={stride} n={n}"
                    );
                    // And the cache contents/LRU state agree: subsequent
                    // identical traffic behaves identically.
                    for probe in (0..2048u64).step_by(64) {
                        assert_eq!(
                            batched.access(probe, false),
                            single.access(probe, false),
                            "ways={ways} policy={policy:?} post-run probe {probe}"
                        );
                    }
                }
            }
        }
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
