//! Two-level cache hierarchy.

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::row::{
    self, Class, CleanClass, Outcome, PointMajorClass, RowPlans, RowShape, CHUNK_POINTS,
    MIN_PLANNED_POINTS,
};
use crate::sinks::AccessSink;
use crate::stats::AccessStats;

/// An L1 → L2 hierarchy matching the paper's simulation setup.
///
/// Semantics:
/// * a **read** probes L1; on an L1 miss the line is fetched through L2, so
///   L2 sees exactly the L1 read misses;
/// * a **write** is write-through at L1 (the UltraSparc2 L1 is
///   write-through): it updates L1 per L1's write policy *and* is always
///   presented to L2, where the L2 write policy applies.
///
/// The default geometry ([`Hierarchy::ultrasparc2`]) is the 16KB
/// direct-mapped write-around L1 with 32-byte lines over the 2MB
/// direct-mapped L2 with 64-byte lines used for every simulation figure in
/// the paper (Figs 14, 16, 18, 20).
///
/// # Example
///
/// ```
/// use tiling3d_cachesim::{AccessSink, Hierarchy};
///
/// let mut h = Hierarchy::ultrasparc2();
/// h.read(0);  // cold miss at both levels
/// h.read(8);  // same L1 line: hit, L2 not consulted
/// assert_eq!(h.l1_stats().misses, 1);
/// assert_eq!(h.l2_stats().accesses, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    /// Class splits of row chunks (geometry-only, so never reset).
    rows: RowPlans,
}

impl Hierarchy {
    /// Builds a hierarchy from two level configurations.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        Hierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            rows: RowPlans::default(),
        }
    }

    /// The paper's simulated UltraSparc2 memory system.
    pub fn ultrasparc2() -> Self {
        Self::new(CacheConfig::ULTRASPARC2_L1, CacheConfig::ULTRASPARC2_L2)
    }

    /// L1 counters.
    pub fn l1_stats(&self) -> AccessStats {
        self.l1.stats()
    }

    /// L2 counters.
    pub fn l2_stats(&self) -> AccessStats {
        self.l2.stats()
    }

    /// Immutable access to the L1 model (for probes in tests).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// Immutable access to the L2 model.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Clears counters and contents of both levels.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
    }

    /// L1 miss rate in percent (the paper's primary metric).
    pub fn l1_miss_rate_pct(&self) -> f64 {
        self.l1.stats().miss_rate_pct()
    }

    /// L2 *global-reference* miss rate in percent: L2 misses divided by the
    /// total references the program issued (L1 accesses), matching how the
    /// paper reports small L2 rates (e.g. 6.3% L1 / 1.3% L2 for RESID).
    pub fn l2_miss_rate_pct(&self) -> f64 {
        let total = self.l1.stats().accesses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.l2.stats().misses as f64 / total as f64
        }
    }

    /// L2 *local* miss rate in percent (misses over L2 accesses).
    pub fn l2_local_miss_rate_pct(&self) -> f64 {
        self.l2.stats().miss_rate_pct()
    }

    /// Folds both levels' stats into the global observability metrics as
    /// `cachesim.l1.*` / `cachesim.l2.*` counters (no-op when the recorder
    /// is off). Call once per simulated point, before `reset`.
    pub fn fold_obs_metrics(&self) {
        self.l1.stats().fold_obs_metrics("cachesim.l1");
        self.l2.stats().fold_obs_metrics("cachesim.l2");
    }
}

impl Hierarchy {
    /// L1-miss refill path, out of line: most reads hit L1, so keeping the
    /// L2 lookup behind a call leaves callers with just the compact L1
    /// probe to inline.
    #[inline(never)]
    fn l2_read_fill(&mut self, addr: u64) {
        self.l2.access(addr, false);
    }

    /// True when a line of one of the byte ranges (offsets from `base`)
    /// is L1-resident.
    fn any_l1_resident(&self, ranges: &[(i64, i64)], base: u64) -> bool {
        let line = self.l1.line_bytes();
        ranges.iter().any(|&(lo, hi)| {
            let first = base.wrapping_add(lo as u64) & !(line - 1);
            let last = base.wrapping_add(hi as u64);
            (0..=last.wrapping_sub(first) / line)
                .any(|i| self.l1.probe(first.wrapping_add(i * line)))
        })
    }

    /// Replays one class of a row chunk of `points` points at `base`.
    fn replay_class(&mut self, class: &mut Class, step: i64, base: u64, points: usize) {
        match class {
            Class::Run(s) => {
                let a = base.wrapping_add(s.offset as u64);
                if s.write {
                    self.write_run(a, step, points);
                } else {
                    self.read_run(a, step, points);
                }
            }
            Class::Clean(c) => self.replay_clean(c, base),
            Class::PointMajor(c) if self.l1.config().ways == 1 && self.l2.config().ways == 1 => {
                self.replay_memoized(c, step, base, points);
            }
            Class::PointMajor(c) => row::expand_slots(self, &c.slots, step, base, points),
        }
    }

    /// A conflicting class on direct-mapped levels. An access's outcome
    /// there depends only on whether its set holds its line; no other class
    /// of the chunk touches the class's sets; and every set it touches ends
    /// holding one of its lines or the tag it started with. So which of its
    /// lines are resident at the start determines every counter and the end
    /// state: a known starting state replays from the memo, a new one
    /// point-major, recording the outcome.
    fn replay_memoized(&mut self, c: &mut PointMajorClass, step: i64, base: u64, points: usize) {
        self.residency(c, base);
        if let Some(o) = c.memo.get() {
            self.l1.record_stats(&o.l1);
            self.l2.record_stats(&o.l2);
            for (w, &word) in o.resident.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let a = base.wrapping_add(c.lines[i] as u64);
                    if i < c.l1_lines {
                        self.l1.install(a);
                    } else {
                        self.l2.install(a);
                    }
                }
            }
            return;
        }
        let (l1, l2) = (self.l1.stats(), self.l2.stats());
        row::expand_slots(self, &c.slots, step, base, points);
        let (l1, l2) = (self.l1.stats().since(&l1), self.l2.stats().since(&l2));
        let start = std::mem::take(&mut c.memo.key);
        self.residency(c, base);
        let resident = std::mem::replace(&mut c.memo.key, start).into_boxed_slice();
        c.memo.insert(Outcome { l1, l2, resident });
    }

    /// Sets `c.memo.key` to one bit per line of `c`, set when the line is
    /// resident at its level in the chunk at `base`.
    fn residency(&self, c: &mut PointMajorClass, base: u64) {
        let key = &mut c.memo.key;
        key.clear();
        key.resize(c.lines.len().div_ceil(64), 0);
        for (i, &offset) in c.lines.iter().enumerate() {
            let level = if i < c.l1_lines { &self.l1 } else { &self.l2 };
            let resident = level.probe(base.wrapping_add(offset as u64));
            key[i / 64] |= u64::from(resident) << (i % 64);
        }
    }

    /// A clean class: no line of it can be evicted during the chunk, so
    /// each L1 line's first touch (a load) is its only possible miss, and
    /// every store hits L1. L2 sees the L1 misses and every store; the
    /// first of those events on each L2 line is probed with its own type,
    /// in trace order, and leaves the line resident, so the rest hit.
    fn replay_clean(&mut self, c: &CleanClass, base: u64) {
        let (mut fills, mut fill_probes, mut store_probes) = (0u64, 0u64, 0u64);
        let mut start = 0;
        for g in &c.l2 {
            let mut first = g.store.map(|t| (t, true));
            for t in &c.l1[start..g.l1_end] {
                if self.l1.access(base.wrapping_add(t.offset as u64), false) {
                    fills += 1;
                    if first.is_none_or(|(f, _)| t.rank < f.rank) {
                        first = Some((*t, false));
                    }
                }
            }
            start = g.l1_end;
            if let Some((t, write)) = first {
                self.l2.access(base.wrapping_add(t.offset as u64), write);
                if write {
                    store_probes += 1;
                } else {
                    fill_probes += 1;
                }
            }
        }
        self.l1.record_hits(c.l1_read_hits, c.stores);
        self.l2
            .record_hits(fills - fill_probes, c.stores - store_probes);
    }
}

impl AccessSink for Hierarchy {
    #[inline]
    fn read(&mut self, addr: u64) {
        if self.l1.access(addr, false) {
            self.l2_read_fill(addr);
        }
    }

    /// Out of line: stencil traces write once per point (1 in 7–29
    /// accesses), and the write-through L2 update would double the inlined
    /// footprint of every trace loop for that rare case.
    #[inline(never)]
    fn write(&mut self, addr: u64) {
        self.l1.access(addr, true);
        // Write-through: L2 always observes the store.
        self.l2.access(addr, true);
    }

    #[inline]
    fn read_run(&mut self, addr: u64, stride: i64, n: usize) {
        // Segment by L1 lines with a division-free same-line loop (any
        // stride): within one line only the first access can miss (and
        // reach L2, at that exact address — matching the per-access
        // expansion); the rest are L1 hits recorded in bulk.
        let shift = self.l1.line_bytes().trailing_zeros();
        let mut a = addr;
        let mut rem = n;
        while rem > 0 {
            if self.l1.access(a, false) {
                self.l2_read_fill(a);
            }
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
                self.l1.record_line_read_hits(hits);
            }
        }
    }

    #[inline]
    fn write_run(&mut self, addr: u64, stride: i64, n: usize) {
        // Write-through: both levels observe every store, and stores never
        // couple the levels (unlike reads, where only L1 misses reach L2),
        // so each level batches its own run independently — the two
        // level-local segmentations are together bit-identical to the
        // interleaved per-access expansion.
        self.l1.write_run(addr, stride, n);
        self.l2.write_run(addr, stride, n);
    }

    /// Splits the row into chunks and each chunk into classes that touch
    /// disjoint L1 and L2 sets (DESIGN.md, "Row-level replay"). Classes
    /// cannot affect each other's hits, misses or replacement order, so
    /// each replays on its own; together they are bit-identical to the
    /// point-major expansion.
    fn row(&mut self, shape: &RowShape, base: u64, points: usize) {
        if points < MIN_PLANNED_POINTS || !row::plannable(shape, self.l1.config(), self.l2.config())
        {
            shape.expand(self, base, points);
            return;
        }
        let mut plans = std::mem::take(&mut self.rows);
        plans.select(shape);
        let (l1, l2) = (*self.l1.config(), *self.l2.config());
        let phase_mask = l2.line_bytes as u64 - 1;
        let step = shape.step();
        let mut done = 0;
        while done < points {
            let n = (points - done).min(CHUNK_POINTS);
            let b = base.wrapping_add((done as i64 * step) as u64);
            if n < MIN_PLANNED_POINTS {
                shape.expand(self, b, n);
            } else {
                let mut plan = plans.get(n, b & phase_mask, &l1, &l2);
                if plan.strict.is_some() && self.any_l1_resident(&plan.quiet, b) {
                    plan = plan.strict.as_deref_mut().expect("checked above");
                }
                for class in &mut plan.classes {
                    self.replay_class(class, step, b, n);
                }
            }
            done += n;
        }
        self.rows = plans;
    }
}

/// Convenience: run a trace closure against the standard UltraSparc2
/// hierarchy and return it for inspection.
pub fn simulate_ultrasparc2(trace: impl FnOnce(&mut Hierarchy)) -> Hierarchy {
    let mut h = Hierarchy::ultrasparc2();
    trace(&mut h);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_sees_only_l1_read_misses() {
        let mut h = Hierarchy::ultrasparc2();
        h.read(0); // L1 miss -> L2 access
        h.read(8); // L1 hit -> no L2 access
        h.read(0); // L1 hit
        assert_eq!(h.l1_stats().accesses, 3);
        assert_eq!(h.l1_stats().misses, 1);
        assert_eq!(h.l2_stats().accesses, 1);
    }

    #[test]
    fn writes_are_write_through() {
        let mut h = Hierarchy::ultrasparc2();
        h.write(0);
        h.write(0);
        assert_eq!(h.l1_stats().writes, 2);
        assert_eq!(h.l2_stats().writes, 2);
        // L1 write-around: both L1 writes miss (no allocate); L2
        // write-allocate: first misses, second hits.
        assert_eq!(h.l1_stats().write_misses, 2);
        assert_eq!(h.l2_stats().write_misses, 1);
    }

    #[test]
    fn l1_conflict_can_still_hit_l2() {
        let mut h = Hierarchy::ultrasparc2();
        // Two addresses 16K apart conflict in L1 but not in the 2M L2.
        h.read(0);
        h.read(16 * 1024);
        h.read(0);
        h.read(16 * 1024);
        assert_eq!(h.l1_stats().misses, 4);
        assert_eq!(h.l2_stats().misses, 2); // only cold misses at L2
    }

    #[test]
    fn global_l2_rate_uses_program_references() {
        let mut h = Hierarchy::ultrasparc2();
        for i in 0..10u64 {
            h.read(i * 8); // one 32B L1 line per 4 reads
        }
        // 10 refs, 3 L1 misses (lines 0,32,64), 3 L2 misses... lines are
        // 64B in L2 so lines {0,64} -> 2 L2 misses.
        assert_eq!(h.l1_stats().misses, 3);
        assert_eq!(h.l2_stats().misses, 2);
        assert!((h.l2_miss_rate_pct() - 20.0).abs() < 1e-12);
        assert!(h.l2_local_miss_rate_pct() > h.l2_miss_rate_pct());
    }

    #[test]
    fn conflict_memo_never_exceeds_its_cap() {
        // Three loads a whole 256-byte L1 apart: every 32-point chunk is one
        // point-major class over all 8 L1 sets. Random loads between rows
        // leave each set holding one of four lines, far more starting
        // states than the memo keeps.
        let l1 = CacheConfig::direct_mapped(256, 32);
        let l2 = CacheConfig {
            size_bytes: 2048,
            ..CacheConfig::ULTRASPARC2_L2
        };
        let shape = RowShape::new(8).read(0).read(256).read(512);
        let mut h = Hierarchy::new(l1, l2);
        let mut twin = Hierarchy::new(l1, l2);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..400 {
            for set in 0..8 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = 256 * (x % 4) + 32 * set;
                h.read(a);
                twin.read(a);
            }
            h.row(&shape, 0, 32);
            shape.expand(&mut twin, 0, 32);
        }
        assert_eq!(h.l1_stats(), twin.l1_stats());
        assert_eq!(h.l2_stats(), twin.l2_stats());
        let lens = h.rows.memo_lens();
        assert_eq!(lens.len(), 1);
        assert_eq!(lens[0], row::MEMO_CAP);
    }

    #[test]
    fn simulate_helper_returns_populated_hierarchy() {
        let h = simulate_ultrasparc2(|h| {
            h.read(123);
            h.write(456);
        });
        assert_eq!(h.l1_stats().accesses, 2);
    }
}
