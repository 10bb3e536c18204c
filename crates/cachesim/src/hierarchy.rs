//! Two-level cache hierarchy.

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::level::{self, with_views, Level};
use crate::row::{
    Class, CleanClass, Outcome, PointMajorClass, RowPlans, RowShape, Slot, CHUNK_POINTS,
    MIN_PLANNED_POINTS,
};
use crate::sinks::AccessSink;
use crate::stats::{AccessStats, Tally};

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
            rows: RowPlans::new(l1, l2),
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

    /// Folds both levels' stats into the global observability metrics as
    /// `cachesim.l1.*` / `cachesim.l2.*` counters (no-op when the recorder
    /// is off). Call once per simulated point, before `reset`.
    pub fn fold_obs_metrics(&self) {
        self.l1.stats().fold_obs_metrics("cachesim.l1");
        self.l2.stats().fold_obs_metrics("cachesim.l2");
    }
}

/// Both levels' counts over one replay call.
#[derive(Clone, Copy, Debug, Default)]
struct Tallies {
    l1: Tally,
    l2: Tally,
}

impl Tallies {
    fn add(&mut self, other: &Tallies) {
        self.l1.add(&other.l1);
        self.l2.add(&other.l2);
    }
}

impl Hierarchy {
    /// Adds one replay call's counts to both levels.
    fn count(&mut self, t: &Tallies) {
        self.l1.count(&t.l1);
        self.l2.count(&t.l2);
    }

    /// A row of any other shape, replayed by chunks and classes. This
    /// and [`Hierarchy::run`] stay out of line, so the planned replay
    /// compiles to the same code as it would without one-slot rows;
    /// inlined into one function, the run loops changed its register
    /// allocation throughout.
    #[inline(never)]
    fn planned(&mut self, shape: &RowShape, base: u64, points: usize) {
        let mut t = Tallies::default();
        let plans = &mut self.rows;
        with_views!(self.l1, self.l2, |l1, l2| Levels { l1, l2 }
            .row(&mut t, plans, shape, base, points));
        self.count(&t);
    }

    /// The run of one slot over `points` points `step` bytes apart.
    #[inline(never)]
    fn run(&mut self, s: Slot, step: i64, base: u64, points: usize) {
        let mut t = Tallies::default();
        with_views!(self.l1, self.l2, |l1, l2| Levels { l1, l2 }
            .run(&mut t, s, step, base, points));
        self.count(&t);
    }
}

/// Views of both levels for one replay call (see [`crate::level`]). Every
/// replay loop is written once here, generic over the pair of level
/// kinds, and counts into a [`Tallies`] that its caller keeps in a local.
/// The methods are inlined into each entry point, so the views' scalars
/// and the counters stay in registers across the loops.
struct Levels<A, B> {
    l1: A,
    l2: B,
}

impl<A: Level, B: Level> Levels<A, B> {
    /// A run of loads at `addr, addr + stride, ...`, segmented by L1 line
    /// like [`level::write_run`]. Only each line's first load can miss
    /// and reach L2, at that exact address, as in the per-access
    /// expansion; the rest of the line's loads are hits on the line it
    /// left resident and newest in its set, so they are only counted.
    #[inline(always)]
    fn read_run(&mut self, t: &mut Tallies, addr: u64, stride: i64, n: usize) {
        let shift = self.l1.line_shift();
        t.l1.reads += n as u64;
        let mut a = addr;
        let mut rem = n;
        while rem > 0 {
            if self.l1.access(a, false) {
                t.l1.read_misses += 1;
                t.l2.reads += 1;
                t.l2.read_misses += u64::from(self.l2.access(a, false));
            }
            let line = a >> shift;
            rem -= 1;
            a = a.wrapping_add(stride as u64);
            while rem > 0 && a >> shift == line {
                rem -= 1;
                a = a.wrapping_add(stride as u64);
            }
        }
    }

    /// A run of stores. Both levels see every store, and stores never
    /// couple the levels, so each level segments the run on its own;
    /// together the two are the interleaved per-access expansion.
    #[inline(always)]
    fn write_run(&mut self, t: &mut Tallies, addr: u64, stride: i64, n: usize) {
        level::write_run(&mut self.l1, &mut t.l1, addr, stride, n);
        level::write_run(&mut self.l2, &mut t.l2, addr, stride, n);
    }

    /// One slot over `points` points `step` bytes apart: a single run.
    #[inline(always)]
    fn run(&mut self, t: &mut Tallies, s: Slot, step: i64, base: u64, points: usize) {
        let a = base.wrapping_add(s.offset as u64);
        if s.write {
            self.write_run(t, a, step, points);
        } else {
            self.read_run(t, a, step, points);
        }
    }

    /// Point-major replay of `slots` over `points` points `step` bytes
    /// apart: the per-access expansion, for single accesses, short rows
    /// and point-major classes. A load reaches L2 only when it misses L1;
    /// a store is written through to both levels. Per access the loop
    /// counts only misses and L1 stores; the loads, and the L2 loads and
    /// stores they imply, are added once at the end.
    #[inline(always)]
    fn expand(&mut self, t: &mut Tallies, slots: &[Slot], step: i64, base: u64, points: usize) {
        let (fills, stores) = (t.l1.read_misses, t.l1.writes);
        let mut b = base;
        for _ in 0..points {
            for s in slots {
                let a = b.wrapping_add(s.offset as u64);
                if s.write {
                    t.l1.writes += 1;
                    t.l1.write_misses += u64::from(self.l1.access(a, true));
                    t.l2.write_misses += u64::from(self.l2.access(a, true));
                } else if self.l1.access(a, false) {
                    t.l1.read_misses += 1;
                    t.l2.read_misses += u64::from(self.l2.access(a, false));
                }
            }
            b = b.wrapping_add(step as u64);
        }
        let (fills, stores) = (t.l1.read_misses - fills, t.l1.writes - stores);
        t.l1.reads += (slots.len() * points) as u64 - stores;
        t.l2.reads += fills;
        t.l2.writes += stores;
    }

    /// [`Levels::expand`] out of line, into a tally of its own: the
    /// expansions inside a planned row (short remainder chunks,
    /// point-major classes that are not memoized, memo misses). Inlined
    /// among the other replay loops, it compiled to a loop 6–17% slower
    /// on the strided rows of Euc3D's narrow tiles. Short rows keep the
    /// inlined loop: a call per 1–3 point row cost red-black's narrow
    /// tiles 22–31%.
    #[inline(never)]
    fn point_major(&mut self, slots: &[Slot], step: i64, base: u64, points: usize) -> Tallies {
        let mut t = Tallies::default();
        self.expand(&mut t, slots, step, base, points);
        t
    }

    /// A row: split into chunks and each chunk into classes that touch
    /// disjoint L1 and L2 sets (DESIGN.md, "Row-level replay"). Classes
    /// cannot affect each other's hits, misses or replacement order, so
    /// each replays on its own; together they are bit-identical to the
    /// point-major expansion. Short rows and short remainder chunks
    /// expand point by point.
    #[inline(always)]
    fn row(
        &mut self,
        t: &mut Tallies,
        plans: &mut RowPlans,
        shape: &RowShape,
        base: u64,
        points: usize,
    ) {
        let step = shape.step();
        if points < MIN_PLANNED_POINTS || !plans.plannable(shape) {
            self.expand(t, shape.slots(), step, base, points);
            return;
        }
        plans.select(shape);
        let mut done = 0;
        while done < points {
            let n = (points - done).min(CHUNK_POINTS);
            let b = base.wrapping_add((done as i64 * step) as u64);
            if n < MIN_PLANNED_POINTS {
                t.add(&self.point_major(shape.slots(), step, b, n));
            } else {
                let mut plan = plans.get(n, b);
                if plan.strict.is_some() && self.any_l1_resident(&plan.quiet, b) {
                    plan = plan.strict.as_deref_mut().expect("checked above");
                }
                for class in &mut plan.classes {
                    self.class(t, class, step, b, n);
                }
            }
            done += n;
        }
    }

    /// True when a line of one of the byte ranges (offsets from `base`)
    /// is L1-resident.
    #[inline(always)]
    fn any_l1_resident(&self, ranges: &[(i64, i64)], base: u64) -> bool {
        let shift = self.l1.line_shift();
        ranges.iter().any(|&(lo, hi)| {
            let first = base.wrapping_add(lo as u64) >> shift;
            let last = base.wrapping_add(hi as u64) >> shift;
            (0..=last.wrapping_sub(first)).any(|i| self.l1.probe(first.wrapping_add(i) << shift))
        })
    }

    /// Replays one class of a row chunk of `points` points at `base`.
    #[inline(always)]
    fn class(&mut self, t: &mut Tallies, class: &mut Class, step: i64, base: u64, points: usize) {
        match class {
            Class::Run(s) => self.run(t, *s, step, base, points),
            Class::Clean(c) => self.clean(t, c, base),
            Class::PointMajor(c) if A::DIRECT_MAPPED && B::DIRECT_MAPPED && c.memoize => {
                self.memoized(t, c, step, base, points);
            }
            Class::PointMajor(c) => t.add(&self.point_major(&c.slots, step, base, points)),
        }
    }

    /// A conflicting class on direct-mapped levels. An access's outcome
    /// there depends only on whether its set holds its line; no other class
    /// of the chunk touches the class's sets; and every set it touches ends
    /// holding one of its lines or the line it started with. So which of its
    /// lines are resident at the start determines every counter and the end
    /// state: a known starting state replays from the memo, a new one
    /// point-major into a tally of its own, which the memo records.
    #[inline(always)]
    fn memoized(
        &mut self,
        t: &mut Tallies,
        c: &mut PointMajorClass,
        step: i64,
        base: u64,
        points: usize,
    ) {
        self.residency(c, base);
        if let Some(o) = c.memo.get() {
            t.l1.add(&o.l1);
            t.l2.add(&o.l2);
            // A line resident at the start and at the end already holds its
            // set; only the lines the chunk brings in are installed.
            for (w, (&end, &start)) in o.resident.iter().zip(&c.memo.key).enumerate() {
                let mut bits = end & !start;
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    // On a direct-mapped level an uncounted load installs
                    // its line.
                    let a = base.wrapping_add(c.lines[i] as u64);
                    if i < c.l1_lines {
                        self.l1.access(a, false);
                    } else {
                        self.l2.access(a, false);
                    }
                }
            }
            return;
        }
        let own = self.point_major(&c.slots, step, base, points);
        t.add(&own);
        let start = std::mem::take(&mut c.memo.key);
        self.residency(c, base);
        let resident = std::mem::replace(&mut c.memo.key, start).into_boxed_slice();
        c.memo.insert(Outcome {
            l1: own.l1,
            l2: own.l2,
            resident,
        });
    }

    /// Sets `c.memo.key` to one bit per line of `c`, set when the line is
    /// resident at its level in the chunk at `base`: bit `i % 64` of word
    /// `i / 64` for line `i`. One loop probes the L1 lines and one the L2
    /// lines, and the bits are packed into a word kept in a register and
    /// stored once per 64 lines.
    #[inline(always)]
    fn residency(&self, c: &mut PointMajorClass, base: u64) {
        let key = &mut c.memo.key;
        key.clear();
        key.reserve(c.lines.len().div_ceil(64));
        let (l1, l2) = c.lines.split_at(c.l1_lines);
        let mut word = 0u64;
        let mut pack = |i: usize, resident: bool| {
            word |= u64::from(resident) << (i % 64);
            if i % 64 == 63 {
                key.push(word);
                word = 0;
            }
        };
        for (i, &offset) in l1.iter().enumerate() {
            pack(i, self.l1.probe(base.wrapping_add(offset as u64)));
        }
        for (i, &offset) in l2.iter().enumerate() {
            pack(
                c.l1_lines + i,
                self.l2.probe(base.wrapping_add(offset as u64)),
            );
        }
        if !c.lines.len().is_multiple_of(64) {
            key.push(word);
        }
    }

    /// A clean class: no line of it can be evicted during the chunk, so
    /// each L1 line's first touch (a load) is its only possible miss, and
    /// every store hits L1. L2 sees the L1 misses and every store; the
    /// first of those events on each L2 line is probed with its own type,
    /// in trace order, and leaves the line resident, so the rest hit. The
    /// hits are only counted: no set holds two lines of the class, so the
    /// probe left each line newest in its set, and later hits would move
    /// no LRU order.
    #[inline(always)]
    fn clean(&mut self, t: &mut Tallies, c: &CleanClass, base: u64) {
        let mut fills = 0u64;
        let mut start = 0;
        for g in &c.l2 {
            let mut first = g.store.map(|f| (f, true));
            for f in &c.l1[start..g.l1_end] {
                if self.l1.access(base.wrapping_add(f.offset as u64), false) {
                    fills += 1;
                    if first.is_none_or(|(s, _)| f.rank < s.rank) {
                        first = Some((*f, false));
                    }
                }
            }
            start = g.l1_end;
            if let Some((f, write)) = first {
                let miss = u64::from(self.l2.access(base.wrapping_add(f.offset as u64), write));
                if write {
                    t.l2.write_misses += miss;
                } else {
                    t.l2.read_misses += miss;
                }
            }
        }
        t.l1.reads += c.l1.len() as u64 + c.l1_read_hits;
        t.l1.read_misses += fills;
        t.l1.writes += c.stores;
        t.l2.reads += fills;
        t.l2.writes += c.stores;
    }
}

/// A single load, as a one-slot point.
const LOAD: [Slot; 1] = [Slot {
    offset: 0,
    write: false,
}];

/// A single store, as a one-slot point.
const STORE: [Slot; 1] = [Slot {
    offset: 0,
    write: true,
}];

impl AccessSink for Hierarchy {
    fn read(&mut self, addr: u64) {
        let mut t = Tallies::default();
        with_views!(self.l1, self.l2, |l1, l2| Levels { l1, l2 }
            .expand(&mut t, &LOAD, 0, addr, 1));
        self.count(&t);
    }

    fn write(&mut self, addr: u64) {
        let mut t = Tallies::default();
        with_views!(self.l1, self.l2, |l1, l2| Levels { l1, l2 }
            .expand(&mut t, &STORE, 0, addr, 1));
        self.count(&t);
    }

    /// A one-slot shape (a copy row) is a single run at stride `step`,
    /// which the run loops replay exactly at any step, so it skips the
    /// planner. Planning it would also drop the plans of the shapes it
    /// alternates with (a copy row's load run, then its store run) on
    /// every call.
    fn row(&mut self, shape: &RowShape, base: u64, points: usize) {
        match *shape.slots() {
            [s] => self.run(s, shape.step(), base, points),
            _ => self.planned(shape, base, points),
        }
    }
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
        assert_eq!(lens[0], crate::row::MEMO_CAP);
    }

    #[test]
    fn plane_stepping_columns_replay_from_the_memo() {
        // The K-columns of RESID's 1×1 tile at N = 256: 27 loads of U, one
        // of V and a store to R per point, each column one row of 28
        // points stepping a plane, which collides with itself in the
        // 16 KB L1.
        let (row, plane) = (8 * 256i64, 8 * 256 * 256i64);
        let (u, v) = (30 * plane, 60 * plane);
        let shape = RowShape::new(plane)
            .reads((-1..=1).flat_map(|k| {
                (-1..=1).flat_map(move |j| (-1..=1).map(move |i| u + 8 * i + row * j + plane * k))
            }))
            .read(v)
            .write(0);
        let mut h = Hierarchy::ultrasparc2();
        let mut twin = Hierarchy::ultrasparc2();
        let columns = 2 * 254u64;
        for c in 0..columns {
            let base = 8 * (1 + c % 254 + (1 + c / 254) * 256) + plane as u64;
            h.row(&shape, base, 28);
            shape.expand(&mut twin, base, 28);
        }
        assert_eq!(h.l1_stats(), twin.l1_stats());
        assert_eq!(h.l2_stats(), twin.l2_stats());
        // One memoized class per phase met, each holding a few starting
        // states: the other columns hit a memo.
        let lens = h.rows.memo_lens();
        assert_eq!(lens.len(), 8, "{lens:?}");
        assert!(
            lens.iter().all(|n| (1..=crate::row::MEMO_CAP).contains(n)),
            "{lens:?}"
        );
        let states: usize = lens.iter().sum();
        assert!(
            states < columns as usize / 8,
            "{states} states over {columns} columns"
        );
    }
}
