//! Row-level replay: one stencil row segment as a single sink call.
//!
//! A stencil row visits `points` consecutive points at a fixed byte step,
//! and every point issues the same accesses at the same offsets from its
//! own base address. [`RowShape`] records that per-point pattern once, so
//! a trace walker can hand a whole row to [`AccessSink::row`] instead of
//! issuing one call per load and store.
//!
//! The rest of this module plans how [`crate::Hierarchy`] replays a row
//! without expanding it access by access (see [`RowPlan`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::config::{CacheConfig, WritePolicy};
use crate::sinks::AccessSink;
use crate::stats::Tally;

/// One access of a row point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Byte offset of the access from the point's base address.
    pub offset: i64,
    /// `true` for a store, `false` for a load.
    pub write: bool,
}

/// The accesses of one point of a row, in source order, and the byte step
/// from one point to the next.
///
/// # Example
///
/// ```
/// use tiling3d_cachesim::{AccessSink, CountingSink, RowShape};
///
/// // A(i) = B(i-1) + B(i+1), with B 4096 bytes after A.
/// let shape = RowShape::new(8).read(4096 - 8).read(4096 + 8).write(0);
/// let mut c = CountingSink::default();
/// c.row(&shape, 8, 100);
/// assert_eq!((c.reads, c.writes), (200, 100));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowShape {
    /// Shared by every clone and never changed while shared: a builder
    /// call copies the slots into new storage. So two shapes with the
    /// same storage (and step) are the same shape.
    slots: Arc<[Slot]>,
    step: i64,
}

impl RowShape {
    /// An empty shape whose points lie `step` bytes apart.
    pub fn new(step: i64) -> Self {
        RowShape {
            slots: Arc::new([]),
            step,
        }
    }

    /// Appends `slots` after the existing ones, in new storage.
    fn with(mut self, slots: impl IntoIterator<Item = Slot>) -> Self {
        let mut all = self.slots.to_vec();
        all.extend(slots);
        self.slots = all.into();
        self
    }

    /// Appends a load at `offset` bytes from the point's base.
    #[must_use]
    pub fn read(self, offset: i64) -> Self {
        self.reads([offset])
    }

    /// Appends one load per offset, in iteration order.
    #[must_use]
    pub fn reads(self, offsets: impl IntoIterator<Item = i64>) -> Self {
        self.with(offsets.into_iter().map(|offset| Slot {
            offset,
            write: false,
        }))
    }

    /// Appends a store at `offset` bytes from the point's base.
    #[must_use]
    pub fn write(self, offset: i64) -> Self {
        self.with([Slot {
            offset,
            write: true,
        }])
    }

    /// Appends the slots of one point of `shape` based `offset` bytes
    /// from this shape's point base. A point of the result is then a
    /// *composite* point: the accesses of several stencil points in
    /// order, which lets a row step from one group of points to the next
    /// (a narrow tile's row, a red and a black point) in one call.
    ///
    /// ```
    /// use tiling3d_cachesim::RowShape;
    ///
    /// // Two consecutive points of a two-load stencil, one row apart.
    /// let point = RowShape::new(8).read(-8).read(8);
    /// let pair = RowShape::new(800).append(&point, 0).append(&point, 8);
    /// let offsets: Vec<i64> = pair.slots().iter().map(|s| s.offset).collect();
    /// assert_eq!(offsets, [-8, 8, 0, 16]);
    /// ```
    #[must_use]
    pub fn append(self, shape: &RowShape, offset: i64) -> Self {
        self.with(shape.slots.iter().map(|s| Slot {
            offset: s.offset + offset,
            write: s.write,
        }))
    }

    /// The per-point accesses in source order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Byte distance between consecutive points.
    pub fn step(&self) -> i64 {
        self.step
    }

    /// The per-access expansion of a row of `points` points starting at
    /// `base`: point-major, each point's slots in source order. This is
    /// the definition of [`AccessSink::row`].
    pub fn expand<S: AccessSink + ?Sized>(&self, sink: &mut S, base: u64, points: usize) {
        let mut b = base;
        for _ in 0..points {
            for s in self.slots.iter() {
                let a = b.wrapping_add(s.offset as u64);
                if s.write {
                    sink.write(a);
                } else {
                    sink.read(a);
                }
            }
            b = b.wrapping_add(self.step as u64);
        }
    }
}

/// Rows shorter than this expand point by point in
/// [`crate::Hierarchy`]: planning a 1–3 point row costs more than the
/// accesses it would save. A trace walker whose rows are this short does
/// better to group them into longer rows of composite points
/// ([`RowShape::append`]), which expand in one call.
pub const MIN_PLANNED_POINTS: usize = 4;

/// Longer rows are replayed in chunks of at most this many points. A
/// chunk spans 256 bytes per slot at step 8, so the streams of a row's
/// neighbouring planes (a few hundred bytes apart in set space at the
/// paper's sizes) stay in separate classes.
pub(crate) const CHUNK_POINTS: usize = 32;

/// The first access of a row chunk to one cache line.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FirstTouch {
    /// Byte offset of the access from the chunk's base address.
    pub offset: i64,
    /// Position of the access in the chunk's trace (`point * slots + slot`).
    pub rank: u64,
}

/// One L2 line of a [`CleanClass`].
#[derive(Clone, Debug)]
pub(crate) struct L2Line {
    /// End (exclusive) of this line's L1 lines in [`CleanClass::l1`]; the
    /// start is the previous entry's end.
    pub l1_end: usize,
    /// The first store to this line, if the class stores to it.
    pub store: Option<FirstTouch>,
}

/// A class that touches every L1 set and every L2 set through at most one
/// line, and whose stores (if any) each follow a load of the same address
/// in the same point. Once a line is loaded nothing else in the chunk can
/// evict it, so only first touches can miss.
#[derive(Clone, Debug)]
pub(crate) struct CleanClass {
    /// The first touch of each L1 line, ascending, grouped by L2 line.
    pub l1: Vec<FirstTouch>,
    /// The class's L2 lines, ascending.
    pub l2: Vec<L2Line>,
    /// Loads per chunk that are not a first touch: all L1 hits.
    pub l1_read_hits: u64,
    /// Stores per chunk: all L1 hits, and all but one per L2 line L2 hits.
    pub stores: u64,
}

/// Most starting states one [`PointMajorClass`] memoizes. The figure's
/// conflicting points meet at most a few dozen per class; once the memo
/// is full, new states replay point-major without being recorded.
pub(crate) const MEMO_CAP: usize = 64;

/// A long-step chunk is memoized only when its accesses number at least
/// this many quarters of its [`PointMajorClass::lines`]: a memo hit probes
/// every line and installs the lines the chunk brings in, which costs
/// about as much as expanding that many accesses. Chosen from per-point
/// timings on the paper's geometry, with loops aligned to 64 bytes so
/// that code placement does not decide: JACOBI's 1×1 columns (0.69–0.86
/// accesses per line, by phase) ran 1.04–1.18x faster than expanded with
/// this bound, against 0.99–1.21x with every chunk memoized; red-black's
/// 1×1 pair rows (0.79–1.30) 1.30–1.37x, against 1.16x with a bound of
/// 9/8, which leaves their sparser phases expanded; RESID's 1×1 columns
/// (1.72–2.78) 2.4–2.9x with any bound.
const LONG_STEP_MEMO_QUARTERS: usize = 3;

/// A class with set conflicts or stores without a preceding load, replayed
/// point-major over its own slots, or from its memo when both levels are
/// direct-mapped.
#[derive(Clone, Debug)]
pub(crate) struct PointMajorClass {
    pub slots: Vec<Slot>,
    /// Byte offset, from the chunk base, of one address in each L1 line the
    /// class touches, then of each L2 line it touches. Adding the base with
    /// wrapping arithmetic gives an address of the line, exactly as the
    /// per-access expansion computes its addresses.
    pub lines: Vec<i64>,
    /// How many of `lines` are L1 lines.
    pub l1_lines: usize,
    /// False for a long-step chunk with too few accesses per line (see
    /// [`LONG_STEP_MEMO_QUARTERS`]): it replays point-major on every
    /// level.
    pub memoize: bool,
    pub memo: Memo,
}

impl PointMajorClass {
    /// The class of `slots` over a chunk of `points` points `step` bytes
    /// apart whose base is `phase` modulo the L2 line size, on L1 and L2
    /// lines of `1 << s1` and `1 << s2` bytes.
    fn new(slots: Vec<Slot>, step: i64, points: usize, phase: u64, s1: u32, s2: u32) -> Self {
        let mut lines = touched_lines(&slots, step, points, phase, s1);
        let l1_lines = lines.len();
        lines.extend(touched_lines(&slots, step, points, phase, s2));
        PointMajorClass {
            slots,
            lines,
            l1_lines,
            memoize: true,
            memo: Memo::default(),
        }
    }
}

/// What replaying a class did from one starting state.
#[derive(Clone, Debug)]
pub(crate) struct Outcome {
    /// The class's own counts at each level.
    pub l1: Tally,
    pub l2: Tally,
    /// Which of the class's lines are resident at the end, one bit per
    /// entry of [`PointMajorClass::lines`].
    pub resident: Box<[u64]>,
}

/// A class's outcomes keyed by which of its lines are resident at the
/// start of the chunk, at most [`MEMO_CAP`] of them.
#[derive(Clone, Debug, Default)]
pub(crate) struct Memo {
    /// The key of the chunk being replayed (scratch, reused).
    pub key: Vec<u64>,
    outcomes: HashMap<Box<[u64]>, Outcome, BuildHasherDefault<WordHasher>>,
}

impl Memo {
    /// The outcome recorded for the starting state in `self.key`.
    pub(crate) fn get(&self) -> Option<&Outcome> {
        self.outcomes.get(&self.key[..])
    }

    /// Records `outcome` for the starting state in `self.key`, unless the
    /// memo is full.
    pub(crate) fn insert(&mut self, outcome: Outcome) {
        if self.len() < MEMO_CAP {
            self.outcomes
                .insert(self.key.clone().into_boxed_slice(), outcome);
        }
    }

    /// Starting states recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.outcomes.len()
    }
}

/// A multiply-rotate hash over 64-bit words for the memo keys, far
/// cheaper than the default SipHash on keys of one or two words. The keys
/// are computed by the simulator itself, so no input can choose them to
/// collide.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(26) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits, which pick the bucket, depending
        // only on the low bits of the words; fold the high bits down.
        self.0 ^ self.0 >> 32
    }
}

/// A set of streams replayed together. Classes touch disjoint sets at both
/// levels (quiet stores aside, see [`RowPlan::quiet`]), so each can be
/// replayed on its own, in any order.
#[derive(Clone, Debug)]
pub(crate) enum Class {
    /// A single slot: its accesses form one run, which the hierarchy's
    /// run loops replay exactly.
    Run(Slot),
    /// See [`CleanClass`].
    Clean(CleanClass),
    /// See [`PointMajorClass`].
    PointMajor(PointMajorClass),
}

/// How one row chunk splits into independently replayable classes.
#[derive(Clone, Debug)]
pub(crate) struct RowPlan {
    pub classes: Vec<Class>,
    /// Byte ranges, from the chunk base, of store-only streams that share
    /// L1 sets with another class yet were split from it. Under a
    /// write-around L1 such stores cannot change L1 state, and nothing in
    /// the chunk can load their lines, so the split is exact whenever none
    /// of these lines is L1-resident at the start of the chunk.
    pub quiet: Vec<(i64, i64)>,
    /// The split without that relaxation, for chunks where a quiet line is
    /// resident. `Some` exactly when `quiet` is non-empty.
    pub strict: Option<Box<RowPlan>>,
}

/// The plans computed so far for one shape, by `(points, phase)`. Chunks
/// hold [`MIN_PLANNED_POINTS`] to [`CHUNK_POINTS`] points and the phase is
/// below the L2 line size, so the plans fit a flat table indexed by both.
#[derive(Clone, Debug)]
struct PlanTable {
    /// The table's shape. Its slot storage is shared with the caller's
    /// shape, and holding it keeps that storage from being freed and
    /// reused for another shape's slots.
    shape: Option<RowShape>,
    /// The plan for `(points, phase)` at `(points - MIN_PLANNED_POINTS) *
    /// L2 line + phase`.
    plans: Vec<Option<Box<RowPlan>>>,
}

impl PlanTable {
    /// True when `shape` is the table's shape, which then holds `shape`'s
    /// storage. A shape that shares the table's slot storage is its shape:
    /// the storage cannot have been freed and reused while the table holds
    /// it, and it is never changed while shared. Only a shape built
    /// separately compares its slots.
    fn holds(&mut self, shape: &RowShape) -> bool {
        match &self.shape {
            Some(s) if Arc::ptr_eq(&s.slots, &shape.slots) && s.step == shape.step => true,
            Some(s) if s == shape => {
                self.shape = Some(shape.clone());
                true
            }
            _ => false,
        }
    }
}

/// The plans of one hierarchy for its two most recent shapes. A walker
/// that alternates two shapes (red-black's 1×1 pair rows and the
/// one-colour rows of its edge tiles) keeps the plans, and their memos,
/// of both.
#[derive(Clone, Debug)]
pub(crate) struct RowPlans {
    l1: CacheConfig,
    l2: CacheConfig,
    /// The current shape's table, then the previous shape's.
    tables: [PlanTable; 2],
}

impl RowPlans {
    /// No plans yet, for the hierarchy of levels `l1` over `l2`.
    pub(crate) fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        let table = PlanTable {
            shape: None,
            plans: vec![None; (CHUNK_POINTS - MIN_PLANNED_POINTS + 1) * l2.line_bytes],
        };
        RowPlans {
            l1,
            l2,
            tables: [table.clone(), table],
        }
    }

    /// True when rows of `shape` can be planned: ascending points, and L2
    /// lines at least as long as L1 lines (so an L1 miss's L2 line is that
    /// of its L1 line). Points farther apart than an L1 line are planned
    /// as one class per chunk (see [`plan`]).
    pub(crate) fn plannable(&self, shape: &RowShape) -> bool {
        shape.step > 0 && self.l2.line_bytes >= self.l1.line_bytes
    }

    /// Makes `shape` the current shape. The previous shape's plans are
    /// kept; those of the shape before it are dropped.
    pub(crate) fn select(&mut self, shape: &RowShape) {
        if self.tables[0].holds(shape) {
            return;
        }
        self.tables.swap(0, 1);
        if !self.tables[0].holds(shape) {
            let t = &mut self.tables[0];
            t.plans.iter_mut().for_each(|p| *p = None);
            t.shape = Some(shape.clone());
        }
    }

    /// The plan for a chunk of `points` points of the current shape at
    /// `base`, computed on first use for the base's phase in an L2 line.
    pub(crate) fn get(&mut self, points: usize, base: u64) -> &mut RowPlan {
        let line = self.l2.line_bytes;
        let phase = base & (line as u64 - 1);
        let t = &mut self.tables[0];
        let shape = t.shape.as_ref().expect("a shape is selected");
        let (l1, l2) = (&self.l1, &self.l2);
        t.plans[(points - MIN_PLANNED_POINTS) * line + phase as usize]
            .get_or_insert_with(|| Box::new(plan(shape, points, phase, l1, l2)))
    }
}

#[cfg(test)]
impl RowPlans {
    /// The memo size of every point-major class planned so far.
    pub(crate) fn memo_lens(&self) -> Vec<usize> {
        self.tables
            .iter()
            .flat_map(|t| t.plans.iter().flatten())
            .flat_map(|p| std::iter::once(&**p).chain(p.strict.as_deref()))
            .flat_map(|p| &p.classes)
            .filter_map(|c| match c {
                Class::PointMajor(c) => Some(c.memo.len()),
                _ => None,
            })
            .collect()
    }
}

/// One merged address stream: slots whose L2 line ranges overlap.
struct Stream {
    slots: Vec<usize>,
    lo: i64,
    hi: i64,
}

/// The circular set interval `(first set, set count)` of the lines of the
/// byte range `lo..=hi`, in a cache of `sets` sets of `1 << shift` bytes.
fn set_interval(lo: i64, hi: i64, shift: u32, sets: i64) -> (i64, i64) {
    let first = lo >> shift;
    let len = ((hi >> shift) - first + 1).min(sets);
    (first & (sets - 1), len)
}

fn intervals_overlap((a, la): (i64, i64), (b, lb): (i64, i64), sets: i64) -> bool {
    ((b - a) & (sets - 1)) < la || ((a - b) & (sets - 1)) < lb
}

/// The first point of the run `lo, lo + step, ..=hi` at or past byte
/// `at`, as `(point, address)`, or `None` when the run ends before it.
fn first_at_or_past(lo: i64, hi: i64, step: i64, at: i64) -> Option<(i64, i64)> {
    let p = if lo >= at {
        0
    } else {
        (at - lo + step - 1) / step
    };
    let a = lo + p * step;
    (a <= hi).then_some((p, a))
}

/// Splits a chunk of `points` points of `shape` whose base address is
/// `phase` modulo the L2 line size into classes.
///
/// Slots merge into streams when their L2 line ranges overlap; streams
/// merge into one class when their L1 or their L2 set intervals overlap,
/// except that under a write-around L1 a store-only stream is not merged
/// for its L1 overlaps alone (see [`RowPlan::quiet`]). The split depends
/// only on the arguments, and a base differing by whole L2 lines shifts
/// every line and set uniformly, so one plan serves every chunk of the
/// same `(shape, points, phase)`.
///
/// Points farther apart than an L1 line skip lines, so a slot's byte range
/// says little about the sets it touches: such a chunk is one point-major
/// class of all the slots, whose lines are enumerated point by point.
pub(crate) fn plan(
    shape: &RowShape,
    points: usize,
    phase: u64,
    l1: &CacheConfig,
    l2: &CacheConfig,
) -> RowPlan {
    if shape.step > l1.line_bytes as i64 {
        let (s1, s2) = (
            l1.line_bytes.trailing_zeros(),
            l2.line_bytes.trailing_zeros(),
        );
        let mut c = PointMajorClass::new(shape.slots.to_vec(), shape.step, points, phase, s1, s2);
        c.memoize = 4 * shape.slots.len() * points >= LONG_STEP_MEMO_QUARTERS * c.lines.len();
        return RowPlan {
            classes: vec![Class::PointMajor(c)],
            quiet: Vec::new(),
            strict: None,
        };
    }
    let relaxed = split(
        shape,
        points,
        phase,
        l1,
        l2,
        l1.write_policy == WritePolicy::WriteAround,
    );
    if relaxed.quiet.is_empty() {
        relaxed
    } else {
        RowPlan {
            strict: Some(Box::new(split(shape, points, phase, l1, l2, false))),
            ..relaxed
        }
    }
}

fn split(
    shape: &RowShape,
    points: usize,
    phase: u64,
    l1: &CacheConfig,
    l2: &CacheConfig,
    relax: bool,
) -> RowPlan {
    let step = shape.step;
    let span = (points as i64 - 1) * step;
    let (s1, s2) = (
        l1.line_bytes.trailing_zeros(),
        l2.line_bytes.trailing_zeros(),
    );
    let (sets1, sets2) = (l1.num_sets() as i64, l2.num_sets() as i64);
    let lo_of = |i: usize| phase as i64 + shape.slots[i].offset;

    let mut order: Vec<usize> = (0..shape.slots.len()).collect();
    order.sort_by_key(|&i| shape.slots[i].offset);
    let mut streams: Vec<Stream> = Vec::new();
    for i in order {
        let (lo, hi) = (lo_of(i), lo_of(i) + span);
        match streams.last_mut() {
            Some(s) if lo >> s2 <= s.hi >> s2 => {
                s.slots.push(i);
                s.hi = s.hi.max(hi);
            }
            _ => streams.push(Stream {
                slots: vec![i],
                lo,
                hi,
            }),
        }
    }

    // Union-find over streams whose set intervals overlap at either level.
    let sets_of = |s: &Stream| {
        (
            set_interval(s.lo, s.hi, s1, sets1),
            set_interval(s.lo, s.hi, s2, sets2),
        )
    };
    let intervals: Vec<_> = streams.iter().map(sets_of).collect();
    let mut parent: Vec<usize> = (0..streams.len()).collect();
    fn root(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let store_only: Vec<bool> = streams
        .iter()
        .map(|s| relax && s.slots.iter().all(|&i| shape.slots[i].write))
        .collect();
    let mut quiet = vec![false; streams.len()];
    for a in 0..streams.len() {
        for b in a + 1..streams.len() {
            let (ia, ib) = (intervals[a], intervals[b]);
            let l1_clash = intervals_overlap(ia.0, ib.0, sets1);
            if intervals_overlap(ia.1, ib.1, sets2)
                || (l1_clash && !store_only[a] && !store_only[b])
            {
                let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
                parent[ra] = rb;
            } else if l1_clash {
                quiet[a] |= store_only[a];
                quiet[b] |= store_only[b];
            }
        }
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); streams.len()];
    for s in 0..streams.len() {
        let r = root(&mut parent, s);
        members[r].push(s);
    }

    let classes = members
        .into_iter()
        .filter(|m| !m.is_empty())
        .map(|m| {
            let mut slots: Vec<usize> = m.iter().flat_map(|&s| streams[s].slots.clone()).collect();
            slots.sort_unstable();
            if let [only] = slots[..] {
                return Class::Run(shape.slots[only]);
            }
            // One stream with no more lines than sets at either level: no
            // two of its lines share a set. Stores need a same-address load
            // earlier in the point (so they hit L1) and an allocating L2 (so
            // whichever event comes first leaves the L2 line resident).
            let clean = m.len() == 1 && {
                let s = &streams[m[0]];
                let fits = |shift: u32, sets: i64| (s.hi >> shift) - (s.lo >> shift) < sets;
                fits(s1, sets1)
                    && fits(s2, sets2)
                    && slots.iter().enumerate().all(|(n, &i)| {
                        let w = shape.slots[i];
                        !w.write
                            || (l2.write_policy == WritePolicy::WriteAllocate
                                && slots[..n].iter().any(|&r| {
                                    !shape.slots[r].write && shape.slots[r].offset == w.offset
                                }))
                    })
            };
            if clean {
                Class::Clean(plan_clean(shape, &slots, points, phase, s1, s2))
            } else {
                let slots = slots.iter().map(|&i| shape.slots[i]).collect();
                Class::PointMajor(PointMajorClass::new(slots, step, points, phase, s1, s2))
            }
        })
        .collect();
    let quiet = streams
        .iter()
        .zip(quiet)
        .filter(|(_, q)| *q)
        .map(|(s, _)| (s.lo - phase as i64, s.hi - phase as i64))
        .collect();
    RowPlan {
        classes,
        quiet,
        strict: None,
    }
}

/// One byte offset from the chunk base into each line of `1 << shift`
/// bytes that `points` points of `slots`, `step` bytes apart, touch,
/// ascending. These are the lines of the accesses themselves: a step
/// longer than a line skips the lines between them.
fn touched_lines(slots: &[Slot], step: i64, points: usize, phase: u64, shift: u32) -> Vec<i64> {
    let mut lines: Vec<i64> = Vec::new();
    for s in slots {
        let lo = phase as i64 + s.offset;
        for p in 0..points as i64 {
            // A slot's lines ascend; keep one entry per run of equal ones.
            let line = (lo + p * step) >> shift;
            if lines.last() != Some(&line) {
                lines.push(line);
            }
        }
    }
    lines.sort_unstable();
    lines.dedup();
    lines
        .into_iter()
        .map(|line| (line << shift) - phase as i64)
        .collect()
}

/// Precomputes the first touch of every L1 line of a clean class and the
/// first store to every L2 line: the only accesses whose outcome depends
/// on the cache state.
fn plan_clean(
    shape: &RowShape,
    slots: &[usize],
    points: usize,
    phase: u64,
    s1: u32,
    s2: u32,
) -> CleanClass {
    let step = shape.step;
    let span = (points as i64 - 1) * step;
    let width = shape.slots.len() as u64;
    let runs = |write: bool| {
        slots
            .iter()
            .filter(move |&&i| shape.slots[i].write == write)
            .map(move |&i| {
                let lo = phase as i64 + shape.slots[i].offset;
                (i as u64, lo, lo + span)
            })
    };
    // Earliest access at or past byte `at` among `runs`, if it lies in the
    // line `at >> shift`.
    let first_touch = |write: bool, at: i64, shift: u32| {
        runs(write)
            .filter_map(|(i, lo, hi)| {
                let (p, a) = first_at_or_past(lo, hi, step, at)?;
                (a >> shift == at >> shift).then_some(FirstTouch {
                    offset: a - phase as i64,
                    rank: p as u64 * width + i,
                })
            })
            .min_by_key(|t| t.rank)
    };
    let lo = runs(false)
        .map(|(_, lo, _)| lo)
        .min()
        .expect("clean class reads");
    let hi = runs(false)
        .map(|(_, _, hi)| hi)
        .max()
        .expect("clean class reads");

    let mut l1 = Vec::new();
    let mut l2: Vec<L2Line> = Vec::new();
    let mut current = None;
    for line in lo >> s1..=hi >> s1 {
        let Some(t) = first_touch(false, line << s1, s1) else {
            continue;
        };
        let l2_line = (line << s1) >> s2;
        if current != Some(l2_line) {
            current = Some(l2_line);
            l2.push(L2Line {
                l1_end: l1.len(),
                store: first_touch(true, l2_line << s2, s2),
            });
        }
        l1.push(t);
        l2.last_mut().expect("pushed above").l1_end = l1.len();
    }
    let reads = runs(false).count() as u64;
    let stores = runs(true).count() as u64;
    CleanClass {
        l1_read_hits: reads * points as u64 - l1.len() as u64,
        stores: stores * points as u64,
        l1,
        l2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan's contents, for comparing plans (memos start empty).
    fn dump(p: &RowPlan) -> String {
        format!("{p:?}")
    }

    /// JACOBI's shape at a leading dimension whose planes conflict in the
    /// paper's L1, so the plans hold clean, run and point-major classes.
    fn jacobi(di: i64) -> RowShape {
        let (b, d, p) = (30 * 8 * di * di, 8 * di, 8 * di * di);
        RowShape::new(8)
            .reads([b - 8, b + 8, b - d, b + d, b - p, b + p])
            .write(0)
    }

    #[test]
    fn plan_table_returns_the_computed_plan_for_every_key() {
        let (l1, l2) = (CacheConfig::ULTRASPARC2_L1, CacheConfig::ULTRASPARC2_L2);
        let shape = jacobi(256);
        let mut plans = RowPlans::new(l1, l2);
        plans.select(&shape);
        for points in MIN_PLANNED_POINTS..=CHUNK_POINTS {
            for phase in 0..l2.line_bytes as u64 {
                let want = dump(&plan(&shape, points, phase, &l1, &l2));
                // A base whole L2 lines away has the same phase.
                let base = (1 << 20) + 64 * points as u64 + phase;
                assert_eq!(dump(plans.get(points, base)), want, "({points}, {phase})");
            }
        }
        // Every key hit its own entry: none was overwritten by another.
        for points in MIN_PLANNED_POINTS..=CHUNK_POINTS {
            for phase in 0..l2.line_bytes as u64 {
                let want = dump(&plan(&shape, points, phase, &l1, &l2));
                assert_eq!(dump(plans.get(points, phase)), want, "({points}, {phase})");
            }
        }
    }

    #[test]
    fn select_keeps_plans_only_for_the_same_slots() {
        let (l1, l2) = (CacheConfig::ULTRASPARC2_L1, CacheConfig::ULTRASPARC2_L2);
        let mut plans = RowPlans::new(l1, l2);
        let first = jacobi(256);
        plans.select(&first);
        plans.get(32, 8);
        // An equal shape built separately keeps the plans, which are
        // its own.
        let twin = jacobi(256);
        assert!(!Arc::ptr_eq(&first.slots, &twin.slots));
        plans.select(&twin);
        assert_eq!(dump(plans.get(32, 8)), dump(&plan(&twin, 32, 8, &l1, &l2)));
        // A different shape built after the first ones are dropped, with
        // as many slots (so its storage could take their place), gets
        // plans of its own.
        drop((first, twin));
        let other = jacobi(208);
        plans.select(&other);
        assert_eq!(dump(plans.get(32, 8)), dump(&plan(&other, 32, 8, &l1, &l2)));
        // So does one that differs from the current shape only in step.
        let wider = RowShape::new(16).append(&other, 0);
        plans.select(&wider);
        assert_eq!(dump(plans.get(32, 8)), dump(&plan(&wider, 32, 8, &l1, &l2)));
    }
}
