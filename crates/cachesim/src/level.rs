//! Level views: one cache level as a replay loop sees it.
//!
//! A view borrows a [`crate::Cache`]'s tag storage and copies in the
//! scalars a lookup needs: the line shift and set mask, the write policy,
//! and on associative levels the LRU clock and MRU slot. A loop generic
//! over [`Level`] is monomorphized per level kind, so those scalars stay
//! in registers for the whole call instead of being reloaded from the
//! cache around every lookup. Views count nothing: the loop driving them
//! counts into a local [`Tally`] and merges it into the level's
//! [`crate::AccessStats`] once per call.

use crate::config::CacheConfig;
use crate::stats::Tally;

/// The line number an empty slot holds.
pub(crate) const EMPTY: u64 = u64::MAX;

/// How an address maps to its line and set. A level's tag storage holds
/// whole line numbers: lines of one set differ exactly where their tags
/// do, and comparing lines saves the tag shift.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Index {
    line_shift: u32,
    set_mask: u64,
}

impl Index {
    pub(crate) fn new(cfg: &CacheConfig) -> Self {
        Index {
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (cfg.num_sets() - 1) as u64,
        }
    }

    /// The line of `addr` and its set.
    #[inline(always)]
    pub(crate) fn split(&self, addr: u64) -> (u64, usize) {
        let line = addr >> self.line_shift;
        (line, (line & self.set_mask) as usize)
    }
}

/// The LRU state of an associative level that outlives a view: the clock
/// and the MRU short-circuit. `last_line` is the line of the most recent
/// access that left a resident line behind (a hit, or a miss that
/// allocated), `EMPTY` when there is none, and `last_slot` its index
/// into the slots. Stencil traces touch the same line for several
/// consecutive `I` iterations, so most probes resolve there.
///
/// Replacement only ever compares timestamps, so only their order
/// matters. The views stamp a slot on each full lookup that hits or
/// allocates, and nowhere else: the line of `last_line` already holds the
/// newest stamp of all, so repeated hits on it, and the same-line tails
/// of a run, would move no order by stamping it again. Orders, and so
/// every hit and miss, are those of [`crate::Cache::access_reference`],
/// which stamps every access.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lru {
    pub clock: u64,
    pub last_line: u64,
    pub last_slot: usize,
}

impl Default for Lru {
    fn default() -> Self {
        Lru {
            clock: 0,
            last_line: EMPTY,
            last_slot: 0,
        }
    }
}

/// One cache level inside a replay loop. Lookups change residency and
/// the LRU order exactly as [`crate::Cache::access_reference`] does, but
/// count nothing.
pub(crate) trait Level {
    /// True for [`Direct`]. Only direct-mapped levels replay conflicting
    /// classes from a memo, and there an uncounted load of a line is how
    /// a memo installs it.
    const DIRECT_MAPPED: bool;

    /// `log2` of the line size.
    fn line_shift(&self) -> u32;

    /// True when a store that misses allocates its line.
    fn allocates_stores(&self) -> bool;

    /// Presents one access to the line of `addr`; returns `true` on a
    /// miss. A miss allocates the line unless it is a store under
    /// [`crate::WritePolicy::WriteAround`].
    fn access(&mut self, addr: u64, write: bool) -> bool;

    /// True when the line of `addr` is resident; changes nothing.
    fn probe(&self, addr: u64) -> bool;
}

/// A direct-mapped level: one line per set, no replacement state.
pub(crate) struct Direct<'a> {
    tags: &'a mut [u64],
    index: Index,
    allocates_stores: bool,
}

impl<'a> Direct<'a> {
    pub(crate) fn new(tags: &'a mut [u64], index: Index, allocates_stores: bool) -> Self {
        Direct {
            tags,
            index,
            allocates_stores,
        }
    }
}

impl Level for Direct<'_> {
    const DIRECT_MAPPED: bool = true;

    #[inline(always)]
    fn line_shift(&self) -> u32 {
        self.index.line_shift
    }

    #[inline(always)]
    fn allocates_stores(&self) -> bool {
        self.allocates_stores
    }

    #[inline(always)]
    fn access(&mut self, addr: u64, write: bool) -> bool {
        let (line, set) = self.index.split(addr);
        let slot = &mut self.tags[set];
        let miss = *slot != line;
        if miss && (!write || self.allocates_stores) {
            *slot = line;
        }
        miss
    }

    #[inline(always)]
    fn probe(&self, addr: u64) -> bool {
        let (line, set) = self.index.split(addr);
        self.tags[set] == line
    }
}

/// A set-associative true-LRU level: per set, `ways` slots of
/// `(line, last use)`. The view works on a copy of the level's [`Lru`]
/// state and writes it back when dropped.
pub(crate) struct Assoc<'a> {
    sets: &'a mut [(u64, u64)],
    home: &'a mut Lru,
    lru: Lru,
    index: Index,
    ways: usize,
    allocates_stores: bool,
}

impl<'a> Assoc<'a> {
    pub(crate) fn new(
        sets: &'a mut [(u64, u64)],
        home: &'a mut Lru,
        index: Index,
        ways: usize,
        allocates_stores: bool,
    ) -> Self {
        Assoc {
            sets,
            lru: *home,
            home,
            index,
            ways,
            allocates_stores,
        }
    }
}

impl Drop for Assoc<'_> {
    fn drop(&mut self) {
        *self.home = self.lru;
    }
}

impl Level for Assoc<'_> {
    const DIRECT_MAPPED: bool = false;

    #[inline(always)]
    fn line_shift(&self) -> u32 {
        self.index.line_shift
    }

    #[inline(always)]
    fn allocates_stores(&self) -> bool {
        self.allocates_stores
    }

    /// A same-line repeat of the last resident access is a hit by
    /// construction, and its line already holds the newest stamp, so it
    /// changes nothing; any other access scans its set.
    #[inline(always)]
    fn access(&mut self, addr: u64, write: bool) -> bool {
        let (line, set) = self.index.split(addr);
        if line == self.lru.last_line {
            return false;
        }
        self.lru.clock += 1;
        let clock = self.lru.clock;
        let base = set * self.ways;
        let slots = &mut self.sets[base..base + self.ways];
        if let Some(pos) = slots.iter().position(|&(l, _)| l == line) {
            slots[pos].1 = clock;
            self.lru.last_line = line;
            self.lru.last_slot = base + pos;
            return false;
        }
        if !write || self.allocates_stores {
            // Victim: the first empty slot, else the least recently used.
            let (pos, victim) = slots
                .iter_mut()
                .enumerate()
                .min_by_key(|(_, (t, used))| if *t == EMPTY { 0 } else { *used + 1 })
                .expect("ways > 0");
            *victim = (line, clock);
            self.lru.last_line = line;
            self.lru.last_slot = base + pos;
        }
        true
    }

    #[inline(always)]
    fn probe(&self, addr: u64) -> bool {
        let (line, set) = self.index.split(addr);
        self.sets[set * self.ways..(set + 1) * self.ways]
            .iter()
            .any(|&(l, _)| l == line)
    }
}

/// A view of either kind, as [`crate::Cache`] hands it out; the
/// `with_view!` and `with_views!` macros match it into the monomorphized
/// loops.
pub(crate) enum View<'a> {
    Direct(Direct<'a>),
    Assoc(Assoc<'a>),
}

/// Evaluates `$body` with `$v` bound to a view of the cache `$c`, once
/// per level kind.
macro_rules! with_view {
    ($c:expr, |$v:ident| $body:expr) => {
        match $c.view() {
            $crate::level::View::Direct(view) => {
                #[allow(unused_mut)]
                let mut $v = view;
                $body
            }
            $crate::level::View::Assoc(view) => {
                #[allow(unused_mut)]
                let mut $v = view;
                $body
            }
        }
    };
}

/// Evaluates `$body` with `$v1` and `$v2` bound to views of the caches
/// `$c1` and `$c2`, once per pairing of level kinds.
macro_rules! with_views {
    ($c1:expr, $c2:expr, |$v1:ident, $v2:ident| $body:expr) => {{
        use $crate::level::View;
        match ($c1.view(), $c2.view()) {
            (View::Direct($v1), View::Direct($v2)) => $body,
            (View::Direct($v1), View::Assoc($v2)) => $body,
            (View::Assoc($v1), View::Direct($v2)) => $body,
            (View::Assoc($v1), View::Assoc($v2)) => $body,
        }
    }};
}

pub(crate) use {with_view, with_views};

/// A run of `n` stores at `addr, addr + stride, ...` (any stride). Only
/// the first store to each line is looked up. The rest of the line's
/// stores hit when that store left the line resident (a hit, or an
/// allocating miss) and miss when it did not (a write-around miss leaves
/// the line cold); either way they are only counted. The same-line test
/// is a shift and a compare, so the segmentation is division-free and
/// holds for descending, zero and line-skipping strides (the last look
/// up every store).
#[inline(always)]
pub(crate) fn write_run<L: Level>(level: &mut L, t: &mut Tally, addr: u64, stride: i64, n: usize) {
    let shift = level.line_shift();
    t.writes += n as u64;
    let mut a = addr;
    let mut rem = n;
    while rem > 0 {
        let head_miss = level.access(a, true);
        t.write_misses += u64::from(head_miss);
        let line = a >> shift;
        rem -= 1;
        a = a.wrapping_add(stride as u64);
        let mut tail = 0u64;
        while rem > 0 && a >> shift == line {
            tail += 1;
            rem -= 1;
            a = a.wrapping_add(stride as u64);
        }
        if head_miss && !level.allocates_stores() {
            t.write_misses += tail;
        }
    }
}
