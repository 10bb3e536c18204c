//! The access-stream interface and utility sinks.

use crate::row::RowShape;

/// Consumer of a memory access trace.
///
/// Stencil kernels expose `trace*` functions generic over `S: AccessSink`,
/// so the *same* generator feeds the cache [`crate::Hierarchy`], a
/// [`CountingSink`] (to cross-check access counts against closed forms), or
/// a [`DistinctLineCounter`] (to validate the paper's cost model, which is a
/// distinct-lines count).
pub trait AccessSink {
    /// One load of the datum at byte address `addr`.
    fn read(&mut self, addr: u64);
    /// One store to the datum at byte address `addr`.
    fn write(&mut self, addr: u64);

    /// A batched run of `n` loads at `addr, addr + stride, ...` (byte
    /// stride, which may be negative for descending runs).
    ///
    /// Semantically **exactly equivalent** to
    ///
    /// ```ignore
    /// for i in 0..n {
    ///     self.read(addr.wrapping_add((i as i64).wrapping_mul(stride) as u64));
    /// }
    /// ```
    ///
    /// but overridable so sinks can process a run in bulk: [`crate::Cache`]
    /// and [`crate::Hierarchy`] probe each touched cache line once and
    /// record the remaining accesses as guaranteed hits, and the counting
    /// sinks bump their counters arithmetically. Implementations must keep
    /// reported counts bit-identical to the per-access expansion — the
    /// golden-equivalence suite enforces this.
    #[inline]
    fn read_run(&mut self, addr: u64, stride: i64, n: usize) {
        let mut a = addr;
        for _ in 0..n {
            self.read(a);
            a = a.wrapping_add(stride as u64);
        }
    }

    /// A batched run of `n` stores at `addr, addr + stride, ...` — the
    /// store-side mirror of [`AccessSink::read_run`], with the same exact
    /// equivalence contract against the per-access expansion:
    ///
    /// ```ignore
    /// for i in 0..n {
    ///     self.write(addr.wrapping_add((i as i64).wrapping_mul(stride) as u64));
    /// }
    /// ```
    ///
    /// The unit-stride write loops of the copy nests (`timestep`'s
    /// copy-back, `copyopt`'s tile-window fill) emit through this, so the
    /// full-resolution simulation of a copy row costs one line probe per
    /// touched line instead of one per element.
    #[inline]
    fn write_run(&mut self, addr: u64, stride: i64, n: usize) {
        let mut a = addr;
        for _ in 0..n {
            self.write(a);
            a = a.wrapping_add(stride as u64);
        }
    }

    /// A row of `points` stencil points: point `p` issues the slots of
    /// `shape`, in source order, at `base + p * shape.step()` plus each
    /// slot's offset. Semantically **exactly equivalent** to
    /// [`RowShape::expand`], the point-major per-access expansion:
    ///
    /// ```ignore
    /// for p in 0..points {
    ///     let b = base.wrapping_add((p as i64 * shape.step()) as u64);
    ///     for s in shape.slots() {
    ///         let a = b.wrapping_add(s.offset as u64);
    ///         if s.write { self.write(a) } else { self.read(a) }
    ///     }
    /// }
    /// ```
    ///
    /// [`crate::Hierarchy`] overrides it to replay whole cache lines at a
    /// time (see DESIGN.md, "Row-level replay"); every other sink keeps
    /// this expansion, which is the specification the override is tested
    /// against.
    #[inline]
    fn row(&mut self, shape: &RowShape, base: u64, points: usize) {
        shape.expand(self, base, points);
    }
}

/// Counts reads and writes without simulating anything.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingSink {
    /// Number of `read` calls observed.
    pub reads: u64,
    /// Number of `write` calls observed.
    pub writes: u64,
}

impl AccessSink for CountingSink {
    #[inline]
    fn read(&mut self, _addr: u64) {
        self.reads += 1;
    }

    #[inline]
    fn write(&mut self, _addr: u64) {
        self.writes += 1;
    }

    #[inline]
    fn read_run(&mut self, _addr: u64, _stride: i64, n: usize) {
        self.reads += n as u64;
    }

    #[inline]
    fn write_run(&mut self, _addr: u64, _stride: i64, n: usize) {
        self.writes += n as u64;
    }
}

/// Counts the number of *distinct* cache lines touched — the quantity the
/// paper's cost function `(TI+m)(TJ+n)/(TI*TJ)` models (cold misses of a
/// fully-associative cache of unbounded capacity).
#[derive(Clone, Debug)]
pub struct DistinctLineCounter {
    line_shift: u32,
    seen: std::collections::HashSet<u64>,
    /// Total accesses observed (reads + writes).
    pub accesses: u64,
}

impl DistinctLineCounter {
    /// Creates a counter for the given line size in bytes (power of two).
    pub fn new(line_bytes: usize) -> Self {
        assert!(line_bytes.is_power_of_two());
        DistinctLineCounter {
            line_shift: line_bytes.trailing_zeros(),
            seen: std::collections::HashSet::new(),
            accesses: 0,
        }
    }

    /// Number of distinct lines touched so far.
    pub fn distinct_lines(&self) -> u64 {
        self.seen.len() as u64
    }
}

impl AccessSink for DistinctLineCounter {
    #[inline]
    fn read(&mut self, addr: u64) {
        self.accesses += 1;
        self.seen.insert(addr >> self.line_shift);
    }

    #[inline]
    fn write(&mut self, addr: u64) {
        self.accesses += 1;
        self.seen.insert(addr >> self.line_shift);
    }

    fn read_run(&mut self, addr: u64, stride: i64, n: usize) {
        // A run at stride <= line size touches every line between its first
        // and last access, so one hash insert per line suffices.
        if n == 0 {
            return;
        }
        if stride <= 0 || stride as u64 > (1u64 << self.line_shift) {
            let mut a = addr;
            for _ in 0..n {
                self.read(a);
                a = a.wrapping_add(stride as u64);
            }
            return;
        }
        self.accesses += n as u64;
        let first = addr >> self.line_shift;
        let last = (addr + (n as u64 - 1) * stride as u64) >> self.line_shift;
        for line in first..=last {
            self.seen.insert(line);
        }
    }

    fn write_run(&mut self, addr: u64, stride: i64, n: usize) {
        // Reads and writes are indistinguishable to a distinct-lines count.
        self.read_run(addr, stride, n);
    }
}

/// Feeds one trace to two sinks at once (e.g. a hierarchy and a counter).
pub struct TeeSink<'a, A: AccessSink, B: AccessSink> {
    /// First sink.
    pub a: &'a mut A,
    /// Second sink.
    pub b: &'a mut B,
}

impl<'a, A: AccessSink, B: AccessSink> TeeSink<'a, A, B> {
    /// Creates a tee over the two sinks.
    pub fn new(a: &'a mut A, b: &'a mut B) -> Self {
        TeeSink { a, b }
    }
}

impl<A: AccessSink, B: AccessSink> AccessSink for TeeSink<'_, A, B> {
    #[inline]
    fn read(&mut self, addr: u64) {
        self.a.read(addr);
        self.b.read(addr);
    }

    #[inline]
    fn write(&mut self, addr: u64) {
        self.a.write(addr);
        self.b.write(addr);
    }

    #[inline]
    fn read_run(&mut self, addr: u64, stride: i64, n: usize) {
        self.a.read_run(addr, stride, n);
        self.b.read_run(addr, stride, n);
    }

    #[inline]
    fn write_run(&mut self, addr: u64, stride: i64, n: usize) {
        self.a.write_run(addr, stride, n);
        self.b.write_run(addr, stride, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        s.read(0);
        s.read(8);
        s.write(16);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn distinct_lines_collapses_same_line() {
        let mut d = DistinctLineCounter::new(32);
        d.read(0);
        d.read(31);
        d.write(8);
        d.read(32);
        assert_eq!(d.distinct_lines(), 2);
        assert_eq!(d.accesses, 4);
    }

    #[test]
    fn tee_feeds_both() {
        let mut c1 = CountingSink::default();
        let mut c2 = DistinctLineCounter::new(64);
        {
            let mut t = TeeSink::new(&mut c1, &mut c2);
            t.read(0);
            t.write(64);
        }
        assert_eq!(c1.reads, 1);
        assert_eq!(c1.writes, 1);
        assert_eq!(c2.distinct_lines(), 2);
    }
}
