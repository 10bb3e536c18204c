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
    /// This is the trace interface's one batched call. A contiguous copy
    /// row is a one-slot shape: a run of loads or stores `step` bytes
    /// apart. [`crate::Hierarchy`] overrides it to replay whole cache
    /// lines at a time (see DESIGN.md, "Row-level replay"); every other
    /// sink keeps this expansion, which is the specification the override
    /// is tested against.
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
}
