//! A data-TLB model.
//!
//! The paper follows Mitchell et al. in noting that tiling interacts with
//! *multiple* levels of the memory hierarchy — cache **and TLB**: a tiled
//! sweep walks `TJ` columns in `N` planes, touching many more pages per
//! unit time than the original sweep, so an aggressively thin tile can
//! trade cache misses for TLB misses. This fully-associative LRU TLB (the
//! common organisation; the UltraSparc2 dTLB held 64 entries of 8KB pages)
//! lets the ablation harness quantify that trade-off.

use crate::cache::Cache;
use crate::config::{CacheConfig, WritePolicy};
use crate::sinks::AccessSink;
use crate::stats::AccessStats;

/// A fully-associative, true-LRU translation lookaside buffer.
///
/// Implemented on the set-associative [`Cache`] engine with a single set
/// of `entries` ways and "line size" = page size, which is exactly a
/// fully-associative page cache. Both loads and stores perform a
/// translation, so writes allocate.
#[derive(Clone, Debug)]
pub struct Tlb {
    inner: Cache,
    entries: usize,
    page_bytes: usize,
}

impl Tlb {
    /// Creates a TLB with `entries` entries of `page_bytes` pages (both
    /// powers of two).
    ///
    /// # Panics
    /// Panics on non-power-of-two arguments.
    pub fn new(entries: usize, page_bytes: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "TLB entries must be a power of two"
        );
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let cfg = CacheConfig {
            size_bytes: entries * page_bytes,
            line_bytes: page_bytes,
            ways: entries,
            write_policy: WritePolicy::WriteAllocate,
        };
        Tlb {
            inner: Cache::new(cfg),
            entries,
            page_bytes,
        }
    }

    /// The UltraSparc2-class data TLB: 64 entries, 8KB pages.
    pub fn ultrasparc2() -> Self {
        Self::new(64, 8 * 1024)
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Translation hit/miss counters.
    pub fn stats(&self) -> AccessStats {
        self.inner.stats()
    }

    /// Clears counters and contents.
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Performs one translation; returns `true` on a TLB miss.
    #[inline]
    pub fn translate(&mut self, addr: u64) -> bool {
        self.inner.access(addr, false)
    }
}

impl AccessSink for Tlb {
    #[inline]
    fn read(&mut self, addr: u64) {
        self.translate(addr);
    }

    #[inline]
    fn write(&mut self, addr: u64) {
        self.translate(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(4, 4096);
        assert!(t.translate(0));
        assert!(!t.translate(4095));
        assert!(t.translate(4096));
        assert!(!t.translate(8191));
    }

    #[test]
    fn full_associativity_holds_exactly_entries_pages() {
        let mut t = Tlb::new(4, 4096);
        for p in 0..4u64 {
            t.translate(p * 4096);
        }
        for p in 0..4u64 {
            assert!(!t.translate(p * 4096), "page {p} should be resident");
        }
        // A fifth page evicts the LRU (page 0 after the re-touches? the
        // re-touch loop made 0 most-recent order 0,1,2,3 -> LRU is 0).
        t.translate(4 * 4096);
        assert!(t.translate(0), "LRU page must have been evicted");
    }

    #[test]
    fn writes_translate_too() {
        let mut t = Tlb::new(2, 4096);
        t.write(0);
        assert!(!t.translate(8));
        assert_eq!(t.stats().accesses, 2);
    }

    #[test]
    fn strided_walk_thrashes_small_tlb() {
        // 128 pages round-robin through a 64-entry TLB: every access
        // misses once capacity is exceeded.
        let mut t = Tlb::ultrasparc2();
        let pages = 128u64;
        for _ in 0..3 {
            for p in 0..pages {
                t.translate(p * 8192);
            }
        }
        let s = t.stats();
        assert_eq!(s.misses, 3 * pages); // LRU + round-robin = 100% miss
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = Tlb::new(48, 8192);
    }
}
