//! Set-associative LRU validation against hand-computed traces.
//!
//! The paper's simulations are direct-mapped (UltraSparc2), but the
//! conflict-interference analyzer also certifies transforms for modern
//! associative geometries, so the simulator's set-associative LRU path
//! must be exactly right. Each test here drives a tiny cache with a trace
//! whose hit/miss sequence is worked out by hand in the comments.

use tiling3d_cachesim::{Cache, CacheConfig, WritePolicy};

/// A small write-allocate LRU cache: `sets` x `ways` lines of 32 bytes.
fn cache(sets: usize, ways: usize) -> Cache {
    Cache::new(CacheConfig {
        size_bytes: sets * ways * 32,
        line_bytes: 32,
        ways,
        write_policy: WritePolicy::WriteAllocate,
    })
}

/// Address of line `l` in set `s` of a `sets`-set cache with tag `t`:
/// distinct `t` values give distinct lines mapping to the same set.
fn addr(sets: usize, s: u64, t: u64) -> u64 {
    (t * sets as u64 + s) * 32
}

#[test]
fn two_way_lru_holds_two_conflicting_lines() {
    // 4 sets x 2 ways. Three tags in one set round-robin: classic LRU
    // worst case, every access past the fill misses. Two tags: all hit.
    let mut c = cache(4, 2);
    let a = addr(4, 1, 0);
    let b = addr(4, 1, 1);
    let x = addr(4, 1, 2);

    assert!(c.access(a, false)); // miss (cold)      set: [a]
    assert!(c.access(b, false)); // miss (cold)      set: [b a]
    assert!(!c.access(a, false)); // hit             set: [a b]
    assert!(!c.access(b, false)); // hit             set: [b a]
                                  // Third tag evicts the LRU line (a).
    assert!(c.access(x, false)); // miss (cold)      set: [x b]
    assert!(c.access(a, false)); // miss (a evicted) set: [a x]
    assert!(c.access(b, false)); // miss (b evicted) set: [b a]
    assert!(c.access(x, false)); // miss (x evicted) set: [x b]
    let s = c.stats();
    assert_eq!(s.accesses, 8);
    assert_eq!(s.misses, 6);
}

#[test]
fn two_way_lru_order_is_per_set() {
    // Interleaving accesses to a different set must not disturb the LRU
    // order of the first set.
    let mut c = cache(4, 2);
    let a = addr(4, 0, 0);
    let b = addr(4, 0, 1);
    let other = addr(4, 3, 7);

    c.access(a, false); // miss
    c.access(b, false); // miss        set0: [b a]
    c.access(other, false); // miss, set 3 — irrelevant to set 0
    assert!(!c.access(a, false)); // hit set0: [a b]
                                  // New tag evicts b (LRU), not a.
    c.access(addr(4, 0, 2), false); // miss, evicts b
    assert!(!c.access(a, false), "a must have survived");
    assert!(c.access(b, false), "b must have been evicted");
}

#[test]
fn four_way_lru_exact_sequence() {
    // 2 sets x 4 ways, five tags in set 0. Hand trace:
    //   t0 t1 t2 t3          -> 4 cold misses    [t3 t2 t1 t0]
    //   t1                   -> hit              [t1 t3 t2 t0]
    //   t4                   -> miss, evicts t0  [t4 t1 t3 t2]
    //   t0                   -> miss, evicts t2  [t0 t4 t1 t3]
    //   t3                   -> hit              [t3 t0 t4 t1]
    //   t2                   -> miss, evicts t1  [t2 t3 t0 t4]
    //   t4                   -> hit
    let mut c = cache(2, 4);
    let t: Vec<u64> = (0..5).map(|i| addr(2, 0, i)).collect();
    let expect = [
        (t[0], true),
        (t[1], true),
        (t[2], true),
        (t[3], true),
        (t[1], false),
        (t[4], true),
        (t[0], true),
        (t[3], false),
        (t[2], true),
        (t[4], false),
    ];
    for (i, &(a, want_miss)) in expect.iter().enumerate() {
        assert_eq!(c.access(a, false), want_miss, "access {i}");
    }
    let s = c.stats();
    assert_eq!(s.accesses, 10);
    assert_eq!(s.misses, 7);
}

#[test]
fn eight_way_absorbs_what_direct_mapped_thrashes() {
    // Two lines 16KB apart alternate 100 times. In a 16KB direct-mapped
    // cache they share a set and every access misses; with the same
    // capacity at 8 ways they coexist: only the 2 cold misses remain.
    let dm = CacheConfig {
        size_bytes: 16 * 1024,
        line_bytes: 32,
        ways: 1,
        write_policy: WritePolicy::WriteAllocate,
    };
    let assoc = CacheConfig { ways: 8, ..dm };
    let mut c1 = Cache::new(dm);
    let mut c8 = Cache::new(assoc);
    for _ in 0..100 {
        for &a in &[0u64, 16 * 1024] {
            c1.access(a, false);
            c8.access(a, false);
        }
    }
    assert_eq!(c1.stats().misses, 200, "direct-mapped must thrash");
    assert_eq!(c8.stats().misses, 2, "8-way must hold both lines");
}

#[test]
fn eight_way_lru_evicts_in_age_order() {
    // 1 set x 8 ways (fully associative within the set). Fill with tags
    // 0..8, touch 0..4 to refresh them, then stream tags 8..12: each new
    // tag must evict the oldest untouched tag (4, 5, 6, 7 in turn).
    let mut c = cache(1, 8);
    for i in 0..8 {
        assert!(c.access(addr(1, 0, i), false), "cold fill {i}");
    }
    for i in 0..4 {
        assert!(!c.access(addr(1, 0, i), false), "refresh {i}");
    }
    // LRU order is now [3 2 1 0 7 6 5 4] (MRU first). Four new tags
    // evict exactly the four stale lines, oldest first.
    for j in 8..12 {
        assert!(c.access(addr(1, 0, j), false), "new tag {j} misses");
    }
    for i in 0..4 {
        assert!(!c.access(addr(1, 0, i), false), "refreshed {i} survives");
    }
    for j in 8..12 {
        assert!(!c.access(addr(1, 0, j), false), "new tag {j} resident");
    }
    for v in 4..8 {
        assert!(c.access(addr(1, 0, v), false), "stale {v} was evicted");
    }
}

#[test]
fn write_around_never_installs_but_write_allocate_does() {
    let wa = CacheConfig {
        size_bytes: 1024,
        line_bytes: 32,
        ways: 2,
        write_policy: WritePolicy::WriteAround,
    };
    let mut c = Cache::new(wa);
    assert!(c.access(0, true)); // write miss, no allocate
    assert!(c.access(0, false)); // read still misses -> installs
    assert!(!c.access(0, true)); // write now hits the resident line

    let alloc = CacheConfig {
        write_policy: WritePolicy::WriteAllocate,
        ..wa
    };
    let mut c = Cache::new(alloc);
    assert!(c.access(0, true)); // write miss allocates
    assert!(!c.access(0, false)); // read hits
}
