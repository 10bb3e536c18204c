//! Golden-equivalence suite: the optimized simulation engine (MRU
//! fast-path `Cache::access`, row-level `AccessSink::row` replay, sharded
//! `SimPool` sweeps) must report **bit-identical** miss counts to a
//! per-access reference replay with every optimization disabled.
//!
//! The reference hierarchy below uses `Cache::access_reference` (no MRU
//! short-circuit) and inherits the trait's default `row` (a plain
//! per-access loop, no batching), so any divergence in the fast paths —
//! wrong LRU bookkeeping in the short-circuit, a mis-segmented run, a
//! mis-classified row, a reordered shard — shows up as an exact counter
//! mismatch here.

use tiling3d_bench::{simulate_grid, SweepConfig};
use tiling3d_cachesim::{AccessSink, AccessStats, Cache, CacheConfig, Hierarchy};
use tiling3d_core::Transform;
use tiling3d_stencil::kernels::Kernel;

/// Two-level write-through hierarchy replayed strictly one access at a
/// time through the reference (slow-path) cache probe.
struct ReferenceHierarchy {
    l1: Cache,
    l2: Cache,
}

impl ReferenceHierarchy {
    fn ultrasparc2() -> Self {
        ReferenceHierarchy {
            l1: Cache::new(CacheConfig::ULTRASPARC2_L1),
            l2: Cache::new(CacheConfig::ULTRASPARC2_L2),
        }
    }
}

impl AccessSink for ReferenceHierarchy {
    // Same L1/L2 policy as `Hierarchy`: write-through L1, L2 sees L1 read
    // misses and every write. Deliberately NO `row` override: rows
    // expand through the trait's default per-access loop.
    fn read(&mut self, addr: u64) {
        if self.l1.access_reference(addr, false) {
            self.l2.access_reference(addr, false);
        }
    }

    fn write(&mut self, addr: u64) {
        self.l1.access_reference(addr, true);
        self.l2.access_reference(addr, true);
    }
}

/// The six transforms of the paper's figures.
const ALGORITHMS: [Transform; 6] = Transform::ALL;

fn fast_and_reference_stats(
    kernel: Kernel,
    t: Transform,
    n: usize,
    nk: usize,
) -> ((AccessStats, AccessStats), (AccessStats, AccessStats)) {
    let cfg = SweepConfig::default();
    let p = tiling3d_bench::plan_for(&cfg, kernel, t, n);

    let mut fast = Hierarchy::ultrasparc2();
    kernel.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut fast);

    let mut reference = ReferenceHierarchy::ultrasparc2();
    kernel.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut reference);

    (
        (fast.l1_stats(), fast.l2_stats()),
        (reference.l1.stats(), reference.l2.stats()),
    )
}

/// The tentpole guarantee: for every kernel x algorithm x size, the full
/// engine (fast path + batched runs) reports exactly the reference's L1
/// and L2 counters — accesses, misses, and the read/write splits.
#[test]
fn engine_matches_per_access_reference_for_all_kernels_and_algorithms() {
    for kernel in Kernel::ALL {
        for t in ALGORITHMS {
            for n in [24usize, 40, 67] {
                let (fast, reference) = fast_and_reference_stats(kernel, t, n, 6);
                assert_eq!(
                    fast.0,
                    reference.0,
                    "L1 diverged: {} {} N={n}",
                    kernel.name(),
                    t.name()
                );
                assert_eq!(
                    fast.1,
                    reference.1,
                    "L2 diverged: {} {} N={n}",
                    kernel.name(),
                    t.name()
                );
            }
        }
    }
}

/// Paper-geometry spot check at a conflict-heavy size (the engine must not
/// only match on easy sizes): N = 128 hits severe direct-mapped conflicts
/// on the 16KB L1 for the untransformed kernels.
#[test]
fn engine_matches_reference_at_pathological_size() {
    for kernel in Kernel::ALL {
        for t in [Transform::Orig, Transform::GcdPad] {
            let (fast, reference) = fast_and_reference_stats(kernel, t, 128, 8);
            assert_eq!(fast.0, reference.0, "{} {}", kernel.name(), t.name());
            assert_eq!(fast.1, reference.1, "{} {}", kernel.name(), t.name());
            // Sanity: the trace actually exercised the cache.
            assert!(fast.0.accesses > 100_000);
        }
    }
}

/// Paper-geometry spot check of row replay: every kernel and transform at
/// the two sizes whose untransformed planes conflict in the 16 KB L1 (the
/// memoized conflict classes) and at one where they do not (N = 304, the
/// clean classes), against the per-access reference. The conflicts differ:
/// at N = 256 every plane maps onto the same sets, while at N = 352 planes
/// K-1 and K+1 collide, K sits half a cache away, and V and R alias U's
/// centre plane.
#[test]
fn row_replay_matches_reference_at_paper_sizes() {
    for kernel in Kernel::ALL {
        for t in ALGORITHMS {
            for n in [256usize, 304, 352] {
                let (fast, reference) = fast_and_reference_stats(kernel, t, n, 6);
                assert_eq!(
                    fast.0,
                    reference.0,
                    "L1: {} {} N={n}",
                    kernel.name(),
                    t.name()
                );
                assert_eq!(
                    fast.1,
                    reference.1,
                    "L2: {} {} N={n}",
                    kernel.name(),
                    t.name()
                );
            }
        }
    }
}

/// Tiles under 4 points wide, whose traces group rows into rows of
/// composite points a row, a plane or (red-black's 1×1 pairs) two planes
/// apart, against the per-access reference on padded arrays. No figure
/// size plans these tiles but Euc3D's 1×1 at N = 256 and 352, so they
/// are checked here at sizes of their own.
#[test]
fn narrow_tile_traces_match_per_access_reference() {
    for kernel in Kernel::ALL {
        for (n, di, dj) in [(40usize, 43usize, 41usize), (64, 64, 67)] {
            for tile in [(1usize, 1usize), (1, 2), (1, 3), (2, 5), (3, 1), (3, 2)] {
                let mut fast = Hierarchy::ultrasparc2();
                kernel.trace(n, 8, di, dj, Some(tile), &mut fast);
                let mut reference = ReferenceHierarchy::ultrasparc2();
                kernel.trace(n, 8, di, dj, Some(tile), &mut reference);
                let what = format!("{} N={n} {di}x{dj} tile {tile:?}", kernel.name());
                assert_eq!(fast.l1_stats(), reference.l1.stats(), "L1: {what}");
                assert_eq!(fast.l2_stats(), reference.l2.stats(), "L2: {what}");
            }
        }
    }
}

/// The copy nests (the copy-back nest of the Fig 5 time loop, the
/// tile-window fill of the copying schedule) emit each copy row as a
/// one-slot load row, then a one-slot store row; their traces report
/// exactly the counters of the per-access reference, which expands each
/// row access by access. Covers both L1 write policies in one shot: the
/// UltraSparc2 L1 is write-around (bulk tails of a missing line are bulk
/// *misses*), its L2 write-allocate (bulk tails are bulk hits).
#[test]
fn copy_row_traces_match_per_access_reference() {
    use tiling3d_loopnest::TileDims;
    use tiling3d_stencil::{copyopt, timestep};

    for (n, nk, di, dj) in [(24usize, 6usize, 24usize, 24usize), (40, 8, 41, 45)] {
        for tile in [None, Some(TileDims::new(8, 8)), Some(TileDims::new(3, 5))] {
            let mut fast = Hierarchy::ultrasparc2();
            timestep::trace(n, n, nk, di, dj, tile, 2, &mut fast);
            let mut reference = ReferenceHierarchy::ultrasparc2();
            timestep::trace(n, n, nk, di, dj, tile, 2, &mut reference);
            assert_eq!(
                fast.l1_stats(),
                reference.l1.stats(),
                "timestep L1 diverged: N={n} tile={tile:?}"
            );
            assert_eq!(
                fast.l2_stats(),
                reference.l2.stats(),
                "timestep L2 diverged: N={n} tile={tile:?}"
            );
        }
        let tile = TileDims::new(6, 4);
        let mut fast = Hierarchy::ultrasparc2();
        copyopt::trace_tiled_copying(n, n, nk, di, dj, tile, &mut fast);
        let mut reference = ReferenceHierarchy::ultrasparc2();
        copyopt::trace_tiled_copying(n, n, nk, di, dj, tile, &mut reference);
        assert_eq!(
            fast.l1_stats(),
            reference.l1.stats(),
            "copyopt L1 diverged: N={n}"
        );
        assert_eq!(
            fast.l2_stats(),
            reference.l2.stats(),
            "copyopt L2 diverged: N={n}"
        );
    }
}

/// The temporal traces behind `simulate --steps` (naive and time-tiled,
/// Jacobi and red-black) issue one `AccessSink::row` per row; replayed on
/// `Hierarchy` they must report exactly the per-access reference's L1 and
/// L2 counters, for degenerate, small and oversized time tiles.
#[test]
fn temporal_traces_match_per_access_reference() {
    use tiling3d_grid::Array3;
    use tiling3d_stencil::timetile::{self, TimeTile};

    // Replays `$trace` (a call taking the sink `$s`) on both hierarchies.
    macro_rules! check {
        ($label:expr, |$s:ident| $trace:expr) => {{
            let mut fast = Hierarchy::ultrasparc2();
            let mut reference = ReferenceHierarchy::ultrasparc2();
            {
                let $s = &mut fast;
                $trace;
            }
            {
                let $s = &mut reference;
                $trace;
            }
            assert!(fast.l1_stats().accesses > 0, "{}: empty trace", $label);
            assert_eq!(fast.l1_stats(), reference.l1.stats(), "L1: {}", $label);
            assert_eq!(fast.l2_stats(), reference.l2.stats(), "L2: {}", $label);
        }};
    }

    for (n, nk, steps) in [(16usize, 32usize, 8usize), (24, 20, 4)] {
        let grid = Array3::<f64>::new(n, n, nk);
        let bases = [0u64, (grid.len() * 8) as u64 + 8 * 1024];
        let at = format!("{n}x{n}x{nk} T={steps}");
        check!(format!("jacobi naive {at}"), |s| {
            timetile::trace_jacobi_steps(&grid, steps, bases, s);
        });
        check!(format!("red-black naive {at}"), |s| {
            timetile::trace_redblack_steps(&grid, steps, 0, s);
        });
        for (st, sk) in [(1usize, 1usize), (2, 3), (100, 100)] {
            let tile = TimeTile { st, sk };
            let at = format!("{at} tile=({st},{sk})");
            check!(format!("jacobi time-tiled {at}"), |s| {
                timetile::trace_jacobi_time_tiled(&grid, steps, tile, bases, s);
            });
            check!(format!("red-black time-tiled {at}"), |s| {
                timetile::trace_redblack_time_tiled(&grid, steps, tile, 0, s);
            });
        }
    }
}

/// Sharding determinism: a sweep's simulated points are bit-identical for
/// any worker count (f64 rates compared by bit pattern, not epsilon).
#[test]
fn sharded_sweep_is_bit_identical_to_sequential() {
    let base = SweepConfig {
        n_min: 40,
        n_max: 72,
        step: 16,
        nk: 6,
        reps: 1,
        ..Default::default()
    };
    let seq = simulate_grid(
        &SweepConfig { jobs: 1, ..base },
        Kernel::RedBlack,
        &ALGORITHMS,
    )
    .0;
    for jobs in [2usize, 4, 7] {
        let par = simulate_grid(&SweepConfig { jobs, ..base }, Kernel::RedBlack, &ALGORITHMS).0;
        assert_eq!(seq.len(), par.len());
        for ((n_s, row_s), (n_p, row_p)) in seq.iter().zip(&par) {
            assert_eq!(n_s, n_p);
            for (s, p) in row_s.iter().zip(row_p) {
                assert_eq!(
                    s.l1_pct.to_bits(),
                    p.l1_pct.to_bits(),
                    "jobs={jobs} N={n_s}"
                );
                assert_eq!(
                    s.l2_pct.to_bits(),
                    p.l2_pct.to_bits(),
                    "jobs={jobs} N={n_s}"
                );
                assert_eq!(
                    s.modeled.to_bits(),
                    p.modeled.to_bits(),
                    "jobs={jobs} N={n_s}"
                );
            }
        }
    }
}

/// End-to-end determinism across the whole pipeline: pooled sweep rates
/// equal a hand-rolled sequential loop over `simulate` (the pre-pool code
/// path), point by point.
#[test]
fn pooled_sweep_equals_direct_simulation_loop() {
    let cfg = SweepConfig {
        n_min: 32,
        n_max: 48,
        step: 8,
        nk: 5,
        reps: 1,
        jobs: 4,
        ..Default::default()
    };
    let (grid, _) = simulate_grid(&cfg, Kernel::Jacobi, &ALGORITHMS);
    for (n, row) in grid {
        for (t, p) in ALGORITHMS.iter().zip(row) {
            let direct = tiling3d_bench::simulate(&cfg, Kernel::Jacobi, *t, n);
            assert_eq!(p.l1_pct.to_bits(), direct.l1_pct.to_bits(), "{t:?} N={n}");
            assert_eq!(p.l2_pct.to_bits(), direct.l2_pct.to_bits(), "{t:?} N={n}");
        }
    }
}
