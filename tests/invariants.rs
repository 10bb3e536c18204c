//! Randomized invariant tests, driven by a deterministic `Xorshift64`
//! generator instead of an external property-testing framework: every run
//! visits the same cases, failures are reproducible from the printed
//! parameters, and the workspace needs no network-fetched dependencies.

use tiling3d::cachesim::{Cache, CacheConfig, ReplacementPolicy, WritePolicy};
use tiling3d::core::nonconflict::{enumerate_depth, max_ti, verify_nonconflicting};
use tiling3d::core::{gcd_pad, pad, plan, CacheSpec, CostModel, Transform};
use tiling3d::grid::{fill_random, Array3, Xorshift64};
use tiling3d::loopnest::{StencilShape, TileDims};
use tiling3d::stencil::{jacobi3d, redblack, resid};

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `lo..hi` uniform sample (half-open).
fn range(rng: &mut Xorshift64, lo: usize, hi: usize) -> usize {
    lo + rng.next_below(hi - lo)
}

/// The incremental enumeration agrees with brute force and with the
/// occupancy oracle for arbitrary geometry.
#[test]
fn nonconflicting_enumeration_is_sound_and_maximal() {
    let mut rng = Xorshift64::new(0xA11CE);
    for _ in 0..64 {
        let c = 1usize << range(&mut rng, 6, 12); // cache 64..2048 elements
        let di = range(&mut rng, 3, 600);
        let dj = range(&mut rng, 3, 600);
        let tk = range(&mut rng, 1, 5);
        let tiles = enumerate_depth(c, di, dj, tk);
        for t in &tiles {
            assert_eq!(
                max_ti(c, di, dj, t.tj, tk),
                t.ti,
                "c={c} di={di} dj={dj} tk={tk}"
            );
            assert!(
                verify_nonconflicting(c, di, dj, t),
                "c={c} di={di} dj={dj} {t:?}"
            );
            let bigger = tiling3d::core::ArrayTile { ti: t.ti + 1, ..*t };
            assert!(
                !verify_nonconflicting(c, di, dj, &bigger),
                "tile not maximal: c={c} di={di} dj={dj} {t:?}"
            );
        }
        // Breakpoints strictly decrease in TI and increase in TJ.
        for w in tiles.windows(2) {
            assert!(w[1].ti < w[0].ti && w[1].tj > w[0].tj);
        }
    }
}

/// GcdPad's promised invariants hold for arbitrary dimensions:
/// gcd(DI_p, C) = TI, gcd(DJ_p, C) = TJ, pads bounded by 2T-1, and the
/// resulting array tile never self-interferes.
#[test]
fn gcdpad_invariants() {
    let mut rng = Xorshift64::new(0x6CD);
    for _ in 0..256 {
        let di = range(&mut rng, 8, 2000);
        let dj = range(&mut rng, 8, 2000);
        let cache = CacheSpec { elements: 2048 };
        let shape = StencilShape::jacobi3d();
        let g = gcd_pad(cache, di, dj, &shape);
        assert_eq!(gcd(g.di_p, 2048), g.array_tile.ti, "di={di} dj={dj}");
        assert_eq!(gcd(g.dj_p, 2048), g.array_tile.tj, "di={di} dj={dj}");
        assert!(g.di_p >= di && g.di_p - di < 2 * g.array_tile.ti);
        assert!(g.dj_p >= dj && g.dj_p - dj < 2 * g.array_tile.tj);
        assert!(verify_nonconflicting(2048, g.di_p, g.dj_p, &g.array_tile));
    }
}

/// Pad's contract: pads bounded by GcdPad's, cost no worse than GcdPad's,
/// selected tile conflict-free under the selected pads.
#[test]
fn pad_contract() {
    // Small domain: cover it exhaustively instead of sampling.
    for d in 100usize..420 {
        let cache = CacheSpec { elements: 2048 };
        let shape = StencilShape::jacobi3d();
        let g = gcd_pad(cache, d, d, &shape);
        let p = pad(cache, d, d, &shape);
        assert!(p.di_p >= d && p.di_p <= g.di_p, "d={d}");
        assert!(p.dj_p >= d && p.dj_p <= g.dj_p, "d={d}");
        let cost = CostModel::from_shape(&shape);
        let cost_star = cost.eval(g.iter_tile.0 as i64, g.iter_tile.1 as i64);
        assert!(p.selection.cost <= cost_star + 1e-9, "d={d}");
        assert!(verify_nonconflicting(
            2048,
            p.di_p,
            p.dj_p,
            &p.selection.array_tile
        ));
    }
}

/// Tiled Jacobi equals untiled for arbitrary shapes, pads and tiles.
#[test]
fn jacobi_tiling_preserves_results() {
    let mut rng = Xorshift64::new(0x1AC0B1);
    for _ in 0..64 {
        let n = range(&mut rng, 4, 24);
        let nk = range(&mut rng, 3, 12);
        let (di, dj) = (n + range(&mut rng, 0, 7), n + range(&mut rng, 0, 7));
        let (ti, tj) = (range(&mut rng, 1, 30), range(&mut rng, 1, 30));
        let seed = rng.next_u64();
        let mut b = Array3::with_padding(n, n, nk, di, dj);
        fill_random(&mut b, seed);
        let mut a1 = Array3::with_padding(n, n, nk, di, dj);
        let mut a2 = a1.clone();
        jacobi3d::sweep(&mut a1, &b, 1.0 / 6.0, None);
        jacobi3d::sweep(&mut a2, &b, 1.0 / 6.0, Some(TileDims::new(ti, tj)));
        assert!(
            a1.logical_eq(&a2),
            "n={n} nk={nk} di={di} dj={dj} tile=({ti},{tj})"
        );
    }
}

/// The skewed tiled red-black schedule equals the naive schedule for
/// arbitrary sizes and tiles — the strongest correctness property in the
/// workspace (ordering-sensitive in-place updates).
#[test]
fn redblack_tiling_preserves_results() {
    let mut rng = Xorshift64::new(0xED81AC6);
    for _ in 0..64 {
        let n = range(&mut rng, 4, 20);
        let nk = range(&mut rng, 3, 14);
        let (ti, tj) = (range(&mut rng, 1, 24), range(&mut rng, 1, 24));
        let seed = rng.next_u64();
        let mut a = Array3::new(n, n, nk);
        fill_random(&mut a, seed);
        let mut b = a.clone();
        redblack::sweep(&mut a, 0.4, 0.1, redblack::Schedule::Naive);
        redblack::sweep(
            &mut b,
            0.4,
            0.1,
            redblack::Schedule::Tiled(TileDims::new(ti, tj)),
        );
        assert!(a.logical_eq(&b), "n={n} nk={nk} tile=({ti},{tj})");
    }
}

/// Parallel K-slab sweeps equal sequential for arbitrary thread counts.
#[test]
fn parallel_equals_sequential() {
    let mut rng = Xorshift64::new(0x9A8A11E1);
    for _ in 0..24 {
        let n = range(&mut rng, 5, 20);
        let nk = range(&mut rng, 3, 16);
        let threads = range(&mut rng, 1, 9);
        let seed = rng.next_u64();
        let mut u = Array3::new(n, n, nk);
        let mut v = Array3::new(n, n, nk);
        fill_random(&mut u, seed);
        fill_random(&mut v, seed ^ 1);
        let mut seq = Array3::new(n, n, nk);
        resid::sweep(&mut seq, &u, Some(&v), &resid::Coeffs::MGRID_A, None);
        let mut par = Array3::new(n, n, nk);
        tiling3d::stencil::parallel::resid_sweep(
            &mut par,
            &u,
            &v,
            &resid::Coeffs::MGRID_A,
            None,
            threads,
        );
        assert!(seq.logical_eq(&par), "n={n} nk={nk} threads={threads}");
    }
}

/// The set-associative cache against a trivially-correct reference model
/// (vector of per-set LRU queues).
#[test]
fn cache_matches_reference_lru_model() {
    let mut rng = Xorshift64::new(0xCAC8E);
    for case in 0..64 {
        let ways = 1usize << (case % 3);
        let cfg = CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            ways,
            write_policy: WritePolicy::WriteAround,
            replacement: ReplacementPolicy::Lru,
        };
        let mut cache = Cache::new(cfg);
        // Reference: per-set Vec kept in LRU order (front = most recent).
        let sets = cfg.num_sets();
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets];
        let len = range(&mut rng, 1, 400);
        for _ in 0..len {
            let addr = rng.next_u64() % 4096;
            let is_write = rng.next_u64() & 1 == 1;
            let line = addr >> 6;
            let set = (line as usize) % sets;
            let q = &mut model[set];
            let hit = q.iter().position(|&t| t == line);
            let expect_miss = hit.is_none();
            match hit {
                Some(pos) => {
                    let t = q.remove(pos);
                    q.insert(0, t);
                }
                None if !is_write => {
                    q.insert(0, line);
                    q.truncate(ways);
                }
                None => {} // write-around: no allocate
            }
            let miss = cache.access(addr, is_write);
            assert_eq!(
                miss, expect_miss,
                "ways {ways} addr {addr} write {is_write}"
            );
        }
    }
}

/// Cost model sanity: scaling both tile dims up never increases cost, and
/// the square tile is optimal among equal-area tiles.
#[test]
fn cost_model_monotone_and_square_optimal() {
    let cost = CostModel::new(2, 2);
    for ti in 1i64..64 {
        for tj in 1i64..64 {
            assert!(
                cost.eval(2 * ti, 2 * tj) <= cost.eval(ti, tj),
                "({ti},{tj})"
            );
            let area = ti * tj;
            let sq = (area as f64).sqrt();
            let (a, b) = (sq.floor() as i64, sq.ceil() as i64);
            if a > 0 && a * b == area {
                assert!(cost.eval(a, b) <= cost.eval(ti, tj) + 1e-12, "({ti},{tj})");
            }
        }
    }
}

/// Planning never panics and always yields legal plans for any size.
#[test]
fn planning_is_total() {
    for n in 3usize..700 {
        for t in Transform::ALL {
            let p = plan(
                t,
                CacheSpec::ELEMENTS_16K_DOUBLES,
                n,
                n,
                &StencilShape::resid27(),
            );
            assert!(p.padded_di >= n && p.padded_dj >= n, "{t:?} n={n}");
            if let Some((ti, tj)) = p.tile {
                assert!(ti >= 1 && tj >= 1, "{t:?} n={n}");
            }
        }
    }
}

/// The 3C classes partition the real cache's misses for any trace.
#[test]
fn threec_classes_partition_misses() {
    use tiling3d::cachesim::{AccessSink, ThreeC};
    let mut rng = Xorshift64::new(0x3C);
    for case in 0..48 {
        let cfg = CacheConfig {
            size_bytes: 2048,
            line_bytes: 32,
            ways: 1 << (case % 2),
            write_policy: WritePolicy::WriteAround,
            replacement: ReplacementPolicy::Lru,
        };
        let mut c = ThreeC::new(cfg);
        let len = range(&mut rng, 1, 600);
        for _ in 0..len {
            let a = rng.next_u64() % 16384;
            if rng.next_u64() & 1 == 1 {
                c.write(a);
            } else {
                c.read(a);
            }
        }
        assert_eq!(c.cold + c.capacity + c.conflict, c.total_misses());
        assert_eq!(c.accesses, len as u64);
    }
}

/// Euclid's 2D candidate tiles are always sound for arbitrary strides.
#[test]
fn euclid_2d_tiles_never_conflict() {
    use tiling3d::core::nonconflict::euclid_tiles_2d;
    use tiling3d::core::ArrayTile;
    let mut rng = Xorshift64::new(0xE0C11D);
    for _ in 0..128 {
        let c = 1usize << range(&mut rng, 5, 12);
        let di = range(&mut rng, 1, 5000);
        for (ti, tj) in euclid_tiles_2d(c, di) {
            let tile = ArrayTile { ti, tj, tk: 1 };
            assert!(verify_nonconflicting(c, di, di, &tile), "c={c} di={di}");
        }
    }
}

/// Inter-variable staggering never shrinks separations below the target
/// and keeps arrays disjoint, for arbitrary geometry.
#[test]
fn staggered_bases_are_sound() {
    use tiling3d::core::intervar::staggered_bases;
    let mut rng = Xorshift64::new(0x57A66E);
    for _ in 0..96 {
        let count = range(&mut rng, 1, 6);
        let array_kb = range(&mut rng, 1, 512) as u64;
        let cache = 1u64 << range(&mut rng, 10, 18);
        let bytes = array_kb * 1024 + 8; // deliberately unaligned sizes
        let bases = staggered_bases(count, bytes, cache, 64);
        for w in bases.windows(2) {
            assert!(w[1] >= w[0] + bytes, "arrays overlap: {bases:?}");
        }
        for &b in &bases {
            assert_eq!(b % 64, 0);
        }
    }
}

/// The time-skewed schedule equals the naive one for arbitrary parameters
/// (the strongest legality check for the skew).
#[test]
fn time_skewing_preserves_results() {
    use tiling3d::grid::{fill_random2, Array2};
    use tiling3d::stencil::timeskew;
    let mut rng = Xorshift64::new(0x7157E);
    for _ in 0..48 {
        let n = range(&mut rng, 4, 16);
        let steps = range(&mut rng, 0, 7);
        let (st, sj) = (range(&mut rng, 1, 9), range(&mut rng, 1, 9));
        let seed = rng.next_u64();
        let mut b0 = Array2::new(n, n);
        fill_random2(&mut b0, seed);
        let mut a = [b0.clone(), b0.clone()];
        let mut b = [b0.clone(), b0];
        timeskew::run_naive(&mut a, 0.25, steps);
        timeskew::run_time_skewed(&mut b, 0.25, steps, st, sj);
        assert!(
            a[steps % 2].logical_eq(&b[steps % 2]),
            "n={n} steps={steps} skew=({st},{sj})"
        );
    }
}

/// The analytic predictor is internally consistent: bigger non-degenerate
/// tiles never predict more misses — *as long as the bigger tile's
/// working set still fits the cache*. Past that the reverse is true (and
/// really happens: simulating (13,41) vs (26,82) at N=200 on the 16KB FA
/// cache gives 23.0% vs 26.7% — the doubled tile's 7056-element K-sweep
/// footprint overflows the 2048-element cache and loses its plane
/// reuse), which is the entire reason tile-size selection caps the tile.
#[test]
fn predictor_monotone_in_tile_area() {
    use tiling3d::core::{histogram, KernelModel, LevelGeometry, PlanSchedule, Problem};
    let model = KernelModel::jacobi3d();
    let elems = tiling3d::core::CacheSpec::ELEMENTS_16K_DOUBLES.elements;
    let misses = |ti, tj| {
        let sched = PlanSchedule::Tiled { ti, tj };
        histogram(
            &model,
            sched,
            &Problem::cube(200, 30),
            &LevelGeometry::fa_16k(),
        )
        .misses_at(elems as f64)
    };
    let mut rng = Xorshift64::new(0x9ED1C7);
    for _ in 0..96 {
        let (ti, tj) = (range(&mut rng, 2, 64), range(&mut rng, 2, 64));
        // Only compare when the doubled tile's 3-plane working set
        // (ATD x (TI+m)(TJ+n), the quantity tile selection bounds)
        // still fits.
        if 3 * (2 * ti + 2) * (2 * tj + 2) > elems {
            continue;
        }
        let (small, big) = (misses(ti, tj), misses(2 * ti, 2 * tj));
        assert!(big <= small + 1e-9, "tile=({ti},{tj})");
    }
}
