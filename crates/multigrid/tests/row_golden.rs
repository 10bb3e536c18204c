//! Row-engine MGRID routines ≡ the per-point originals, bit for bit.
//!
//! `spec` holds the per-point `psinv`, `rprj3`, `interp`, `comm3` and
//! `interior_l2` the row kernels replaced, over `PeriodicGrid::get`/`set`
//! and flat offsets: the executable specification, as
//! `tiling3d_stencil::reference` is for the stencils. Every check compares
//! the whole logical array, ghosts included, by `to_bits`.
//!
//! The fills hold negative values, `+0.0` and `-0.0` in every grid, ghosts
//! included, and NaN in the padding: an `interp` that starts its sum from
//! the first term instead of `0.0` keeps a `-0.0` the spec turns into
//! `+0.0`, and a read of padding shows up as NaN.

use tiling3d_grid::Xorshift64;
use tiling3d_loopnest::TileDims;
use tiling3d_multigrid::ops::{self, SmootherCoeffs};
use tiling3d_multigrid::PeriodicGrid;

/// The per-point routines, copied from the code the row kernels replaced.
mod spec {
    use tiling3d_loopnest::{for_each, for_each_tiled, IterSpace, TileDims};
    use tiling3d_multigrid::ops::SmootherCoeffs;
    use tiling3d_multigrid::PeriodicGrid;

    pub fn comm3(g: &mut PeriodicGrid) {
        let m = g.m();
        let n = g.n();
        // Axis I.
        for k in 0..n {
            for j in 0..n {
                let lo = g.get(1, j, k);
                let hi = g.get(m, j, k);
                g.set(0, j, k, hi);
                g.set(m + 1, j, k, lo);
            }
        }
        // Axis J (sees updated I ghosts).
        for k in 0..n {
            for i in 0..n {
                let lo = g.get(i, 1, k);
                let hi = g.get(i, m, k);
                g.set(i, 0, k, hi);
                g.set(i, m + 1, k, lo);
            }
        }
        // Axis K.
        for j in 0..n {
            for i in 0..n {
                let lo = g.get(i, j, 1);
                let hi = g.get(i, j, m);
                g.set(i, j, 0, hi);
                g.set(i, j, m + 1, lo);
            }
        }
    }

    pub fn interior_l2(g: &PeriodicGrid) -> f64 {
        let m = g.m();
        let mut s = 0.0;
        for k in 1..=m {
            for j in 1..=m {
                for i in 1..=m {
                    let v = g.get(i, j, k);
                    s += v * v;
                }
            }
        }
        (s / (m * m * m) as f64).sqrt()
    }

    pub fn psinv(
        u: &mut PeriodicGrid,
        r: &PeriodicGrid,
        c: &SmootherCoeffs,
        tile: Option<TileDims>,
    ) {
        let m = u.m();
        assert_eq!(m, r.m());
        assert_eq!(
            (u.array().di(), u.array().dj()),
            (r.array().di(), r.array().dj())
        );
        let (di, ps) = (r.array().di(), r.array().plane_stride());
        let (dii, psi) = (di as i64, ps as i64);
        let c = *c;
        let rv = r.array().as_slice();
        let uvm = u.array_mut().as_mut_slice();
        let space = IterSpace {
            lo: (1, 1, 1),
            hi: (m, m, m),
        };
        let body = |i: usize, j: usize, k: usize| {
            let idx = i + j * di + k * ps;
            let at = |off: i64| rv[(idx as i64 + off) as usize];
            let mut s1 = 0.0;
            for o in [-1i64, 1, -dii, dii, -psi, psi] {
                s1 += at(o);
            }
            let mut s2 = 0.0;
            for o in [
                -1 - dii,
                1 - dii,
                -1 + dii,
                1 + dii,
                -dii - psi,
                dii - psi,
                -dii + psi,
                dii + psi,
                -1 - psi,
                -1 + psi,
                1 - psi,
                1 + psi,
            ] {
                s2 += at(o);
            }
            let mut s3 = 0.0;
            for o in [
                -1 - dii - psi,
                1 - dii - psi,
                -1 + dii - psi,
                1 + dii - psi,
                -1 - dii + psi,
                1 - dii + psi,
                -1 + dii + psi,
                1 + dii + psi,
            ] {
                s3 += at(o);
            }
            uvm[idx] += c.c0 * rv[idx] + c.c1 * s1 + c.c2 * s2 + c.c3 * s3;
        };
        match tile {
            None => for_each(space, body),
            Some(t) => for_each_tiled(space, t, body),
        }
        comm3(u);
    }

    pub fn rprj3(coarse: &mut PeriodicGrid, fine: &PeriodicGrid) {
        let mc = coarse.m();
        assert_eq!(fine.m(), 2 * mc, "restriction needs a 2:1 grid pair");
        let fa = fine.array();
        let (di, ps) = (fa.di(), fa.plane_stride());
        let (dii, psi) = (di as i64, ps as i64);
        let fv = fa.as_slice();
        for kc in 1..=mc {
            for jc in 1..=mc {
                for ic in 1..=mc {
                    let idx = (2 * ic + 2 * jc * di + 2 * kc * ps) as i64;
                    let at = |o: i64| fv[(idx + o) as usize];
                    let mut faces = 0.0;
                    for o in [-1i64, 1, -dii, dii, -psi, psi] {
                        faces += at(o);
                    }
                    let mut edges = 0.0;
                    for o in [
                        -1 - dii,
                        1 - dii,
                        -1 + dii,
                        1 + dii,
                        -dii - psi,
                        dii - psi,
                        -dii + psi,
                        dii + psi,
                        -1 - psi,
                        -1 + psi,
                        1 - psi,
                        1 + psi,
                    ] {
                        edges += at(o);
                    }
                    let mut corners = 0.0;
                    for o in [
                        -1 - dii - psi,
                        1 - dii - psi,
                        -1 + dii - psi,
                        1 + dii - psi,
                        -1 - dii + psi,
                        1 - dii + psi,
                        -1 + dii + psi,
                        1 + dii + psi,
                    ] {
                        corners += at(o);
                    }
                    let v = 0.5 * at(0) + 0.25 * faces + 0.125 * edges + 0.0625 * corners;
                    coarse.set(ic, jc, kc, v);
                }
            }
        }
        comm3(coarse);
    }

    pub fn interp(fine: &mut PeriodicGrid, coarse: &PeriodicGrid) {
        let mc = coarse.m();
        let mf = fine.m();
        assert_eq!(mf, 2 * mc, "prolongation needs a 2:1 grid pair");
        // Per-dim stencil: even fine index 2c -> coarse c with weight 1;
        // odd fine index 2c+1 -> coarse c and c+1 with weight 1/2 each.
        // Coarse index 0 is a (periodic) ghost, valid after comm3.
        let contrib = |f: usize| -> [(usize, f64); 2] {
            if f.is_multiple_of(2) {
                [(f / 2, 1.0), (0, 0.0)]
            } else {
                [(f / 2, 0.5), (f / 2 + 1, 0.5)]
            }
        };
        for kf in 1..=mf {
            let ck = contrib(kf);
            for jf in 1..=mf {
                let cj = contrib(jf);
                for if_ in 1..=mf {
                    let ci = contrib(if_);
                    let mut acc = 0.0;
                    for (kc, wk) in ck {
                        if wk == 0.0 {
                            continue;
                        }
                        for (jc, wj) in cj {
                            if wj == 0.0 {
                                continue;
                            }
                            for (ic, wi) in ci {
                                if wi == 0.0 {
                                    continue;
                                }
                                acc += wk * wj * wi * coarse.get(ic, jc, kc);
                            }
                        }
                    }
                    let cur = fine.get(if_, jf, kf);
                    fine.set(if_, jf, kf, cur + acc);
                }
            }
        }
        comm3(fine);
    }
}

/// Interior sizes under test.
const SIZES: [usize; 4] = [2, 4, 8, 16];

/// Magnitudes mixed into the fills. Sums of same-scale values on a dyadic
/// grid are often exact in any order; mixed exponents and a non-dyadic
/// factor make a reordered sum round differently.
const SCALES: [f64; 3] = [1e3, 1.0 / 3.0, 1e-3];

/// A grid with `m` interior points per side, padded to `(m + 7, m + 5)` if
/// `padded`, whose every logical point (ghosts included) holds a seeded
/// value of mixed sign and magnitude, `+0.0` and `-0.0` among them.
/// Padding holds NaN.
fn grid(m: usize, padded: bool, seed: u64) -> PeriodicGrid {
    let mut g = if padded {
        PeriodicGrid::with_padding(m, m + 7, m + 5)
    } else {
        PeriodicGrid::new(m)
    };
    g.array_mut().as_mut_slice().fill(f64::NAN);
    let mut rng = Xorshift64::new(seed);
    let n = g.n();
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let v = match rng.next_u64() % 8 {
                    0 => -0.0,
                    1 => 0.0,
                    s => (rng.next_f64() - 0.5) * SCALES[s as usize % 3],
                };
                g.set(i, j, k, v);
            }
        }
    }
    g
}

/// Asserts `a` and `b` agree bit for bit at every logical point.
fn assert_bits_eq(a: &PeriodicGrid, b: &PeriodicGrid, what: &str) {
    let n = a.n();
    assert_eq!(n, b.n(), "{what}: sizes differ");
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let (x, y) = (a.get(i, j, k), b.get(i, j, k));
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: ({i},{j},{k}) row {x:e} vs spec {y:e}"
                );
            }
        }
    }
}

#[test]
fn comm3_matches_the_per_point_exchange() {
    for m in SIZES {
        for padded in [false, true] {
            let mut got = grid(m, padded, 1 + m as u64);
            let mut want = got.clone();
            got.comm3();
            spec::comm3(&mut want);
            assert_bits_eq(&got, &want, &format!("comm3 m={m} padded={padded}"));
        }
    }
}

#[test]
fn interior_l2_matches_the_per_point_sum() {
    for m in SIZES {
        for padded in [false, true] {
            let g = grid(m, padded, 2 + m as u64);
            assert_eq!(
                g.interior_l2().to_bits(),
                spec::interior_l2(&g).to_bits(),
                "interior_l2 m={m} padded={padded}"
            );
        }
    }
}

#[test]
fn psinv_matches_the_per_point_smoother_for_every_tile() {
    let coeffs = [
        SmootherCoeffs::MGRID_C,
        SmootherCoeffs {
            c0: -0.75,
            c1: 0.125,
            c2: -0.0625,
            c3: 0.03125,
        },
    ];
    for m in SIZES {
        for padded in [false, true] {
            let r = grid(m, padded, 3 + m as u64);
            let u0 = grid(m, padded, 4 + m as u64);
            let tiles = [
                None,
                Some(TileDims::new(1, 1)),
                Some(TileDims::new(3, 2)),
                Some(TileDims::new(m + 5, m + 5)),
            ];
            for c in &coeffs {
                for tile in tiles {
                    let mut got = u0.clone();
                    ops::psinv(&mut got, &r, c, tile);
                    let mut want = u0.clone();
                    spec::psinv(&mut want, &r, c, tile);
                    let what = format!("psinv m={m} padded={padded} tile={tile:?} c={c:?}");
                    assert_bits_eq(&got, &want, &what);
                }
            }
        }
    }
}

#[test]
fn rprj3_matches_the_per_point_restriction() {
    for mc in SIZES {
        for padded in [false, true] {
            let fine = grid(2 * mc, padded, 5 + mc as u64);
            let c0 = grid(mc, false, 6 + mc as u64);
            let mut got = c0.clone();
            ops::rprj3(&mut got, &fine);
            let mut want = c0;
            spec::rprj3(&mut want, &fine);
            assert_bits_eq(&got, &want, &format!("rprj3 mc={mc} fine padded={padded}"));
        }
    }
}

#[test]
fn interp_matches_the_per_point_prolongation() {
    for mc in SIZES {
        for padded in [false, true] {
            let coarse = grid(mc, false, 7 + mc as u64);
            let f0 = grid(2 * mc, padded, 8 + mc as u64);
            let mut got = f0.clone();
            ops::interp(&mut got, &coarse);
            let mut want = f0;
            spec::interp(&mut want, &coarse);
            assert_bits_eq(&got, &want, &format!("interp mc={mc} fine padded={padded}"));
        }
    }
}
