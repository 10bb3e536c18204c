//! The Euc3D tile-selection algorithm (Fig 9).

use crate::cost::CostModel;
use crate::nonconflict::{enumerate_depth, ArrayTile};
use crate::plan::CacheSpec;
use tiling3d_loopnest::StencilShape;

/// Result of tile selection: the iteration tile to run, the array tile it
/// came from, and its modelled cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TileSelection {
    /// Iteration-tile dimensions `(TI', TJ')` — what the tiled loop nest
    /// actually uses for its `II`/`JJ` strips.
    pub iter_tile: (usize, usize),
    /// The non-conflicting array tile the iteration tile was trimmed from.
    pub array_tile: ArrayTile,
    /// `Cost(TI', TJ')` under the stencil's cost model.
    pub cost: f64,
}

/// Options for [`euc3d_select`], the single configurable entry point of
/// tile selection.
#[derive(Clone, Debug, Default)]
pub struct Euc3dOptions {
    /// Array-tile depths (`TK`) to enumerate. `None` means the stencil's
    /// own `ATD` only — the Fig 9 algorithm. Depths `> ATD` can never offer
    /// a strictly cheaper tile (their non-conflicting `(TI, TJ)` sets are
    /// subsets of the `ATD`-depth sets), so widening the range is for
    /// enumeration output like the paper's Table 1, not for better tiles.
    pub depths: Option<std::ops::RangeInclusive<usize>>,
    /// When no array tile survives trimming (cache too small for this
    /// stencil, or pathological dimensions like 256x256 whose plane stride
    /// is `0 mod C` so planes conflict totally), fall back to the Fig 9
    /// initialisation `(TI_mc, TJ_mc) = (1, 1)` instead of returning no
    /// best tile — the source of the paper's "pathologically irregular
    /// tile size" spikes in Figs 14-19.
    pub unit_tile_fallback: bool,
}

/// Output of [`euc3d_select`]: the winning tile (if any) plus every
/// finite-cost candidate enumerated on the way.
#[derive(Clone, Debug)]
pub struct Euc3dSelection {
    /// Minimum-cost selection; `None` only when nothing survived trimming
    /// and [`Euc3dOptions::unit_tile_fallback`] is off.
    pub best: Option<TileSelection>,
    /// All trimmed candidates with finite cost, in enumeration order
    /// (ascending depth, then the non-conflicting enumeration order) — the
    /// paper's Table 1 rows.
    pub candidates: Vec<TileSelection>,
}

/// `Euc3D` (Fig 9): enumerate non-conflicting array tiles for the given
/// array dimensions, trim each by the stencil spans `(m, n)`, and select
/// the iteration tile minimising the cost function.
///
/// This is the single configurable entry point; [`euc3d`] is a thin call
/// into it.
pub fn euc3d_select(
    cache: CacheSpec,
    di: usize,
    dj: usize,
    shape: &StencilShape,
    opts: &Euc3dOptions,
) -> Euc3dSelection {
    let cost = CostModel::from_shape(shape);
    let atd = shape.atd();
    let depths = opts.depths.clone().unwrap_or(atd..=atd);
    let mut candidates = Vec::new();
    let mut best: Option<TileSelection> = None;
    for tk in depths {
        for at in enumerate_depth(cache.elements, di, dj, tk) {
            let v = cost.eval_array_tile(at.ti, at.tj);
            if !v.is_finite() {
                continue;
            }
            let cand = TileSelection {
                iter_tile: (at.ti - cost.m, at.tj - cost.n),
                array_tile: at,
                cost: v,
            };
            if best.is_none_or(|b| cand.cost < b.cost) {
                best = Some(cand);
            }
            candidates.push(cand);
        }
    }
    if tiling3d_obs::collecting() {
        tiling3d_obs::counter_add("plan.euc3d_candidates", candidates.len() as u64);
    }
    if best.is_none() && opts.unit_tile_fallback {
        best = Some(TileSelection {
            iter_tile: (1, 1),
            array_tile: ArrayTile {
                ti: 1 + cost.m,
                tj: 1 + cost.n,
                tk: atd,
            },
            cost: cost.eval(1, 1),
        });
    }
    Euc3dSelection { best, candidates }
}

/// [`euc3d_select`] with `unit_tile_fallback: true`: the infallible Fig 9
/// selection, degenerating to the `1 x 1` iteration tile for pathological
/// dimensions.
pub fn euc3d(cache: CacheSpec, di: usize, dj: usize, shape: &StencilShape) -> TileSelection {
    euc3d_select(
        cache,
        di,
        dj,
        shape,
        &Euc3dOptions {
            depths: None,
            unit_tile_fallback: true,
        },
    )
    .best
    .expect("unit_tile_fallback guarantees a selection")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CacheSpec {
        CacheSpec::ELEMENTS_16K_DOUBLES
    }

    #[test]
    fn paper_worked_example_200() {
        // Section 3.3: "...the cost function is used to select the final
        // minimum cost tile (22, 13) which originates from the array tile
        // with TK=3, TJ=15, TI=24."
        let sel = euc3d(spec(), 200, 200, &StencilShape::jacobi3d());
        assert_eq!(sel.iter_tile, (22, 13));
        assert_eq!(
            (sel.array_tile.ti, sel.array_tile.tj, sel.array_tile.tk),
            (24, 15, 3)
        );
        assert!((sel.cost - (24.0 * 15.0) / (22.0 * 13.0)).abs() < 1e-12);
    }

    #[test]
    fn pathological_341_yields_narrow_tile() {
        // Section 3.4: "given a 341x341xM array, the best tile size
        // available is (110, 4)".
        let sel = euc3d(spec(), 341, 341, &StencilShape::jacobi3d());
        assert_eq!(sel.iter_tile, (110, 4));
    }

    #[test]
    fn deeper_depths_never_beat_atd() {
        let shape = StencilShape::jacobi3d();
        let best_at = |d: usize, tk: usize| {
            euc3d_select(
                spec(),
                d,
                d,
                &shape,
                &Euc3dOptions {
                    depths: Some(tk..=tk),
                    unit_tile_fallback: false,
                },
            )
            .best
        };
        for &d in &[200usize, 300, 341, 400, 365] {
            let at_atd = best_at(d, 3).unwrap_or_else(|| panic!("no depth-3 tile for di={d}"));
            for tk in 4..=6 {
                if let Some(deeper) = best_at(d, tk) {
                    assert!(
                        deeper.cost >= at_atd.cost - 1e-12,
                        "depth {tk} beat ATD for di={d}: {deeper:?} vs {at_atd:?}"
                    );
                }
            }
        }
        // 256x256 is fully pathological: plane stride 0 mod 2048.
        assert!(best_at(256, 3).is_none());
    }

    #[test]
    fn select_candidates_carry_the_best_and_wrappers_agree() {
        let shape = StencilShape::jacobi3d();
        let sel = euc3d_select(spec(), 200, 200, &shape, &Euc3dOptions::default());
        let best = sel.best.expect("200x200 has real tiles");
        assert_eq!(best.iter_tile, (22, 13));
        assert!(sel.candidates.iter().any(|c| c.iter_tile == best.iter_tile));
        assert!(sel.candidates.iter().all(|c| c.cost >= best.cost));
        // The `euc3d` wrapper is a view of the same computation.
        assert_eq!(euc3d(spec(), 200, 200, &shape), best);
    }

    #[test]
    fn selected_tile_is_nonconflicting() {
        use crate::nonconflict::verify_nonconflicting;
        for &d in &[200usize, 211, 341, 365, 400] {
            let sel = euc3d(spec(), d, d, &StencilShape::jacobi3d());
            assert!(verify_nonconflicting(2048, d, d, &sel.array_tile), "di={d}");
        }
    }

    #[test]
    fn pathological_256_falls_back_to_unit_tile() {
        // Plane stride 256*256 = 0 mod 2048: every plane conflicts, so the
        // Fig 9 initialisation (1,1) survives.
        let sel = euc3d(spec(), 256, 256, &StencilShape::jacobi3d());
        assert_eq!(sel.iter_tile, (1, 1));
        assert_eq!(sel.cost, 9.0); // (1+2)(1+2)/(1*1)
    }

    #[test]
    fn with_depths_lists_trimmed_candidates() {
        let cands = euc3d_select(
            spec(),
            200,
            200,
            &StencilShape::jacobi3d(),
            &Euc3dOptions {
                depths: Some(1..=4),
                unit_tile_fallback: false,
            },
        )
        .candidates;
        // Every candidate has positive trimmed dims and finite cost.
        for c in &cands {
            assert!(c.iter_tile.0 > 0 && c.iter_tile.1 > 0);
            assert!(c.cost.is_finite());
            assert_eq!(c.iter_tile.0, c.array_tile.ti - 2);
        }
        // The winning (22, 13) candidate is among them.
        assert!(cands.iter().any(|c| c.iter_tile == (22, 13)));
    }

    #[test]
    fn non_finite_costs_are_rejected_not_selected() {
        // Cost-model edge: any array tile at or under the stencil spans
        // trims to a non-positive iteration tile, whose cost is infinite.
        // `euc3d_select` must drop such candidates rather than let an
        // INFINITY (or the NaN it would breed downstream) win.
        let cost = CostModel::from_shape(&StencilShape::jacobi3d());
        assert!(cost.eval(0, 5).is_infinite());
        assert!(cost.eval(5, 0).is_infinite());
        assert!(cost.eval(-3, -7).is_infinite());
        assert!(cost.eval_array_tile(2, 13).is_infinite()); // ti - m = 0
        assert!(cost.eval_array_tile(13, 2).is_infinite()); // tj - n = 0

        // End to end: every candidate that survives selection is finite,
        // for healthy and pathological dimensions alike.
        for &d in &[200usize, 256, 341] {
            let sel = euc3d_select(
                spec(),
                d,
                d,
                &StencilShape::jacobi3d(),
                &Euc3dOptions {
                    depths: Some(1..=4),
                    unit_tile_fallback: false,
                },
            );
            assert!(
                sel.candidates.iter().all(|c| c.cost.is_finite()),
                "di={d} leaked a non-finite candidate"
            );
            if let Some(b) = sel.best {
                assert!(b.cost.is_finite(), "di={d} selected a non-finite best");
            }
        }
    }

    #[test]
    fn tiny_cache_returns_none() {
        // A 4-element cache cannot hold any trimmed Jacobi tile.
        let sel = euc3d_select(
            CacheSpec { elements: 4 },
            100,
            100,
            &StencilShape::jacobi3d(),
            &Euc3dOptions::default(),
        );
        assert!(sel.best.is_none());
    }

    #[test]
    fn redblack_fused_uses_depth_four() {
        let sel = euc3d(spec(), 200, 200, &StencilShape::redblack3d_fused());
        assert_eq!(sel.array_tile.tk, 4);
        assert!(sel.iter_tile.0 > 0 && sel.iter_tile.1 > 0);
    }
}
