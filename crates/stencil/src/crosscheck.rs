//! Dynamic legality cross-check: replays a transformed schedule's visit
//! order and verifies it agrees with what the static certificate promised.
//!
//! The static analyzer ([`tiling3d_core::legality`]) proves legality from
//! distance vectors; this module checks the *executed* order directly, as a
//! second, independent line of defence against a walker whose index
//! arithmetic drifts from the schedule the certificate modelled. Two
//! properties are checked:
//!
//! 1. **Permutation**: the transformed order visits every interior point
//!    exactly once — tiling reorders the iteration space, it must not drop
//!    or duplicate points.
//! 2. **Dependence order** (red-black only): every red point is visited
//!    before each of its six face-adjacent black neighbours. This single
//!    ordering constraint is the dynamic image of *both* certified
//!    dependence families — flow (a black update reads its red neighbours'
//!    new values) and anti (a red update reads its black neighbours'
//!    original values) — so a pass here means the executed permutation is
//!    consistent with the certificate's dependence set.
//!
//! The row-engine golden gate (`tests/row_engine_golden.rs`) runs
//! [`check_schedule`] on every tile `core::plan` picks across its
//! planner-facing matrix; sweeps never call it, so they pay nothing.

use crate::kernels::Kernel;
use crate::redblack;
use std::collections::HashMap;
use tiling3d_loopnest::{for_each, for_each_tiled, IterSpace, TileDims};

/// The visit order (interior points, execution order) a kernel's sweep
/// follows under the given tile.
pub fn visit_order(
    kernel: Kernel,
    n: usize,
    nk: usize,
    tile: Option<(usize, usize)>,
) -> Vec<(usize, usize, usize)> {
    let mut pts = Vec::with_capacity((n.saturating_sub(2)).pow(2) * nk.saturating_sub(2));
    let push = |i: usize, j: usize, k: usize| pts.push((i, j, k));
    match kernel {
        Kernel::Jacobi | Kernel::Resid => {
            let space = IterSpace::interior(n, n, nk);
            match tile {
                None => for_each(space, push),
                Some((ti, tj)) => for_each_tiled(space, TileDims::new(ti, tj), push),
            }
        }
        Kernel::RedBlack => {
            let sched = match tile {
                None => redblack::Schedule::Naive,
                Some((ti, tj)) => redblack::Schedule::Tiled(TileDims::new(ti, tj)),
            };
            redblack::visit(n, nk, sched, push);
        }
    }
    pts
}

/// Checks that `order` is a permutation of the interior of an
/// `n x n x nk` grid: every interior point exactly once, nothing else.
pub fn check_permutation(
    order: &[(usize, usize, usize)],
    n: usize,
    nk: usize,
) -> Result<(), String> {
    let interior = (n - 2) * (n - 2) * (nk - 2);
    if order.len() != interior {
        return Err(format!(
            "visited {} points, interior has {interior}",
            order.len()
        ));
    }
    let mut seen = vec![false; interior];
    for &(i, j, k) in order {
        if !(1..=n - 2).contains(&i) || !(1..=n - 2).contains(&j) || !(1..=nk - 2).contains(&k) {
            return Err(format!("({i},{j},{k}) is outside the interior"));
        }
        let idx = (i - 1) + (j - 1) * (n - 2) + (k - 1) * (n - 2) * (n - 2);
        if seen[idx] {
            return Err(format!("({i},{j},{k}) visited twice"));
        }
        seen[idx] = true;
    }
    Ok(())
}

/// Checks the red-black dependence order on an executed `order`: every red
/// point (odd 0-based coordinate sum) must be visited before each of its
/// interior face-adjacent black neighbours. One constraint covers both
/// certified dependence families — see the module docs.
pub fn check_redblack_order(order: &[(usize, usize, usize)]) -> Result<(), String> {
    let ts: HashMap<(usize, usize, usize), usize> =
        order.iter().enumerate().map(|(t, &p)| (p, t)).collect();
    for (&(i, j, k), &t_red) in &ts {
        if (i + j + k) % 2 == 0 {
            continue; // black; its constraints are checked from the red side
        }
        let neighbours = [
            (i.wrapping_sub(1), j, k),
            (i + 1, j, k),
            (i, j.wrapping_sub(1), k),
            (i, j + 1, k),
            (i, j, k.wrapping_sub(1)),
            (i, j, k + 1),
        ];
        for q in neighbours {
            if let Some(&t_black) = ts.get(&q) {
                if t_black < t_red {
                    return Err(format!(
                        "black {q:?} at step {t_black} ran before adjacent red \
                         ({i},{j},{k}) at step {t_red}: in-place red-black \
                         dependence violated"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Full dynamic cross-check for a kernel's transformed schedule: replays
/// the visit order and applies every property the certificate implies.
pub fn check_schedule(
    kernel: Kernel,
    n: usize,
    nk: usize,
    tile: Option<(usize, usize)>,
) -> Result<(), String> {
    let order = visit_order(kernel, n, nk, tile);
    check_permutation(&order, n, nk)?;
    if kernel == Kernel::RedBlack {
        check_redblack_order(&order)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_and_tile_passes_the_dynamic_check() {
        for kernel in Kernel::ALL {
            for tile in [None, Some((4, 3)), Some((1, 1)), Some((100, 100))] {
                check_schedule(kernel, 12, 8, tile)
                    .unwrap_or_else(|e| panic!("{} {tile:?}: {e}", kernel.name()));
            }
        }
    }

    #[test]
    fn permutation_check_catches_drops_and_duplicates() {
        let mut order = visit_order(Kernel::Jacobi, 8, 8, Some((3, 3)));
        let dropped = order.pop().unwrap();
        assert!(check_permutation(&order, 8, 8).is_err());
        // Same length, one point replaced by a duplicate of another.
        order.push(order[0]);
        assert!(check_permutation(&order, 8, 8)
            .unwrap_err()
            .contains("twice"));
        *order.last_mut().unwrap() = dropped;
        check_permutation(&order, 8, 8).unwrap();
    }

    #[test]
    fn redblack_check_catches_a_rectangular_tiled_fused_order() {
        // Re-create the *illegal* schedule the analyzer rejects: the fused
        // walk tiled rectangularly over (J, I) with NO tile-origin skew.
        // The dynamic check must catch the same violation the certificate
        // witnesses statically.
        let (n, nk) = (10usize, 10usize);
        let (ti, tj) = (4usize, 4usize);
        let mut order = Vec::new();
        let mut jj = 1usize;
        while jj <= n - 2 {
            let mut ii = 1usize;
            while ii <= n - 2 {
                for kk in 0..=nk - 2 {
                    for k in [kk + 1, kk] {
                        if !(1..=nk - 2).contains(&k) {
                            continue;
                        }
                        let parity = if k == kk + 1 { 0 } else { 1 };
                        for j in jj..=(jj + tj - 1).min(n - 2) {
                            let mut i = ii + (1 + ii + k + j + parity) % 2;
                            while i <= (ii + ti - 1).min(n - 2) {
                                order.push((i, j, k));
                                i += 2;
                            }
                        }
                    }
                }
                ii += ti;
            }
            jj += tj;
        }
        check_permutation(&order, n, nk).unwrap();
        let err = check_redblack_order(&order).unwrap_err();
        assert!(err.contains("dependence violated"), "{err}");
    }

    #[test]
    fn naive_and_fused_redblack_orders_are_dependence_clean() {
        for sched in [redblack::Schedule::Naive, redblack::Schedule::Fused] {
            let mut order = Vec::new();
            redblack::visit(11, 9, sched, |i, j, k| order.push((i, j, k)));
            check_permutation(&order, 11, 9).unwrap();
            check_redblack_order(&order).unwrap();
        }
    }
}
