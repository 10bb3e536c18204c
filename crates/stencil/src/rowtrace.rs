//! The trace walk of the unit-stride kernels (JACOBI, RESID): the rows of
//! [`for_each_rows`](tiling3d_loopnest::for_each_rows) or
//! [`for_each_tiled_rows`](tiling3d_loopnest::for_each_tiled_rows), one
//! [`AccessSink::row`] call each, except that a tile narrower than
//! [`MIN_PLANNED_POINTS`] groups its rows into rows of composite points.

use tiling3d_cachesim::{AccessSink, RowShape, MIN_PLANNED_POINTS};
use tiling3d_loopnest::{IterSpace, TileDims};

/// Replays a sweep of `space` in which point `(i, j, k)` issues `shape`'s
/// slots at byte `8 * (i + j * di + k * ps)`, in the Fig 6 tiled order, or
/// in the original order when `tile` is `None` (one tile covering each
/// plane). The access order is the per-point order of the schedule.
///
/// A tile `w` points wide gives rows of `w` points. When `w` is below
/// [`MIN_PLANNED_POINTS`], a row is instead a *composite* point: `w` copies
/// of `shape`'s slots, 8 bytes apart ([`RowShape::append`]). Each
/// tile-plane is then one row of composite points stepping one row
/// (`8 * di`), and a tile one row high is one row per tile column,
/// stepping one plane (`8 * ps`). A 1×1 tile is one row per K-column.
pub(crate) fn sweep<S: AccessSink>(
    space: IterSpace,
    tile: Option<TileDims>,
    di: usize,
    ps: usize,
    shape: &RowShape,
    sink: &mut S,
) {
    let (i0, j0, k0) = space.lo;
    let (i1, j1, k1) = space.hi;
    let tile = tile.unwrap_or(TileDims::new(i1 - i0 + 1, j1 - j0 + 1));
    let at = |i: usize, j: usize, k: usize| ((i + j * di + k * ps) * 8) as u64;
    // `narrow(step)[w - 1]`: `w` consecutive points, `step` elements to
    // the next composite point.
    let narrow = |step: usize| -> Vec<RowShape> {
        (1..MIN_PLANNED_POINTS as i64)
            .map(|w| {
                (0..w).fold(RowShape::new(8 * step as i64), |c, x| {
                    c.append(shape, 8 * x)
                })
            })
            .collect()
    };
    let (by_row, by_plane) = (narrow(di), narrow(ps));
    for jj in (j0..=j1).step_by(tile.tj) {
        let j_hi = (jj + tile.tj - 1).min(j1);
        for ii in (i0..=i1).step_by(tile.ti) {
            let w = (ii + tile.ti - 1).min(i1) - ii + 1;
            if w >= MIN_PLANNED_POINTS {
                for k in k0..=k1 {
                    for j in jj..=j_hi {
                        sink.row(shape, at(ii, j, k), w);
                    }
                }
            } else if j_hi == jj {
                sink.row(&by_plane[w - 1], at(ii, jj, k0), k1 - k0 + 1);
            } else {
                for k in k0..=k1 {
                    sink.row(&by_row[w - 1], at(ii, jj, k), j_hi - jj + 1);
                }
            }
        }
    }
}
