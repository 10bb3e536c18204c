//! Row kernels: the bounds-check-free compute layer of the row engine.
//!
//! Every function here updates one contiguous (or stride-2) row segment.
//! The caller has already split the row into overlapping *read* slices —
//! one per stencil offset, each starting at the first point's neighbour —
//! and one disjoint *write* slice. Each kernel re-slices every source to
//! the exact length it will touch before the loop, so the optimizer can
//! hoist all bounds checks out of the loop and autovectorize the `I`
//! walk. The floating-point expression (operand order included) is
//! copied verbatim from the per-point reference in
//! [`reference`](crate::reference), which keeps the engine bit-identical
//! to it.
//!
//! The kernels stay `#[inline(never)]`: as standalone functions their
//! slice parameters get `noalias` and the vectorized loop is the same in
//! every crate that instantiates a sweep (DESIGN.md §12).

use tiling3d_grid::Array3;

use crate::resid::Coeffs;

/// Panics unless `a` and `b` share logical `(ni, nj, nk)` and allocated
/// `(di, dj)` extents — the precondition of every sweep that indexes
/// both arrays with one linear offset. `names` labels the pair in the
/// message (e.g. `"R and U"`).
pub(crate) fn check_pair(a: &Array3<f64>, b: &Array3<f64>, names: &str) {
    assert_eq!(
        (a.ni(), a.nj(), a.nk(), a.di(), a.dj()),
        (b.ni(), b.nj(), b.nk(), b.di(), b.dj()),
        "{names} must share logical and allocated extents"
    );
}

/// Emits the per-sweep observability counters shared by every engine
/// sweep: a deterministic `stencil.points_updated` counter and a
/// `stencil.flops` gauge.
pub(crate) fn note_sweep(points: u64, flops_per_point: u64) {
    if tiling3d_obs::collecting() {
        tiling3d_obs::counter_add("stencil.points_updated", points);
        tiling3d_obs::gauge_add("stencil.flops", (points * flops_per_point) as f64);
    }
}

/// One Jacobi 3D row: `dst[i] = c * (w[i] + e[i] + n[i] + s[i] + d[i] + u[i])`.
///
/// Sources are the six neighbour rows (west/east along `I`, north/south
/// along `J`, down/up along `K`), each at least `dst.len()` long.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub fn jacobi3d_row(
    dst: &mut [f64],
    w: &[f64],
    e: &[f64],
    n: &[f64],
    s: &[f64],
    d: &[f64],
    u: &[f64],
    c: f64,
) {
    let len = dst.len();
    let (w, e) = (&w[..len], &e[..len]);
    let (n, s) = (&n[..len], &s[..len]);
    let (d, u) = (&d[..len], &u[..len]);
    for i in 0..len {
        dst[i] = c * (w[i] + e[i] + n[i] + s[i] + d[i] + u[i]);
    }
}

/// One Jacobi 2D row: `dst[i] = c * (w[i] + e[i] + n[i] + s[i])`.
#[inline(never)]
pub fn jacobi2d_row(dst: &mut [f64], w: &[f64], e: &[f64], n: &[f64], s: &[f64], c: f64) {
    let len = dst.len();
    let (w, e, n, s) = (&w[..len], &e[..len], &n[..len], &s[..len]);
    for i in 0..len {
        dst[i] = c * (w[i] + e[i] + n[i] + s[i]);
    }
}

/// The nine unit-stride `U` rows a RESID row update reads: index
/// `(dk + 1) * 3 + (dj + 1)` holds the row at `(j + dj, k + dk)`, each
/// starting one element *left* of the output row (`i0 - 1`) and at least
/// `dst.len() + 2` long, so offsets `-1/0/+1` along `I` become indices
/// `x`, `x + 1`, `x + 2`.
pub type Rows9<'a> = [&'a [f64]; 9];

/// One RESID row. Accumulation order matches the reference exactly:
/// `s1` over the 6 faces, `s2` over the 12 edges, `s3` over the 8
/// corners, each starting from `0.0` and adding in the offset-table
/// order of [`resid`](crate::resid).
#[inline(never)]
pub fn resid_row(dst: &mut [f64], v: &[f64], rows: Rows9<'_>, c: &Coeffs) {
    let len = dst.len();
    if len == 0 {
        return;
    }
    let v = &v[..len];
    let h = len + 2;
    let [nd, cd, sd, nc, cc, sc, nu, cu, su] = rows.map(|r| &r[..h]);
    for x in 0..len {
        let mut s1 = 0.0;
        s1 += cc[x];
        s1 += cc[x + 2];
        s1 += nc[x + 1];
        s1 += sc[x + 1];
        s1 += cd[x + 1];
        s1 += cu[x + 1];
        let mut s2 = 0.0;
        s2 += nc[x];
        s2 += nc[x + 2];
        s2 += sc[x];
        s2 += sc[x + 2];
        s2 += nd[x + 1];
        s2 += sd[x + 1];
        s2 += nu[x + 1];
        s2 += su[x + 1];
        s2 += cd[x];
        s2 += cu[x];
        s2 += cd[x + 2];
        s2 += cu[x + 2];
        let mut s3 = 0.0;
        s3 += nd[x];
        s3 += nd[x + 2];
        s3 += sd[x];
        s3 += sd[x + 2];
        s3 += nu[x];
        s3 += nu[x + 2];
        s3 += su[x];
        s3 += su[x + 2];
        dst[x] = v[x] - c.a0 * cc[x + 1] - c.a1 * s1 - c.a2 * s2 - c.a3 * s3;
    }
}

/// Computes the new values of one stride-2 red-black row into `scratch`
/// (one slot per updated point, in row order). Sources all start at the
/// first updated point plus their stencil offset, so update `t` reads
/// index `2 * t`; each must be at least `2 * scratch.len() - 1` long.
///
/// The caller scatters `scratch` back with [`scatter_stride2`] *after*
/// this returns; because every in-row read (`w`/`e` at `±1`) lands on the
/// opposite color, the split never observes its own writes and stays
/// bit-identical to the in-place per-point reference.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub fn redblack_row(
    scratch: &mut [f64],
    ctr: &[f64],
    w: &[f64],
    n: &[f64],
    e: &[f64],
    s: &[f64],
    d: &[f64],
    u: &[f64],
    c1: f64,
    c2: f64,
) {
    let m = scratch.len();
    if m == 0 {
        return;
    }
    let l = 2 * m - 1;
    let (ctr, w, n) = (&ctr[..l], &w[..l], &n[..l]);
    let (e, s) = (&e[..l], &s[..l]);
    let (d, u) = (&d[..l], &u[..l]);
    for (t, slot) in scratch.iter_mut().enumerate() {
        let x = 2 * t;
        *slot = c1 * ctr[x] + c2 * (w[x] + n[x] + e[x] + s[x] + d[x] + u[x]);
    }
}

/// 2D variant of [`redblack_row`] (no down/up planes).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub fn redblack2d_row(
    scratch: &mut [f64],
    ctr: &[f64],
    w: &[f64],
    n: &[f64],
    e: &[f64],
    s: &[f64],
    c1: f64,
    c2: f64,
) {
    let m = scratch.len();
    if m == 0 {
        return;
    }
    let l = 2 * m - 1;
    let (ctr, w) = (&ctr[..l], &w[..l]);
    let (n, e, s) = (&n[..l], &e[..l], &s[..l]);
    for (t, slot) in scratch.iter_mut().enumerate() {
        let x = 2 * t;
        *slot = c1 * ctr[x] + c2 * (w[x] + n[x] + e[x] + s[x]);
    }
}

/// Writes `scratch[t]` to `row[2 * t]` — the scatter half of a stride-2
/// red-black row update.
#[inline]
pub fn scatter_stride2(row: &mut [f64], scratch: &[f64]) {
    let m = scratch.len();
    if m == 0 {
        return;
    }
    let row = &mut row[..2 * m - 1];
    for t in 0..m {
        row[2 * t] = scratch[t];
    }
}
