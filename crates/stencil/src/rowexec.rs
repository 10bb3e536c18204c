//! Row kernels: the bounds-check-free compute layer of the row engine.
//!
//! Every function here updates one contiguous row segment.
//! A 3D kernel takes three things: the destination row (for red-black,
//! the plane it updates in place), the source planes `K-1`, `K` and `K+1`
//! it reads, and the row's plane-local offset `at = j * di + i0` (a 2D
//! kernel takes its one plane and `at`). It cuts
//! its own neighbour slices from the planes, each to the exact length it
//! will touch, before the loop, so the optimizer can hoist all bounds
//! checks out of the loop and autovectorize the `I` walk. Executors only
//! pick planes: no other module computes a neighbour offset. The
//! floating-point expression (operand order included) is copied verbatim
//! from the per-point reference in [`reference`](crate::reference), which
//! keeps the engine bit-identical to it. MGRID's smoother, restriction
//! and prolongation rows (`psinv_row`, `rprj3_row`, `interp_row`) keep
//! the expressions of the multigrid crate's former per-point loops, which
//! its `row_golden` test carries as their specification.
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

/// Planes `k - 1`, `k` and `k + 1` of a flat array with plane stride `ps`
/// — the source operand of a whole-array row update.
#[inline]
pub fn planes(v: &[f64], k: usize, ps: usize) -> [&[f64]; 3] {
    [
        &v[(k - 1) * ps..k * ps],
        &v[k * ps..(k + 1) * ps],
        &v[(k + 1) * ps..(k + 2) * ps],
    ]
}

/// Splits `a` into its outermost planes `[0, nk - 1]`, which no sweep
/// writes, and the interior planes `1..=nk-2` between them.
pub(crate) fn split_interior(a: &mut Array3<f64>) -> ([&[f64]; 2], &mut [f64]) {
    let ps = a.plane_stride();
    let (head, rest) = a.as_mut_slice().split_at_mut(ps);
    let (interior, tail) = rest.split_at_mut(rest.len() - ps);
    ([head, tail], interior)
}

/// Splits plane `l` of the consecutive planes in `slab` off for an in-place
/// update and returns it with its two neighbours: planes `l - 1` and
/// `l + 1` of the slab, or `outer[0]` / `outer[1]` past the slab's first /
/// last plane.
#[inline]
pub(crate) fn split_plane<'a>(
    slab: &'a mut [f64],
    l: usize,
    ps: usize,
    outer: [&'a [f64]; 2],
) -> (&'a mut [f64], [&'a [f64]; 2]) {
    let (below, rest) = slab.split_at_mut(l * ps);
    let (plane, above) = rest.split_at_mut(ps);
    let (below, above): (&[f64], &[f64]) = (below, above);
    let down = if l == 0 {
        outer[0]
    } else {
        &below[(l - 1) * ps..]
    };
    let up = if above.is_empty() {
        outer[1]
    } else {
        &above[..ps]
    };
    (plane, [down, up])
}

/// One Jacobi 3D row: `dst[x] = c * (w + e + n + s + d + u)` at plane-local
/// offset `at + x`, reading west/east/north/south from plane `K` and
/// down/up from planes `K-1` / `K+1` of `src` (`[K-1, K, K+1]`, row stride
/// `di`).
#[inline(never)]
pub fn jacobi3d_row(dst: &mut [f64], src: [&[f64]; 3], at: usize, di: usize, c: f64) {
    let len = dst.len();
    let [d, ctr, u] = src;
    let (w, e) = (&ctr[at - 1..][..len], &ctr[at + 1..][..len]);
    let (n, s) = (&ctr[at - di..][..len], &ctr[at + di..][..len]);
    let (d, u) = (&d[at..][..len], &u[at..][..len]);
    for i in 0..len {
        dst[i] = c * (w[i] + e[i] + n[i] + s[i] + d[i] + u[i]);
    }
}

/// One Jacobi 2D row: `dst[x] = c * (w + e + n + s)` at offset `at + x`
/// of `src` (row stride `di`).
#[inline(never)]
pub fn jacobi2d_row(dst: &mut [f64], src: &[f64], at: usize, di: usize, c: f64) {
    let len = dst.len();
    let (w, e) = (&src[at - 1..][..len], &src[at + 1..][..len]);
    let (n, s) = (&src[at - di..][..len], &src[at + di..][..len]);
    for i in 0..len {
        dst[i] = c * (w[i] + e[i] + n[i] + s[i]);
    }
}

/// One RESID row at plane-local offset `at`: `dst[x] = v[x] - A u` over
/// the 27-point box of `u` (`[K-1, K, K+1]`, row stride `di`). `v` starts
/// at the output row.
///
/// Cuts the nine unit-stride `U` rows and hands them to the outlined
/// kernel: as nine separate parameters the loop keeps the codegen of the
/// per-operand form, which slicing inside the kernel loses (~13% on
/// untiled 128² rows, DESIGN.md §12).
#[inline]
pub fn resid_row(dst: &mut [f64], v: &[f64], u: [&[f64]; 3], at: usize, di: usize, c: &Coeffs) {
    if dst.is_empty() {
        return;
    }
    resid_row9(dst, v, box_rows(u, at, di), c);
}

/// The nine rows of the 27-point box around the row at plane-local offset
/// `at` of `planes` (`[K-1, K, K+1]`, row stride `di`), index
/// `(dk + 1) * 3 + (dj + 1)` holding the row at `(j + dj, k + dk)`. Each
/// starts one element left of `at`, so offsets -1/0/+1 along I from the
/// point at `at + p` become indices `p`, `p + 1`, `p + 2`.
#[inline]
fn box_rows(planes: [&[f64]; 3], at: usize, di: usize) -> [&[f64]; 9] {
    let x0 = at - 1;
    let [[nd, cd, sd], [nc, cc, sc], [nu, cu, su]] =
        planes.map(|p| [&p[x0 - di..], &p[x0..], &p[x0 + di..]]);
    [nd, cd, sd, nc, cc, sc, nu, cu, su]
}

/// The face, edge and corner sums `[s1, s2, s3]` of the 27-point box
/// centred on index `p + 1` of the nine [`box_rows`]: `s1` over the 6
/// faces, `s2` over the 12 edges, `s3` over the 8 corners, each starting
/// from `0.0` and adding in the offset-table order of
/// [`resid`](crate::resid) (the order [`resid_row9`] spells out).
#[inline(always)]
fn box_sums(rows: &[&[f64]; 9], p: usize) -> [f64; 3] {
    let [nd, cd, sd, nc, cc, sc, nu, cu, su] = rows;
    let mut s1 = 0.0;
    s1 += cc[p];
    s1 += cc[p + 2];
    s1 += nc[p + 1];
    s1 += sc[p + 1];
    s1 += cd[p + 1];
    s1 += cu[p + 1];
    let mut s2 = 0.0;
    s2 += nc[p];
    s2 += nc[p + 2];
    s2 += sc[p];
    s2 += sc[p + 2];
    s2 += nd[p + 1];
    s2 += sd[p + 1];
    s2 += nu[p + 1];
    s2 += su[p + 1];
    s2 += cd[p];
    s2 += cu[p];
    s2 += cd[p + 2];
    s2 += cu[p + 2];
    let mut s3 = 0.0;
    s3 += nd[p];
    s3 += nd[p + 2];
    s3 += sd[p];
    s3 += sd[p + 2];
    s3 += nu[p];
    s3 += nu[p + 2];
    s3 += su[p];
    s3 += su[p + 2];
    [s1, s2, s3]
}

/// The RESID row loop over the nine `U` rows of [`resid_row`], index
/// `(dk + 1) * 3 + (dj + 1)` holding the row at `(j + dj, k + dk)`.
/// Accumulation order matches the reference exactly: `s1` over the 6
/// faces, `s2` over the 12 edges, `s3` over the 8 corners, each starting
/// from `0.0` and adding in the offset-table order of
/// [`resid`](crate::resid).
#[inline(never)]
fn resid_row9(dst: &mut [f64], v: &[f64], rows: [&[f64]; 9], c: &Coeffs) {
    let len = dst.len();
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

/// One row of MGRID's `psinv` smoother at plane-local offset `at`:
/// `dst[x] += c0 * ctr + c1 * s1 + c2 * s2 + c3 * s3` over the 27-point
/// box of `r` (`[K-1, K, K+1]`, row stride `di`), with `c = [c0, c1, c2,
/// c3]` and the face, edge and corner sums of `box_sums`.
///
/// Cuts the nine `R` rows and hands them to the outlined loop, as
/// [`resid_row`] does.
#[inline]
pub fn psinv_row(dst: &mut [f64], r: [&[f64]; 3], at: usize, di: usize, c: [f64; 4]) {
    if dst.is_empty() {
        return;
    }
    psinv_row9(dst, box_rows(r, at, di), c);
}

/// The `psinv` row loop over the nine rows of [`psinv_row`].
#[inline(never)]
fn psinv_row9(dst: &mut [f64], rows: [&[f64]; 9], c: [f64; 4]) {
    let len = dst.len();
    let rows = rows.map(|r| &r[..len + 2]);
    let [c0, c1, c2, c3] = c;
    for x in 0..len {
        let [s1, s2, s3] = box_sums(&rows, x);
        dst[x] += c0 * rows[4][x + 1] + c1 * s1 + c2 * s2 + c3 * s3;
    }
}

/// One coarse row of MGRID's full-weighting restriction `rprj3`: coarse
/// point `t` gathers the 27-point box of the fine point at plane-local
/// offset `at + 2 * t` of `fine` (fine planes `[2kc-1, 2kc, 2kc+1]`, row
/// stride `di`), `dst[t] = 0.5 * ctr + 0.25 * faces + 0.125 * edges +
/// 0.0625 * corners` with the sums of `box_sums`. For coarse row
/// `(jc, kc)` from coarse `i = 1`, `at = 2 * jc * di + 2`.
#[inline]
pub fn rprj3_row(dst: &mut [f64], fine: [&[f64]; 3], at: usize, di: usize) {
    if dst.is_empty() {
        return;
    }
    rprj3_row9(dst, box_rows(fine, at, di));
}

/// The `rprj3` row loop over the nine fine rows of [`rprj3_row`], read at
/// stride 2.
#[inline(never)]
fn rprj3_row9(dst: &mut [f64], rows: [&[f64]; 9]) {
    let len = dst.len();
    let rows = rows.map(|r| &r[..2 * len + 1]);
    for (t, d) in dst.iter_mut().enumerate() {
        let p = 2 * t;
        let [s1, s2, s3] = box_sums(&rows, p);
        *d = 0.5 * rows[4][p + 1] + 0.25 * s1 + 0.125 * s2 + 0.0625 * s3;
    }
}

/// One coarse row's share of MGRID's trilinear prolongation `interp`:
/// adds its terms, weighted by the row's J-by-K weight `w`, into the fine
/// row accumulator `acc` (fine `i = 1..=acc.len()`, an even length).
/// `coarse` starts at coarse `i = 0`. An odd fine `i` adds
/// `(w * 0.5) * c[i / 2]` and then `(w * 0.5) * c[i / 2 + 1]`; an even
/// `i` adds `(w * 1.0) * c[i / 2]`.
#[inline(never)]
pub fn interp_row(acc: &mut [f64], coarse: &[f64], w: f64) {
    let mc = acc.len() / 2;
    let (lo, hi) = (&coarse[..mc], &coarse[1..mc + 1]);
    let (half, whole) = (w * 0.5, w * 1.0);
    for ((pair, &a), &b) in acc.chunks_exact_mut(2).zip(lo).zip(hi) {
        pair[0] += half * a;
        pair[0] += half * b;
        pair[1] += whole * b;
    }
}

/// One red-black row of `plane`, updated in place: over the
/// `scratch.len()`-point segment from plane-local offset `at`, the points
/// at `at, at + 2, ...` become `c1 * centre + c2 * (w + n + e + s + d +
/// u)`, with down/up read from `nbr` (`[K-1, K+1]`, row stride `di`), and
/// the points between them keep their bits.
///
/// One unit-stride loop computes every point of the segment into
/// `scratch`, and a parity select (never arithmetic) keeps the other
/// colour's own value; one copy writes the segment back. Every `w`/`e`
/// read of an updated point lands on the other colour, which the pass
/// never changes, so the split is bit-identical to the in-place per-point
/// reference.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
pub fn redblack_row(
    plane: &mut [f64],
    nbr: [&[f64]; 2],
    at: usize,
    di: usize,
    scratch: &mut [f64],
    c1: f64,
    c2: f64,
) {
    let l = scratch.len();
    if l == 0 {
        return;
    }
    {
        let p: &[f64] = plane;
        let (ctr, w, e) = (&p[at..][..l], &p[at - 1..][..l], &p[at + 1..][..l]);
        let (n, s) = (&p[at - di..][..l], &p[at + di..][..l]);
        let (d, u) = (&nbr[0][at..][..l], &nbr[1][at..][..l]);
        for x in 0..l {
            let v = c1 * ctr[x] + c2 * (w[x] + n[x] + e[x] + s[x] + d[x] + u[x]);
            scratch[x] = if x.is_multiple_of(2) { v } else { ctr[x] };
        }
    }
    plane[at..][..l].copy_from_slice(scratch);
}

/// 2D variant of [`redblack_row`] (no down/up planes): over the
/// `scratch.len()`-point segment of `plane` from offset `at` (row stride
/// `di`), the points at `at, at + 2, ...` become `c1 * centre + c2 * (w +
/// n + e + s)`, in the same contiguous-select form.
#[inline(never)]
pub fn redblack2d_row(
    plane: &mut [f64],
    at: usize,
    di: usize,
    scratch: &mut [f64],
    c1: f64,
    c2: f64,
) {
    let l = scratch.len();
    if l == 0 {
        return;
    }
    {
        let p: &[f64] = plane;
        let (ctr, w, e) = (&p[at..][..l], &p[at - 1..][..l], &p[at + 1..][..l]);
        let (n, s) = (&p[at - di..][..l], &p[at + di..][..l]);
        for x in 0..l {
            let v = c1 * ctr[x] + c2 * (w[x] + n[x] + e[x] + s[x]);
            scratch[x] = if x.is_multiple_of(2) { v } else { ctr[x] };
        }
    }
    plane[at..][..l].copy_from_slice(scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiling3d_grid::Xorshift64;

    /// Off-colour values the parity select must keep bit for bit: an
    /// arithmetic blend such as `(1.0 - keep) * v + keep * ctr` turns
    /// `-0.0` into `+0.0` and changes infinities and NaN payloads.
    const SPECIAL: [f64; 7] = [
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -3.25,
        f64::from_bits(0x7ff8_0000_dead_beef),
        -1e-300,
    ];

    /// `true` when `got` is `want` bit for bit, or both are NaN: Rust
    /// leaves the payload of a NaN that arithmetic produces unspecified.
    fn same(got: f64, want: f64) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    /// Runs one red-black row kernel over the `2m - 1`-point segment that
    /// starts at column `i0` of the middle row of a three-row plane (row
    /// stride `di`, the segment ending one column before the row's last
    /// logical point `ni - 1 = i0 + 2m - 1`). Off-colour points hold
    /// [`SPECIAL`] values; every other plane point, rows `j ± 1` and the
    /// padding included, holds a distinct finite sentinel. `expect(p, x)`
    /// is the per-point expression for the point at plane offset `x`.
    fn check_row(
        m: usize,
        i0: usize,
        pad: usize,
        run: impl Fn(&mut [f64], usize, usize, &mut [f64]),
        expect: impl Fn(&[f64], usize, usize) -> f64,
    ) {
        let l = 2 * m - 1;
        let di = i0 + l + 1 + pad;
        let at = di + i0;
        let mut rng = Xorshift64::new((m * 131 + i0 * 7 + pad) as u64);
        let mut plane: Vec<f64> = (0..3 * di).map(|_| 0.5 + rng.next_f64()).collect();
        for (t, x) in (at + 1..at + l).step_by(2).enumerate() {
            plane[x] = SPECIAL[t % SPECIAL.len()];
        }
        let before = plane.clone();
        let mut scratch = vec![f64::NAN; l];
        run(&mut plane, at, di, &mut scratch);
        for (x, (&got, &old)) in plane.iter().zip(&before).enumerate() {
            let updated = (at..at + l).contains(&x) && (x - at).is_multiple_of(2);
            let want = if updated { expect(&before, x, di) } else { old };
            assert!(
                same(got, want),
                "m={m} i0={i0} di={di}: offset {x} is {got:e} ({:#x}), want {want:e} ({:#x})",
                got.to_bits(),
                want.to_bits()
            );
        }
    }

    #[test]
    fn redblack_rows_keep_off_colour_bits_and_update_only_their_segment() {
        let (c1, c2) = (0.4, 0.1);
        let mut rng = Xorshift64::new(17);
        for m in [1usize, 2, 3, 4, 5, 8, 9, 17] {
            for i0 in [1usize, 2] {
                for pad in [0usize, 5] {
                    let len = 3 * (i0 + 2 * m + pad);
                    let d: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
                    let u: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
                    check_row(
                        m,
                        i0,
                        pad,
                        |p, at, di, scratch| redblack_row(p, [&d, &u], at, di, scratch, c1, c2),
                        |p, x, di| {
                            c1 * p[x]
                                + c2 * (p[x - 1] + p[x - di] + p[x + 1] + p[x + di] + d[x] + u[x])
                        },
                    );
                    check_row(
                        m,
                        i0,
                        pad,
                        |p, at, di, scratch| redblack2d_row(p, at, di, scratch, c1, c2),
                        |p, x, di| c1 * p[x] + c2 * (p[x - 1] + p[x - di] + p[x + 1] + p[x + di]),
                    );
                }
            }
        }
    }
}
