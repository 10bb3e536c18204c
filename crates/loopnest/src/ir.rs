//! A small loop-nest IR with strip-mine/permute transformations and a
//! trace-emitting interpreter.
//!
//! The IR covers exactly the program class the paper transforms: perfect
//! rectangular 3D nests whose body performs stencil reads (constant offsets
//! from the induction variables) and one or more writes. Tiling is performed
//! the way a compiler would — [`Nest::strip_mine`] then [`Nest::permute`] —
//! and [`Nest::tile_jj_ii`] packages the paper's Fig 6 schedule. The
//! interpreter ([`Nest::execute`]) replays the transformed nest's exact
//! address stream into an [`AccessSink`], which is how the workspace
//! cross-checks the hand-tiled kernels in `tiling3d-stencil` against the
//! "compiler-generated" schedule.

use tiling3d_cachesim::AccessSink;

/// Loop dimension identity: which induction variable a loop binds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Unit-stride (innermost in the source nest) dimension.
    I,
    /// Middle dimension.
    J,
    /// Outermost dimension (plane index).
    K,
}

impl Dim {
    fn index(self) -> usize {
        match self {
            Dim::I => 0,
            Dim::J => 1,
            Dim::K => 2,
        }
    }
}

/// What kind of loop this is after transformation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopKind {
    /// An ordinary `do v = lo, hi` loop.
    Range,
    /// A tile-controlling loop `do vv = lo, hi, step` produced by
    /// strip-mining.
    TileControl {
        /// Tile width (the strip-mine factor).
        step: usize,
    },
    /// The matching tile-body loop `do v = vv, min(vv+width-1, hi)`.
    TileBody {
        /// Tile width; must equal the controller's `step`.
        width: usize,
    },
}

/// One loop level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Loop {
    /// Which induction variable this level binds.
    pub dim: Dim,
    /// Plain range, tile controller, or tile body.
    pub kind: LoopKind,
    /// Inclusive lower bound (ignored by `TileBody`, which starts at the
    /// controller's current value).
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

/// A stencil-class array reference: `array[I + off.0, J + off.1, K + off.2]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayRef {
    /// Index into the `ArrayDesc` table passed to [`Nest::execute`].
    pub array: usize,
    /// Constant offsets from `(I, J, K)`.
    pub off: (i32, i32, i32),
    /// True for a store, false for a load.
    pub write: bool,
}

/// Storage description of one array for trace generation: base byte address
/// and allocated (possibly padded) dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayDesc {
    /// Byte address of element `(0, 0, 0)`.
    pub base: u64,
    /// Allocated leading dimension (column stride, elements).
    pub di: usize,
    /// Allocated middle dimension (`di * dj` = plane stride, elements).
    pub dj: usize,
    /// Allocated depth (number of planes); `di * dj * dk` elements total.
    pub dk: usize,
}

impl ArrayDesc {
    /// Byte address of logical element `(i, j, k)`.
    #[inline]
    pub fn addr(&self, i: i64, j: i64, k: i64) -> u64 {
        let off = i + (self.di as i64) * (j + (self.dj as i64) * k);
        debug_assert!(off >= 0, "negative element offset: ({i},{j},{k})");
        self.base + 8 * off as u64
    }
}

/// A perfect loop nest over stencil-class references.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Nest {
    /// Loop levels, outermost first.
    pub loops: Vec<Loop>,
    /// Body references, executed in order at each iteration point.
    pub refs: Vec<ArrayRef>,
}

impl Nest {
    /// Builds the canonical source nest `do K / do J / do I` over the given
    /// inclusive bounds with the given body references.
    pub fn source(i: (i64, i64), j: (i64, i64), k: (i64, i64), refs: Vec<ArrayRef>) -> Self {
        Nest {
            loops: vec![
                Loop {
                    dim: Dim::K,
                    kind: LoopKind::Range,
                    lo: k.0,
                    hi: k.1,
                },
                Loop {
                    dim: Dim::J,
                    kind: LoopKind::Range,
                    lo: j.0,
                    hi: j.1,
                },
                Loop {
                    dim: Dim::I,
                    kind: LoopKind::Range,
                    lo: i.0,
                    hi: i.1,
                },
            ],
            refs,
        }
    }

    /// A convenience constructor: the source nest of a stencil kernel
    /// reading `input` at each shape offset then writing `output` at the
    /// centre — the `A(I,J,K) = f(B(I±..,J±..,K±..))` pattern of Fig 3.
    pub fn stencil(
        shape: &crate::shape::StencilShape,
        bounds_i: (i64, i64),
        bounds_j: (i64, i64),
        bounds_k: (i64, i64),
        input: usize,
        output: usize,
    ) -> Self {
        let mut refs: Vec<ArrayRef> = shape
            .offsets()
            .iter()
            .map(|&off| ArrayRef {
                array: input,
                off,
                write: false,
            })
            .collect();
        refs.push(ArrayRef {
            array: output,
            off: (0, 0, 0),
            write: true,
        });
        Self::source(bounds_i, bounds_j, bounds_k, refs)
    }

    /// Strip-mines the (unique) `Range` loop binding `dim` into a
    /// `TileControl` / `TileBody` pair in place (controller immediately
    /// outside the body, so semantics are unchanged).
    ///
    /// # Panics
    /// Panics if no plain `Range` loop binds `dim`, or `width == 0`.
    pub fn strip_mine(&mut self, dim: Dim, width: usize) {
        assert!(width > 0, "strip-mine width must be nonzero");
        let pos = self
            .loops
            .iter()
            .position(|l| l.dim == dim && l.kind == LoopKind::Range)
            .unwrap_or_else(|| panic!("no Range loop binds {dim:?}"));
        let orig = self.loops[pos];
        self.loops[pos] = Loop {
            kind: LoopKind::TileControl { step: width },
            ..orig
        };
        self.loops.insert(
            pos + 1,
            Loop {
                kind: LoopKind::TileBody { width },
                ..orig
            },
        );
    }

    /// Reorders the loop levels to the given permutation of current
    /// positions (outermost first).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation, or if the result places a
    /// `TileBody` outside its `TileControl` (which would change semantics).
    pub fn permute(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.loops.len(), "permutation length mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "not a permutation: {perm:?}");
            seen[p] = true;
        }
        let new: Vec<Loop> = perm.iter().map(|&p| self.loops[p]).collect();
        // Validate: each TileBody has its controller somewhere above it.
        for (pos, l) in new.iter().enumerate() {
            if let LoopKind::TileBody { .. } = l.kind {
                let ok = new[..pos]
                    .iter()
                    .any(|c| c.dim == l.dim && matches!(c.kind, LoopKind::TileControl { .. }));
                assert!(
                    ok,
                    "TileBody for {:?} would run outside its controller",
                    l.dim
                );
            }
        }
        self.loops = new;
    }

    /// The paper's Fig 6 transformation: strip-mine `J` by `tj` and `I` by
    /// `ti`, then permute the two tile-controlling loops outermost,
    /// producing `JJ / II / K / J / I`.
    ///
    /// # Panics
    /// Panics unless `self` is the canonical 3-deep `K/J/I` source nest.
    pub fn tile_jj_ii(&mut self, ti: usize, tj: usize) {
        assert_eq!(self.loops.len(), 3, "tile_jj_ii expects the source nest");
        assert_eq!(
            self.loops.iter().map(|l| l.dim).collect::<Vec<_>>(),
            vec![Dim::K, Dim::J, Dim::I],
            "tile_jj_ii expects K/J/I loop order"
        );
        self.strip_mine(Dim::J, tj); // K, JJ, J, I
        self.strip_mine(Dim::I, ti); // K, JJ, J, II, I
        self.permute(&[1, 3, 0, 2, 4]); // JJ, II, K, J, I
    }

    /// Walks the iteration points of the (possibly transformed) nest in
    /// execution order.
    pub fn for_each_point(&self, mut body: impl FnMut(i64, i64, i64)) {
        // env[dim] = current body value; ctrl[dim] = current controller value.
        let mut env = [0i64; 3];
        let mut ctrl = [0i64; 3];
        self.walk(0, &mut env, &mut ctrl, &mut body);
    }

    fn walk(
        &self,
        level: usize,
        env: &mut [i64; 3],
        ctrl: &mut [i64; 3],
        body: &mut impl FnMut(i64, i64, i64),
    ) {
        if level == self.loops.len() {
            body(env[0], env[1], env[2]);
            return;
        }
        let l = self.loops[level];
        let d = l.dim.index();
        match l.kind {
            LoopKind::Range => {
                for v in l.lo..=l.hi {
                    env[d] = v;
                    self.walk(level + 1, env, ctrl, body);
                }
            }
            LoopKind::TileControl { step } => {
                let mut v = l.lo;
                while v <= l.hi {
                    ctrl[d] = v;
                    self.walk(level + 1, env, ctrl, body);
                    v += step as i64;
                }
            }
            LoopKind::TileBody { width } => {
                let hi = (ctrl[d] + width as i64 - 1).min(l.hi);
                for v in ctrl[d]..=hi {
                    env[d] = v;
                    self.walk(level + 1, env, ctrl, body);
                }
            }
        }
    }

    /// Replays the nest's exact memory trace: at each iteration point the
    /// body references fire in order against the given array layouts.
    pub fn execute<S: AccessSink>(&self, arrays: &[ArrayDesc], sink: &mut S) {
        self.for_each_point(|i, j, k| {
            for r in &self.refs {
                let a = &arrays[r.array];
                let addr = a.addr(
                    i + i64::from(r.off.0),
                    j + i64::from(r.off.1),
                    k + i64::from(r.off.2),
                );
                if r.write {
                    sink.write(addr);
                } else {
                    sink.read(addr);
                }
            }
        });
    }

    /// Total number of iteration points (bounds-derived; walks tiles but not
    /// points, so this is cheap even for huge nests... it simply walks the
    /// point lattice analytically for `Range` loops and tile arithmetic for
    /// strip-mined pairs).
    pub fn point_count(&self) -> u64 {
        // Every dim is covered by either one Range loop or a
        // TileControl/TileBody pair that together scan lo..=hi exactly once.
        let mut count = 1u64;
        for l in &self.loops {
            match l.kind {
                LoopKind::Range | LoopKind::TileControl { .. } => {
                    if matches!(l.kind, LoopKind::Range) {
                        count *= (l.hi - l.lo + 1).max(0) as u64;
                    }
                }
                LoopKind::TileBody { .. } => {
                    count *= (l.hi - l.lo + 1).max(0) as u64;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::StencilShape;
    use tiling3d_cachesim::CountingSink;

    fn jacobi_nest(n: i64) -> Nest {
        Nest::stencil(
            &StencilShape::jacobi3d(),
            (1, n - 2),
            (1, n - 2),
            (1, n - 2),
            0,
            1,
        )
    }

    #[test]
    fn source_nest_walks_kji_order() {
        let nest = Nest::source((0, 1), (0, 1), (0, 1), vec![]);
        let mut pts = Vec::new();
        nest.for_each_point(|i, j, k| pts.push((i, j, k)));
        assert_eq!(pts[0], (0, 0, 0));
        assert_eq!(pts[1], (1, 0, 0)); // I innermost
        assert_eq!(pts[2], (0, 1, 0));
        assert_eq!(pts.len(), 8);
    }

    #[test]
    fn tiling_preserves_the_iteration_set() {
        let mut tiled = jacobi_nest(12);
        let orig = tiled.clone();
        tiled.tile_jj_ii(3, 4);
        let mut a: Vec<_> = Vec::new();
        let mut b: Vec<_> = Vec::new();
        orig.for_each_point(|i, j, k| a.push((i, j, k)));
        tiled.for_each_point(|i, j, k| b.push((i, j, k)));
        assert_eq!(a.len(), b.len());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn tiled_loop_structure_is_fig6() {
        let mut nest = jacobi_nest(20);
        nest.tile_jj_ii(5, 7);
        let dims: Vec<_> = nest.loops.iter().map(|l| (l.dim, l.kind)).collect();
        use LoopKind::*;
        assert_eq!(
            dims,
            vec![
                (Dim::J, TileControl { step: 7 }),
                (Dim::I, TileControl { step: 5 }),
                (Dim::K, Range),
                (Dim::J, TileBody { width: 7 }),
                (Dim::I, TileBody { width: 5 }),
            ]
        );
    }

    #[test]
    fn execute_counts_match_closed_form() {
        let n = 10i64;
        let nest = jacobi_nest(n);
        let arrays = [
            ArrayDesc {
                base: 0,
                di: n as usize,
                dj: n as usize,
                dk: n as usize,
            },
            ArrayDesc {
                base: 8 * (n * n * n) as u64,
                di: n as usize,
                dj: n as usize,
                dk: n as usize,
            },
        ];
        let mut c = CountingSink::default();
        nest.execute(&arrays, &mut c);
        let pts = (n - 2).pow(3) as u64;
        assert_eq!(c.reads, 6 * pts);
        assert_eq!(c.writes, pts);
    }

    #[test]
    fn tiled_execute_emits_identical_access_multiset() {
        use std::collections::HashMap;
        #[derive(Default)]
        struct Collect(HashMap<(u64, bool), u64>);
        impl AccessSink for Collect {
            fn read(&mut self, a: u64) {
                *self.0.entry((a, false)).or_default() += 1;
            }
            fn write(&mut self, a: u64) {
                *self.0.entry((a, true)).or_default() += 1;
            }
        }
        let arrays = [
            ArrayDesc {
                base: 0,
                di: 16,
                dj: 16,
                dk: 16,
            },
            ArrayDesc {
                base: 1 << 20,
                di: 16,
                dj: 16,
                dk: 16,
            },
        ];
        let orig = jacobi_nest(14);
        let mut tiled = orig.clone();
        tiled.tile_jj_ii(4, 3);
        let (mut a, mut b) = (Collect::default(), Collect::default());
        orig.execute(&arrays, &mut a);
        tiled.execute(&arrays, &mut b);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn strip_mine_alone_is_semantics_preserving() {
        let mut nest = jacobi_nest(11);
        let orig = nest.clone();
        nest.strip_mine(Dim::I, 4);
        let mut a = Vec::new();
        let mut b = Vec::new();
        orig.for_each_point(|i, j, k| a.push((i, j, k)));
        nest.for_each_point(|i, j, k| b.push((i, j, k)));
        assert_eq!(a, b); // strip-mine without permute keeps exact order
    }

    #[test]
    #[should_panic]
    fn permute_rejects_body_outside_controller() {
        let mut nest = jacobi_nest(11);
        nest.strip_mine(Dim::I, 4); // K J II I
        nest.permute(&[3, 0, 1, 2]); // put body I outside controller II
    }

    #[test]
    #[should_panic]
    fn permute_rejects_non_permutation() {
        let mut nest = jacobi_nest(11);
        nest.permute(&[0, 0, 1]);
    }

    #[test]
    fn point_count_matches_walk() {
        let mut nest = jacobi_nest(13);
        assert_eq!(nest.point_count(), 11u64.pow(3));
        nest.tile_jj_ii(4, 5);
        let mut n = 0u64;
        nest.for_each_point(|_, _, _| n += 1);
        assert_eq!(n, 11u64.pow(3));
        assert_eq!(nest.point_count(), 11u64.pow(3));
    }
}
