//! `Hierarchy::row` against the per-access expansion it must equal.
//!
//! The reference below forwards only `read` and `write` to a `Hierarchy`,
//! so its `row` is the trait's default: point-major, one access at a time.
//! Every case drives both from the same warmed state with a random row
//! shape, then checks the L1 and L2 counters and replays identical
//! follow-up traffic, which behaves identically only if the row left the
//! same lines resident in the same replacement order.
//!
//! Cases come from a fixed-seed xorshift generator, so every run visits
//! the same shapes and a failure prints everything needed to rerun it.

use tiling3d_cachesim::{AccessSink, CacheConfig, Hierarchy, RowShape, WritePolicy};

/// The default `row`: Hierarchy semantics, strictly one access at a time.
struct PerAccess(Hierarchy);

impl AccessSink for PerAccess {
    fn read(&mut self, addr: u64) {
        self.0.read(addr);
    }

    fn write(&mut self, addr: u64) {
        self.0.write(addr);
    }
}

/// Deterministic xorshift64 generator.
struct Xorshift64(u64);

impl Xorshift64 {
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

fn level(
    size_bytes: usize,
    line_bytes: usize,
    ways: usize,
    write_policy: WritePolicy,
) -> CacheConfig {
    CacheConfig {
        size_bytes,
        line_bytes,
        ways,
        write_policy,
    }
}

/// The geometries under test: the paper's UltraSPARC-2, small LRU
/// hierarchies of 2, 4 and 8 ways (small, so random shapes conflict
/// often), a write-allocate L1 and a write-around L2, a host-shaped
/// hierarchy whose L1 capacity is not a power of two, and two that mix a
/// direct-mapped and an associative level. Between them they pair every
/// kind of L1 with every kind of L2, so each instantiation of the replay
/// loops is checked.
fn geometries() -> Vec<(&'static str, CacheConfig, CacheConfig)> {
    use WritePolicy::{WriteAllocate, WriteAround};
    vec![
        (
            "us2",
            CacheConfig::ULTRASPARC2_L1,
            CacheConfig::ULTRASPARC2_L2,
        ),
        (
            "lru2",
            level(2048, 32, 2, WriteAround),
            level(16384, 64, 2, WriteAllocate),
        ),
        (
            "lru4",
            level(4096, 32, 4, WriteAround),
            level(32768, 64, 4, WriteAllocate),
        ),
        (
            "lru8",
            level(4096, 32, 8, WriteAround),
            level(65536, 64, 8, WriteAllocate),
        ),
        (
            "l1-write-allocate",
            level(2048, 32, 1, WriteAllocate),
            level(16384, 64, 1, WriteAllocate),
        ),
        (
            "l2-write-around",
            level(2048, 32, 1, WriteAround),
            level(16384, 64, 1, WriteAround),
        ),
        // Smaller than one 32-point row chunk: streams wrap their own sets.
        (
            "tiny",
            level(256, 32, 1, WriteAround),
            level(2048, 64, 1, WriteAllocate),
        ),
        // An L2 smaller than L1: streams that fit L1 wrap their L2 sets.
        (
            "l2-few-sets",
            level(1024, 32, 1, WriteAround),
            level(512, 64, 1, WriteAllocate),
        ),
        // A 48 KB, 12-way L1 (64 sets) over a 2 MB, 16-way L2, as on a
        // current x86 core: associative, so conflicts replay point-major.
        (
            "host",
            level(48 * 1024, 64, 12, WriteAround),
            level(2 * 1024 * 1024, 64, 16, WriteAllocate),
        ),
        // A direct-mapped L1 over a 4-way L2.
        (
            "dm-over-lru4",
            level(2048, 32, 1, WriteAround),
            level(32768, 64, 4, WriteAllocate),
        ),
        // A 2-way L1 over a direct-mapped L2.
        (
            "lru2-over-dm",
            level(2048, 32, 2, WriteAround),
            level(16384, 64, 1, WriteAllocate),
        ),
    ]
}

/// A random shape of 1..=29 slots. Each slot is one of: a same-line
/// neighbour of the previous slot, a slot forced into the previous slot's
/// L1 set or L2 set (whole cache sizes away), or a fresh offset. One shape
/// in six is a single wide stream instead, each slot up to 48 bytes past
/// the previous. About one slot in five is a store, half of those at the
/// address of an earlier load of the same point.
fn random_shape(rng: &mut Xorshift64, l1: &CacheConfig, l2: &CacheConfig) -> RowShape {
    let step = if rng.below(2) == 0 { 8 } else { 16 };
    let (l1_size, l2_size) = (l1.size_bytes as i64, l2.size_bytes as i64);
    let chained = rng.below(6) == 0;
    let mut shape = RowShape::new(step);
    let mut prev = 0i64;
    let mut reads: Vec<i64> = Vec::new();
    for _ in 0..rng.range(1, 29) {
        let offset = match if chained { 5 } else { rng.below(5) } {
            5 => prev + 8 * rng.range(1, 6),
            0 => prev + 8 * rng.range(-2, 2),
            1 => prev + l1_size * rng.range(-2, 2) + 8 * rng.range(-1, 1),
            2 => prev + l2_size * rng.range(-1, 1) + 8 * rng.range(-1, 1),
            _ => 8 * rng.range(-4 * l1_size / 8, 4 * l1_size / 8),
        };
        if rng.below(5) == 0 {
            let at = if !reads.is_empty() && rng.below(2) == 0 {
                reads[rng.below(reads.len() as u64) as usize]
            } else {
                offset
            };
            shape = shape.write(at);
        } else {
            shape = shape.read(offset);
            reads.push(offset);
        }
        prev = offset;
    }
    shape
}

fn random_points(rng: &mut Xorshift64) -> usize {
    const EDGES: [usize; 8] = [0, 1, 3, 4, 31, 32, 33, 600];
    if rng.below(4) == 0 {
        EDGES[rng.below(EDGES.len() as u64) as usize]
    } else {
        rng.range(0, 600) as usize
    }
}

/// The bytes a row of `shape` can touch, widened by one L2 line. A
/// negative step extends the row below its slots' offsets.
fn footprint(shape: &RowShape, base: u64, points: usize) -> (u64, u64) {
    let span = shape.step() * points as i64;
    let lo = shape.slots().iter().map(|s| s.offset).min().unwrap_or(0) + span.min(0);
    let hi = shape.slots().iter().map(|s| s.offset).max().unwrap_or(0) + span.max(0);
    (
        base.wrapping_add((lo - 64) as u64),
        base.wrapping_add((hi + 64) as u64),
    )
}

/// The same random traffic over `lo..hi` into both hierarchies. One
/// access in four lands a whole L2 size away, on the other L1 line of its
/// L2 line: it evicts the L2 line but not the L1 line, leaving L1 lines
/// whose L2 line is gone.
fn traffic(
    rng: &mut Xorshift64,
    fast: &mut Hierarchy,
    slow: &mut PerAccess,
    lo: u64,
    hi: u64,
    n: usize,
) {
    let l2_size = fast.l2().config().size_bytes as u64;
    for _ in 0..n {
        let mut a = lo + 8 * rng.below((hi - lo) / 8 + 1);
        if rng.below(4) == 0 {
            a = (a ^ 32) + l2_size;
        }
        if rng.below(6) == 0 {
            fast.write(a);
            slow.write(a);
        } else {
            fast.read(a);
            slow.read(a);
        }
    }
}

fn assert_same(fast: &Hierarchy, slow: &PerAccess, what: &str) {
    assert_eq!(fast.l1_stats(), slow.0.l1_stats(), "L1 diverged {what}");
    assert_eq!(fast.l2_stats(), slow.0.l2_stats(), "L2 diverged {what}");
}

#[test]
fn row_equals_per_access_expansion() {
    for (name, l1, l2) in geometries() {
        let mut rng = Xorshift64(0x5EED_0000 + l1.size_bytes as u64 + l1.ways as u64);
        for case in 0..150 {
            let shape = random_shape(&mut rng, &l1, &l2);
            let points = random_points(&mut rng);
            let base = (1u64 << 32) + 8 * rng.below(1 << 20);
            let what = format!("{name} case {case}: points={points} base={base} {shape:?}");
            let (lo, hi) = footprint(&shape, base, points);

            let mut fast = Hierarchy::new(l1, l2);
            let mut slow = PerAccess(Hierarchy::new(l1, l2));
            traffic(&mut rng, &mut fast, &mut slow, lo, hi, 400);
            fast.row(&shape, base, points);
            slow.row(&shape, base, points);
            assert_same(&fast, &slow, &what);

            // A second row of the same shape one point on (reusing cached
            // plans at a new phase) and one at the same phase elsewhere.
            for next in [
                base + shape.step() as u64,
                base + 64 * rng.range(1, 4096) as u64,
            ] {
                fast.row(&shape, next, points);
                slow.row(&shape, next, points);
                assert_same(&fast, &slow, &format!("{what} then row at {next}"));
            }

            // Identical follow-up traffic over the footprint must behave
            // identically: same lines resident, same LRU order.
            let mut a = lo;
            while a <= hi {
                fast.read(a);
                slow.read(a);
                a += 32;
            }
            traffic(&mut rng, &mut fast, &mut slow, lo, hi, 400);
            assert_same(&fast, &slow, &format!("{what} after follow-up traffic"));
        }
    }
}

/// One-slot rows, as the copy nests emit them: a load row over a source
/// row, then a store row over a destination near it or a whole L1 away.
/// `Hierarchy::row` replays every one-slot shape with the run loops,
/// without planning, so besides the steps up to an L1 line it must equal
/// the per-access expansion at unaligned, zero, descending and
/// line-skipping steps, and leave the same lines resident in the same
/// replacement order.
#[test]
fn one_slot_rows_equal_per_access_expansion_at_every_step() {
    for (name, l1, l2) in geometries() {
        let mut rng = Xorshift64(0x1_5107 + l1.size_bytes as u64 + l1.ways as u64);
        for step in [8i64, 16, 24, 32, 64, 3, 0, -8, -40, 4096] {
            for case in 0..6 {
                let load = RowShape::new(step).read(8 * rng.range(-4, 4));
                let store = RowShape::new(step).write(8 * rng.range(-4, 4));
                let points = random_points(&mut rng);
                let base = (1u64 << 32) + 8 * rng.below(1 << 20);
                let apart = 8 * rng.range(-64, 64) + l1.size_bytes as i64 * rng.range(0, 1);
                let dest = base.wrapping_add(apart as u64);
                let what = format!("{name} step {step} case {case}: points={points}");
                let (lo, hi) = {
                    let (a, b) = footprint(&load, base, points);
                    let (c, d) = footprint(&store, dest, points);
                    (a.min(c), b.max(d))
                };

                let mut fast = Hierarchy::new(l1, l2);
                let mut slow = PerAccess(Hierarchy::new(l1, l2));
                traffic(&mut rng, &mut fast, &mut slow, lo, hi, 400);
                for (shape, at) in [(&load, base), (&store, dest)] {
                    fast.row(shape, at, points);
                    slow.row(shape, at, points);
                    assert_same(&fast, &slow, &format!("{what}, {shape:?} at {at}"));
                }

                let mut a = lo;
                while a <= hi {
                    fast.read(a);
                    slow.read(a);
                    a += 32;
                }
                traffic(&mut rng, &mut fast, &mut slow, lo, hi, 400);
                assert_same(&fast, &slow, &format!("{what} after follow-up traffic"));
            }
        }
    }
}

/// A shape whose slots conflict: each is a load or a store a whole number
/// of L1 or L2 spans (the bytes one way covers) from the previous slot,
/// give or take a word, so most slots share sets with another and the
/// chunk's classes replay point-major. Offsets may be negative, and about
/// a third of the slots are stores.
fn conflict_shape(rng: &mut Xorshift64, l1: &CacheConfig, l2: &CacheConfig) -> RowShape {
    let step = if rng.below(2) == 0 { 8 } else { 16 };
    let l1_span = (l1.size_bytes / l1.ways) as i64;
    let l2_span = (l2.size_bytes / l2.ways) as i64;
    let mut shape = RowShape::new(step);
    let mut prev = 8 * rng.range(-8, 8);
    for _ in 0..rng.range(2, 9) {
        let apart = if rng.below(3) == 0 { l2_span } else { l1_span };
        let offset = prev + apart * rng.range(-3, 3) + 8 * rng.range(-1, 1);
        shape = if rng.below(3) == 0 {
            shape.write(offset)
        } else {
            shape.read(offset)
        };
        prev = offset;
    }
    shape
}

/// A few accesses into the lines a row of `shape` at `base` touches, the
/// same in both hierarchies: each lands on a random point's slot address,
/// on the other L1 line of its L2 line, or a whole L1 span or L2 size
/// away, so it loads, evicts or stores to a line of the row at either
/// level. Addresses wrap, like the row's own.
fn row_traffic(
    rng: &mut Xorshift64,
    fast: &mut Hierarchy,
    slow: &mut PerAccess,
    shape: &RowShape,
    base: u64,
    points: usize,
) {
    let l1 = fast.l1().config();
    let l1_span = (l1.size_bytes / l1.ways) as i64;
    let l2_size = fast.l2().config().size_bytes as i64;
    for _ in 0..rng.below(4) {
        let slot = shape.slots()[rng.below(shape.slots().len() as u64) as usize];
        let p = rng.below(points.max(1) as u64) as i64;
        let mut a = base.wrapping_add((slot.offset + p * shape.step()) as u64);
        a = match rng.below(4) {
            0 => a,
            1 => a ^ 32,
            2 => a.wrapping_add((l1_span * rng.range(-2, 2)) as u64),
            _ => (a ^ 32).wrapping_add((l2_size * rng.range(-1, 1)) as u64),
        };
        if rng.below(4) == 0 {
            fast.write(a);
            slow.write(a);
        } else {
            fast.read(a);
            slow.read(a);
        }
    }
}

/// Memoized replay of conflicting classes on direct-mapped levels: each
/// conflict-heavy shape replays as many rows translated by whole chunks
/// (so the same plans and classes recur) with a little traffic into the
/// row's lines between rows, so each class meets starting states it has
/// seen and ones it has not. Some bases lie near 0 and the offsets reach
/// below it, so line addresses wrap. After every row the counters must
/// equal the per-access expansion's, and identical follow-up traffic must
/// behave identically.
#[test]
fn memoized_conflict_classes_equal_per_access_expansion() {
    let direct_mapped = geometries()
        .into_iter()
        .filter(|(_, l1, l2)| l1.ways == 1 && l2.ways == 1);
    for (name, l1, l2) in direct_mapped {
        let mut rng = Xorshift64(0xC0_FF1C7 + l1.size_bytes as u64 + l2.size_bytes as u64);
        for case in 0..40 {
            let shape = conflict_shape(&mut rng, &l1, &l2);
            let points = [32usize, 64, 100, 37][case % 4];
            let base = if case % 3 == 0 {
                8 * rng.below(64)
            } else {
                (1u64 << 40) + 8 * rng.below(1 << 20)
            };
            let chunk = 32 * shape.step() as u64;
            let what = format!("{name} case {case}: points={points} base={base} {shape:?}");

            let mut fast = Hierarchy::new(l1, l2);
            let mut slow = PerAccess(Hierarchy::new(l1, l2));
            for row in 0..60u64 {
                let b = base.wrapping_add(chunk * rng.below(8));
                row_traffic(&mut rng, &mut fast, &mut slow, &shape, b, points);
                fast.row(&shape, b, points);
                slow.row(&shape, b, points);
                assert_same(&fast, &slow, &format!("{what}, row {row} at {b}"));
            }
            for _ in 0..50 {
                let b = base.wrapping_add(chunk * rng.below(8));
                row_traffic(&mut rng, &mut fast, &mut slow, &shape, b, points);
            }
            assert_same(&fast, &slow, &format!("{what} after follow-up traffic"));
        }
    }
}

/// A stencil point of the three figure kernels' kinds, at leading
/// dimension `row` bytes and plane `plane` bytes: a 7-point load pattern
/// (JACOBI's, red-black's) or RESID's 27 loads, one more load a few planes
/// on, and a store at the point.
fn stencil_point(rng: &mut Xorshift64, row: i64, plane: i64) -> RowShape {
    let far = plane * rng.range(2, 40) + 8 * rng.range(-1, 1);
    let point = if rng.below(2) == 0 {
        RowShape::new(8).reads([
            far - 8,
            far + 8,
            far - row,
            far + row,
            far - plane,
            far + plane,
        ])
    } else {
        RowShape::new(8).reads((-1..=1).flat_map(|k| {
            (-1..=1).flat_map(move |j| (-1..=1).map(move |i| far + 8 * i + row * j + plane * k))
        }))
    };
    point.read(2 * far).write(0)
}

/// Long-step rows on every geometry: the K-columns of 1×1 tiles (one
/// stencil point stepping a plane), red-black's (red, black) pairs (two
/// points a plane apart, stepping two planes) and the rows of 2- and
/// 3-wide tiles (copies of a point 8 bytes apart, stepping a row).
/// Direct-mapped levels replay them from memos, associative ones expand
/// them. Leading dimensions are random, whole L1 spans or L2 sizes, so the
/// points collide with each other as at the paper's pathological sizes.
/// Each shape replays as many rows translated by whole L2 lines (so the
/// same plans and memos recur) with a little traffic into the row's lines
/// between rows, so each memo meets starting states it has seen and ones
/// it has not; some bases lie near 0 with offsets below it. After every
/// row the counters must equal the per-access expansion's, and identical
/// follow-up traffic must behave identically.
#[test]
fn long_step_memos_equal_per_access_expansion() {
    for (name, l1, l2) in geometries() {
        let sizes = l1.size_bytes + l2.size_bytes + l1.ways + 16 * l2.ways;
        let mut rng = Xorshift64(0x10_4657EB + sizes as u64);
        for case in 0..40 {
            let row = match rng.below(3) {
                0 => 8 * rng.range(5, 400),
                1 => l1.size_bytes as i64 * rng.range(1, 2),
                _ => l2.size_bytes as i64,
            } + 8 * rng.range(-1, 1);
            let plane = row * rng.range(5, 40) + 8 * rng.range(-1, 1);
            let point = stencil_point(&mut rng, row, plane);
            let (shape, points) = match case % 4 {
                0 => (RowShape::new(plane).append(&point, 0), 28),
                1 => {
                    let black = stencil_point(&mut rng, row, plane);
                    let pair = RowShape::new(2 * plane)
                        .append(&point, plane + row + 8)
                        .append(&black, 0);
                    (pair, 14)
                }
                2 => {
                    let wide = RowShape::new(row).append(&point, 0).append(&point, 8);
                    (wide, 64)
                }
                _ => {
                    let wide = RowShape::new(row)
                        .append(&point, 0)
                        .append(&point, 8)
                        .append(&point, 16);
                    (wide, 37)
                }
            };
            let base = if case % 3 == 0 {
                8 * rng.below(64)
            } else {
                (1u64 << 40) + 8 * rng.below(1 << 20)
            };
            let what = format!("{name} case {case}: points={points} base={base} {shape:?}");

            let mut fast = Hierarchy::new(l1, l2);
            let mut slow = PerAccess(Hierarchy::new(l1, l2));
            for r in 0..60u64 {
                let b = base.wrapping_add(64 * rng.below(8));
                row_traffic(&mut rng, &mut fast, &mut slow, &shape, b, points);
                fast.row(&shape, b, points);
                slow.row(&shape, b, points);
                assert_same(&fast, &slow, &format!("{what}, row {r} at {b}"));
            }
            for _ in 0..50 {
                let b = base.wrapping_add(64 * rng.below(8));
                row_traffic(&mut rng, &mut fast, &mut slow, &shape, b, points);
            }
            assert_same(&fast, &slow, &format!("{what} after follow-up traffic"));
        }
    }
}

/// The shapes of the three figure kernels at a conflict-free and a
/// pathological leading dimension, on the paper's geometry: the clean
/// read-only, single-store and load-then-store classes, and the
/// point-major fallback.
#[test]
fn stencil_shapes_equal_per_access_expansion() {
    for di in [208i64, 256, 304, 352] {
        let (d, p) = (8 * di, 8 * di * di);
        let b = 30 * p;
        let shapes = [
            RowShape::new(8)
                .reads([b - 8, b + 8, b - d, b + d, b - p, b + p])
                .write(0),
            RowShape::new(16).reads([0, -8, -d, 8, d, -p, p]).write(0),
            RowShape::new(8)
                .reads((-1..=1).flat_map(|k| {
                    (-1..=1).flat_map(move |j| (-1..=1).map(move |i| b + 8 * i + d * j + p * k))
                }))
                .read(2 * b)
                .write(0),
        ];
        for shape in &shapes {
            let mut fast = Hierarchy::ultrasparc2();
            let mut slow = PerAccess(Hierarchy::ultrasparc2());
            for row in 0..200u64 {
                let base = 8 * (1 + row * di as u64 + (row / 7) * (di * di) as u64);
                let points = [398usize, 30, 24, 14, 1, 3][row as usize % 6];
                fast.row(shape, base, points);
                slow.row(shape, base, points);
            }
            assert_same(&fast, &slow, &format!("di={di} {shape:?}"));
        }
    }
}

/// The rows the trace walkers build for tiles under 4 points wide:
/// random multi-slot shapes stepping a row or one or two planes (longer
/// than an L1 line, so `Hierarchy` expands them point by point in one
/// call), and composite shapes whose point is two random shapes' points a
/// plane apart, as red-black's (red, black) pairs are. Strides are random
/// leading dimensions, some of them whole L1 spans or L2 sizes, so
/// consecutive points conflict as at the paper's pathological sizes. Each
/// row replays three times, with a little traffic into its lines before
/// each; then every access of the row is read again, with the other L1
/// line of its L2 line, which finds the same lines resident in the same
/// order only if the rows left them so. (These rows are too sparse for a
/// sweep over their footprint.)
#[test]
fn strided_and_composite_rows_equal_per_access_expansion() {
    for (name, l1, l2) in geometries() {
        let mut rng = Xorshift64(0x57_21DE + l1.size_bytes as u64 + l1.ways as u64);
        for case in 0..60 {
            let row = match rng.below(3) {
                0 => 8 * rng.range(5, 400),
                1 => (l1.size_bytes / l1.ways) as i64 * rng.range(1, 2),
                _ => l2.size_bytes as i64,
            } + 8 * rng.range(-1, 1);
            let plane = row * rng.range(5, 40) + 8 * rng.range(-1, 1);
            let a = random_shape(&mut rng, &l1, &l2);
            let shape = if case % 2 == 0 {
                let step = [row, plane, 2 * plane][rng.below(3) as usize];
                RowShape::new(step).append(&a, 0)
            } else {
                let b = random_shape(&mut rng, &l1, &l2);
                RowShape::new(2 * plane).append(&a, plane).append(&b, 0)
            };
            let points = random_points(&mut rng).min(64);
            let base = (1u64 << 40) + 8 * rng.below(1 << 20);
            let what = format!("{name} case {case}: points={points} base={base} {shape:?}");

            let mut fast = Hierarchy::new(l1, l2);
            let mut slow = PerAccess(Hierarchy::new(l1, l2));
            for round in 0..3 {
                for _ in 0..40 {
                    row_traffic(&mut rng, &mut fast, &mut slow, &shape, base, points);
                }
                fast.row(&shape, base, points);
                slow.row(&shape, base, points);
                assert_same(&fast, &slow, &format!("{what}, round {round}"));
            }
            for p in 0..points as i64 {
                for s in shape.slots() {
                    let a = base.wrapping_add((s.offset + p * shape.step()) as u64);
                    for a in [a, a ^ 32] {
                        fast.read(a);
                        slow.read(a);
                    }
                }
            }
            assert_same(&fast, &slow, &format!("{what} after follow-up traffic"));
        }
    }
}
