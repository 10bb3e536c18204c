//! Static data-locality analysis: symbolic reuse-distance histograms and
//! conflict-interference analysis.
//!
//! This module extends [`crate::reuse`] (which answers *"does this one
//! reuse survive capacity C?"*) into a full static analyzer, with **no
//! simulation** involved:
//!
//! * [`ReuseHistogram`] — the schedule's reference stream summarised as a
//!   small set of symbolic reuse classes `(distance, count)`. Because a
//!   fully-associative LRU cache of capacity `C` misses an access exactly
//!   when its reuse distance exceeds `C`, one histogram yields the whole
//!   miss curve `MR(C)` for *all* capacities in one pass — the classic
//!   stack-distance argument (Mattson et al.), computed symbolically from
//!   the stencil shape instead of by tracing.
//!
//! * [`analyze_conflicts`] — the paper's set-index interference argument
//!   made executable. Real L1 caches are direct-mapped or few-way: two
//!   references collide when their addresses agree modulo `sets x line`.
//!   Given the stencil's per-point reference group and the set of address
//!   intervals a schedule *needs* to keep resident (columns, planes, tile
//!   footprints), the analyzer computes which reuse a direct-mapped or
//!   W-way cache actually destroys and emits typed [`ConflictWitness`]es:
//!   which references collide, in which set window, at what iteration
//!   period. Pathological pad/column-size combinations (e.g. a plane
//!   stride that is a multiple of the cache span, the paper's motivating
//!   disaster case) are flagged statically.
//!
//! The histogram is the fully-associative model; the conflict report is
//! the correction term that separates it from a direct-mapped cache. The
//! `tiling3d-core` miss-model layer composes both into per-level
//! predictions and validates them against the trace-driven simulator.

use std::collections::BTreeSet;

/// What kind of reuse a class (or a protected residency interval) carries.
///
/// The kinds mirror the loop structure of a stencil nest: spatial reuse
/// within a line (`I` loop), group reuse across columns (`J` loop), group
/// reuse across planes (`K` loop), whole-array reuse across passes or time
/// steps, and the degenerate classes for first touches and never-cached
/// accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ClassKind {
    /// First touch of a line — misses at every finite capacity.
    Cold,
    /// Reuse within one cache line (unit-stride `I` traversal).
    Spatial,
    /// Group reuse across the `J` loop (column working set).
    Column,
    /// Group reuse across the `K` loop (plane working set).
    Plane,
    /// Whole-array reuse across passes / time steps.
    Pass,
    /// Accesses that can never hit (write-around stores to a never-read
    /// array: the line is never allocated).
    Uncached,
}

/// One symbolic reuse class: `count` accesses whose previous touch of the
/// same line lies `distance` distinct elements in the past.
#[derive(Clone, Debug)]
pub struct ReuseClass {
    /// Human-readable provenance (`"K-reuse"`, `"halo-I"`, ...).
    pub label: &'static str,
    /// The loop level the reuse belongs to.
    pub kind: ClassKind,
    /// LRU stack distance in elements (`f64::INFINITY` for cold /
    /// uncached classes).
    pub distance: f64,
    /// Number of accesses in the class (fractional: closed forms divide
    /// by the line length).
    pub count: f64,
}

/// A symbolic reuse-distance histogram: the full fully-associative LRU
/// miss curve of a schedule, in one small table.
#[derive(Clone, Debug, Default)]
pub struct ReuseHistogram {
    /// The classes, in construction order.
    pub classes: Vec<ReuseClass>,
    /// Total accesses in the modelled stream.
    pub accesses: f64,
}

impl ReuseHistogram {
    /// Creates an empty histogram for a stream of `accesses` accesses.
    pub fn new(accesses: f64) -> Self {
        ReuseHistogram {
            classes: Vec::new(),
            accesses,
        }
    }

    /// Adds a class; zero/negative counts are dropped (closed forms
    /// routinely produce empty classes, e.g. `ATD - 1 = 0` for 2D).
    pub fn push(&mut self, label: &'static str, kind: ClassKind, distance: f64, count: f64) {
        if count > 0.0 {
            self.classes.push(ReuseClass {
                label,
                kind,
                distance,
                count,
            });
        }
    }

    /// Predicted misses of a fully-associative LRU cache holding
    /// `capacity_elements` elements: every class whose distance exceeds
    /// the capacity misses in full.
    pub fn misses_at(&self, capacity_elements: f64) -> f64 {
        self.classes
            .iter()
            .filter(|c| c.distance > capacity_elements)
            .map(|c| c.count)
            .sum()
    }

    /// Miss rate (percent of all accesses) at one capacity.
    pub fn miss_rate_pct_at(&self, capacity_elements: f64) -> f64 {
        if self.accesses == 0.0 {
            0.0
        } else {
            100.0 * self.misses_at(capacity_elements) / self.accesses
        }
    }

    /// The full miss curve sampled at the given capacities.
    pub fn miss_curve(&self, capacities: &[usize]) -> Vec<(usize, f64)> {
        capacities
            .iter()
            .map(|&c| (c, self.miss_rate_pct_at(c as f64)))
            .collect()
    }

    /// The capacities at which the miss curve steps down — the sorted
    /// distinct finite class distances. Evaluating `MR` just below and at
    /// each knee reproduces the entire curve exactly.
    pub fn knees(&self) -> Vec<u64> {
        let set: BTreeSet<u64> = self
            .classes
            .iter()
            .filter(|c| c.distance.is_finite())
            .map(|c| c.distance.ceil() as u64)
            .collect();
        set.into_iter().collect()
    }

    /// Sum of counts for one class kind, restricted to classes still
    /// missing at `capacity_elements` (used by the conflict correction:
    /// only *surviving* reuse can be destroyed by interference).
    pub fn surviving_count(&self, kind: ClassKind, capacity_elements: f64) -> f64 {
        self.classes
            .iter()
            .filter(|c| c.kind == kind && c.distance <= capacity_elements)
            .map(|c| c.count)
            .sum()
    }

    /// Total class count for one kind regardless of capacity.
    pub fn total_count(&self, kind: ClassKind) -> f64 {
        self.classes
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.count)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Conflict-interference analysis
// ---------------------------------------------------------------------------

/// Set-index geometry of one cache level: addresses collide when they
/// agree modulo `sets * line_elems` elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetGeometry {
    /// Number of sets.
    pub sets: usize,
    /// Line length in elements.
    pub line_elems: usize,
    /// Associativity (1 = direct-mapped).
    pub ways: usize,
}

impl SetGeometry {
    /// The set-mapping period in elements (`sets * line_elems`); for a
    /// direct-mapped cache this equals the capacity.
    pub fn span_elements(&self) -> usize {
        self.sets * self.line_elems
    }

    /// Total capacity in elements.
    pub fn capacity_elements(&self) -> usize {
        self.span_elements() * self.ways
    }

    /// True for a fully-associative geometry (a single set) — no set
    /// conflicts are possible.
    pub fn fully_associative(&self) -> bool {
        self.sets <= 1
    }
}

/// One reference of the stencil's per-point reference group, as an element
/// offset from the iteration point (including the array base, so
/// cross-array collisions are visible).
#[derive(Clone, Debug)]
pub struct PointRef {
    /// Provenance, e.g. `"B(0,0,+1)"`.
    pub label: &'static str,
    /// Element offset of the reference from the iteration point's index.
    pub offset: i64,
}

/// An address interval a schedule needs resident across reuses: a column
/// band, a plane, a tile footprint column, or a streaming reference's
/// per-row footprint.
#[derive(Clone, Debug)]
pub struct LiveInterval {
    /// Provenance, e.g. `"cols[j-1..j+1]"`.
    pub label: &'static str,
    /// Element offset of the interval start from the iteration point.
    pub start: i64,
    /// Interval length in elements.
    pub len: usize,
    /// The reuse kind this interval's residency protects, or `None` for
    /// pure interferers (streams that only pass through).
    pub protects: Option<ClassKind>,
}

/// The kind of statically detected interference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessKind {
    /// More distinct lines than ways land in one set window every
    /// iteration: the references evict each other at period 1 and miss on
    /// (essentially) every access. The paper's pathological pads —
    /// e.g. a plane stride that is `0 mod span` — produce exactly this.
    ThrashGroup,
    /// Resident intervals overlap other live footprints modulo the span:
    /// the covered fraction of the protected reuse is destroyed once
    /// coverage exceeds the associativity.
    BandOverlap,
}

/// A typed, machine-checkable record of one set-index collision.
#[derive(Clone, Debug)]
pub struct ConflictWitness {
    /// What kind of interference was detected.
    pub kind: WitnessKind,
    /// Labels of the colliding references / intervals.
    pub refs: Vec<&'static str>,
    /// The element-residue window `[lo, hi)` (mod span) where they collide.
    pub set_window: (usize, usize),
    /// Iteration period at which the collision recurs (1 = every point).
    pub period_iters: u64,
    /// Distinct contending lines (thrash) or interfering intervals (band).
    pub lines: usize,
    /// Associativity of the analysed geometry.
    pub ways: usize,
    /// Fraction of the protected reuse destroyed (thrash groups: 1.0).
    pub killed_fraction: f64,
}

/// Result of the conflict-interference analysis for one geometry and one
/// live set.
#[derive(Clone, Debug, Default)]
pub struct ConflictReport {
    /// All detected collisions.
    pub witnesses: Vec<ConflictWitness>,
    /// Per-point references that miss on every access (members of thrash
    /// groups).
    pub thrash_refs: Vec<&'static str>,
    /// Fraction of the `Column` reuse destroyed by interference.
    pub column_kill: f64,
    /// Fraction of the `Plane` reuse destroyed by interference.
    pub plane_kill: f64,
    /// True when the geometry/padding combination is pathological: a
    /// thrash group exists or a majority of some protected reuse dies.
    pub pathological: bool,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Detects per-point thrash groups: clusters of references whose residues
/// fall in one line window modulo the span, carrying more distinct lines
/// than the cache has ways.
fn find_thrash_groups(
    geom: &SetGeometry,
    refs: &[PointRef],
) -> (Vec<ConflictWitness>, Vec<&'static str>) {
    let span = geom.span_elements() as i64;
    let le = geom.line_elems as i64;
    if refs.is_empty() {
        return (Vec::new(), Vec::new());
    }
    // Sort by residue, then chain-cluster: refs within < line_elems of the
    // previous one (circularly) share a set window as the point advances.
    let mut by_res: Vec<(i64, usize)> = refs
        .iter()
        .enumerate()
        .map(|(idx, r)| (r.offset.rem_euclid(span), idx))
        .collect();
    by_res.sort_unstable();
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = vec![by_res[0].1];
    for w in by_res.windows(2) {
        if w[1].0 - w[0].0 < le {
            current.push(w[1].1);
        } else {
            clusters.push(std::mem::take(&mut current));
            current.push(w[1].1);
        }
    }
    clusters.push(current);
    // Circular wrap: merge last into first when they touch mod span.
    if clusters.len() > 1 {
        let first_lo = by_res.first().unwrap().0;
        let last_hi = by_res.last().unwrap().0;
        if (first_lo + span) - last_hi < le {
            let tail = clusters.pop().unwrap();
            clusters[0].extend(tail);
        }
    }
    let mut witnesses = Vec::new();
    let mut thrash: Vec<&'static str> = Vec::new();
    for cluster in clusters {
        if cluster.len() < 2 {
            continue;
        }
        // Distinct *lines* in the cluster: group members whose true
        // offsets are within one line of each other (same array line).
        let mut offsets: Vec<i64> = cluster.iter().map(|&i| refs[i].offset).collect();
        offsets.sort_unstable();
        let mut lines = 1usize;
        for w in offsets.windows(2) {
            if w[1] - w[0] >= le {
                lines += 1;
            }
        }
        if lines > geom.ways {
            let residues: Vec<i64> = cluster
                .iter()
                .map(|&i| refs[i].offset.rem_euclid(span))
                .collect();
            let lo = *residues.iter().min().unwrap() as usize;
            let hi = (*residues.iter().max().unwrap() + 1) as usize;
            let labels: Vec<&'static str> = cluster.iter().map(|&i| refs[i].label).collect();
            thrash.extend(labels.iter().copied());
            witnesses.push(ConflictWitness {
                kind: WitnessKind::ThrashGroup,
                refs: labels,
                set_window: (lo, hi),
                period_iters: 1,
                lines,
                ways: geom.ways,
                killed_fraction: 1.0,
            });
        }
    }
    (witnesses, thrash)
}

/// Splits an interval into its residue footprint mod `span`, returning
/// `(whole_wraps, segments)`: full-ring coverage plus up to two `[lo, hi)`
/// residue segments.
fn residue_segments(start: i64, len: usize, span: i64) -> (usize, Vec<(i64, i64)>) {
    let len = len as i64;
    if len >= span {
        let wraps = (len / span) as usize;
        let rem = len % span;
        let s = start.rem_euclid(span);
        let mut segs = Vec::new();
        if rem > 0 {
            if s + rem <= span {
                segs.push((s, s + rem));
            } else {
                segs.push((s, span));
                segs.push((0, s + rem - span));
            }
        }
        return (wraps, segs);
    }
    let s = start.rem_euclid(span);
    if s + len <= span {
        (0, vec![(s, s + len)])
    } else {
        (0, vec![(s, span), (0, s + len - span)])
    }
}

/// Analyzes set-index interference among the given live intervals under a
/// set-associative geometry, and thrash among the per-point references.
///
/// `iter_stride` is the element stride between successive rows of the
/// schedule (the allocated column length `di`) — it determines the period
/// at which band collisions recur.
pub fn analyze_conflicts(
    geom: &SetGeometry,
    point_refs: &[PointRef],
    intervals: &[LiveInterval],
    iter_stride: usize,
) -> ConflictReport {
    if geom.fully_associative() {
        return ConflictReport::default();
    }
    let span = geom.span_elements() as i64;
    let (mut witnesses, thrash_refs) = find_thrash_groups(geom, point_refs);

    // Coverage sweep over residues: piecewise-constant coverage from all
    // live intervals, then per protected interval measure where coverage
    // exceeds the associativity.
    let mut base_cover = 0usize;
    let mut events: Vec<(i64, i32)> = Vec::new();
    let mut footprints: Vec<(usize, Vec<(i64, i64)>)> = Vec::new(); // index into intervals
    for (idx, iv) in intervals.iter().enumerate() {
        let (wraps, segs) = residue_segments(iv.start, iv.len, span);
        base_cover += wraps;
        for &(lo, hi) in &segs {
            events.push((lo, 1));
            events.push((hi, -1));
        }
        footprints.push((idx, segs));
    }
    let mut cuts: BTreeSet<i64> = events.iter().map(|&(x, _)| x).collect();
    cuts.insert(0);
    cuts.insert(span);
    let cuts: Vec<i64> = cuts.into_iter().collect();
    // coverage on [cuts[s], cuts[s+1])
    let mut cover: Vec<usize> = Vec::with_capacity(cuts.len());
    {
        let mut running = base_cover as i64;
        // events sorted by position; apply all events at a cut before the
        // segment that starts there.
        let mut evs = events.clone();
        evs.sort_unstable();
        let mut ei = 0usize;
        for &cut in &cuts {
            while ei < evs.len() && evs[ei].0 <= cut {
                running += i64::from(evs[ei].1);
                ei += 1;
            }
            cover.push(running.max(0) as usize);
        }
    }
    let seg_cover = |lo: i64, hi: i64| -> i64 {
        // measure of [lo, hi) where coverage > ways
        let mut killed = 0i64;
        for s in 0..cuts.len() - 1 {
            let (a, b) = (cuts[s], cuts[s + 1]);
            if b <= lo || a >= hi {
                continue;
            }
            if cover[s] > geom.ways {
                killed += b.min(hi) - a.max(lo);
            }
        }
        killed
    };

    let period = if iter_stride == 0 {
        1
    } else {
        (span as u64) / gcd(span as u64, iter_stride as u64)
    };
    let mut kill_len: std::collections::BTreeMap<ClassKind, (i64, i64)> = Default::default();
    for (idx, segs) in &footprints {
        let iv = &intervals[*idx];
        let Some(kind) = iv.protects else { continue };
        let killed = if (iv.len as i64) >= span {
            // The interval wraps the whole residue ring: its own wraps are
            // already in `base_cover`, so measure the over-committed residue
            // fraction and scale it to the interval's length.
            let killed_res = seg_cover(0, span);
            (iv.len as i64 * killed_res) / span
        } else {
            segs.iter().map(|&(lo, hi)| seg_cover(lo, hi)).sum()
        };
        let entry = kill_len.entry(kind).or_insert((0, 0));
        entry.0 += killed.min(iv.len as i64);
        entry.1 += iv.len as i64;
        if killed > 0 {
            // Who overlaps the killed region? Every *other* interval whose
            // footprint intersects this one's.
            let mut others: Vec<&'static str> = Vec::new();
            for (jdx, jsegs) in &footprints {
                if jdx == idx {
                    continue;
                }
                let touches = jsegs
                    .iter()
                    .any(|&(jl, jh)| segs.iter().any(|&(l, h)| jl < h && jh > l));
                if touches || (intervals[*jdx].len as i64) >= span {
                    others.push(intervals[*jdx].label);
                }
            }
            let lo = segs.iter().map(|s| s.0).min().unwrap_or(0) as usize;
            let hi = segs.iter().map(|s| s.1).max().unwrap_or(0) as usize;
            witnesses.push(ConflictWitness {
                kind: WitnessKind::BandOverlap,
                refs: std::iter::once(iv.label).chain(others).collect(),
                set_window: (lo, hi),
                period_iters: period,
                lines: intervals.len(),
                ways: geom.ways,
                killed_fraction: killed as f64 / iv.len as f64,
            });
        }
    }
    let frac = |kind: ClassKind| -> f64 {
        kill_len
            .get(&kind)
            .map_or(0.0, |&(k, t)| if t > 0 { k as f64 / t as f64 } else { 0.0 })
    };
    let column_kill = frac(ClassKind::Column);
    let plane_kill = frac(ClassKind::Plane);
    let pathological = !thrash_refs.is_empty() || column_kill >= 0.5 || plane_kill >= 0.5;
    ConflictReport {
        witnesses,
        thrash_refs,
        column_kill,
        plane_kill,
        pathological,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_fixture() -> ReuseHistogram {
        let mut h = ReuseHistogram::new(700.0);
        h.push("cold", ClassKind::Cold, f64::INFINITY, 25.0);
        h.push("K", ClassKind::Plane, 20_000.0, 50.0);
        h.push("J", ClassKind::Column, 1_500.0, 50.0);
        h.push("spatial", ClassKind::Spatial, 32.0, 475.0);
        h.push("writes", ClassKind::Uncached, f64::INFINITY, 100.0);
        h.push("empty", ClassKind::Plane, 10.0, 0.0); // dropped
        h
    }

    #[test]
    fn miss_curve_steps_at_class_distances() {
        let h = hist_fixture();
        assert_eq!(h.classes.len(), 5);
        // Below spatial distance: everything misses.
        assert_eq!(h.misses_at(16.0), 700.0);
        // 16K-class capacity: spatial + J survive, K + cold + writes miss.
        assert_eq!(h.misses_at(2048.0), 175.0);
        // Beyond the K distance: only cold + writes.
        assert_eq!(h.misses_at(30_000.0), 125.0);
        assert_eq!(h.knees(), vec![32, 1_500, 20_000]);
        let curve = h.miss_curve(&[16, 2048, 30_000]);
        assert!((curve[1].1 - 100.0 * 175.0 / 700.0).abs() < 1e-12);
    }

    #[test]
    fn surviving_counts_gate_on_capacity() {
        let h = hist_fixture();
        // At 16K the J class survives (can be killed by conflicts), K does
        // not (already missing in the FA model).
        assert_eq!(h.surviving_count(ClassKind::Column, 2048.0), 50.0);
        assert_eq!(h.surviving_count(ClassKind::Plane, 2048.0), 0.0);
        assert_eq!(h.surviving_count(ClassKind::Plane, 30_000.0), 50.0);
        assert_eq!(h.total_count(ClassKind::Column), 50.0);
    }

    /// The UltraSparc2 L1 as a set geometry.
    fn us2() -> SetGeometry {
        SetGeometry {
            sets: 512,
            line_elems: 4,
            ways: 1,
        }
    }

    fn jacobi_refs(di: i64, ps: i64, base: i64) -> Vec<PointRef> {
        vec![
            PointRef {
                label: "B(-1,0,0)",
                offset: base - 1,
            },
            PointRef {
                label: "B(+1,0,0)",
                offset: base + 1,
            },
            PointRef {
                label: "B(0,-1,0)",
                offset: base - di,
            },
            PointRef {
                label: "B(0,+1,0)",
                offset: base + di,
            },
            PointRef {
                label: "B(0,0,-1)",
                offset: base - ps,
            },
            PointRef {
                label: "B(0,0,+1)",
                offset: base + ps,
            },
        ]
    }

    fn jacobi_live(di: i64, ps: i64, base: i64) -> Vec<LiveInterval> {
        vec![
            LiveInterval {
                label: "cols[j-1..j+1]",
                start: base - di,
                len: 3 * di as usize,
                protects: Some(ClassKind::Column),
            },
            LiveInterval {
                label: "stream k-1",
                start: base - ps,
                len: di as usize,
                protects: None,
            },
            LiveInterval {
                label: "stream k+1",
                start: base + ps,
                len: di as usize,
                protects: None,
            },
        ]
    }

    #[test]
    fn conflict_clean_size_emits_no_witnesses() {
        // N = 280 on the paper's L1: plane stride 78400 = 576 mod 2048.
        // The k+-1 streams land at +-576, clear of the 3-column band
        // [-280, 560) — the size the predictor's simulator cross-check
        // calls "conflict-clean".
        let (di, ps) = (280i64, 280 * 280i64);
        let rep = analyze_conflicts(
            &us2(),
            &jacobi_refs(di, ps, 0),
            &jacobi_live(di, ps, 0),
            280,
        );
        assert!(rep.witnesses.is_empty(), "{:?}", rep.witnesses);
        assert_eq!(rep.column_kill, 0.0);
        assert!(!rep.pathological);
    }

    #[test]
    fn partial_plane_stride_interference_at_n300() {
        // N = 300: plane stride 90000 = 1936 = -112 mod 2048. The k-1
        // stream covers [112, 412) and the k+1 stream [-112, 188) relative
        // to the column band [-300, 600); the union of the overlaps is
        // [-112, 412) + [1936, 2048) = 524 of the 900 band elements ->
        // 58% of the J reuse dies in a direct-mapped cache.
        let (di, ps) = (300i64, 300 * 300i64);
        let rep = analyze_conflicts(
            &us2(),
            &jacobi_refs(di, ps, 0),
            &jacobi_live(di, ps, 0),
            300,
        );
        assert!(rep.thrash_refs.is_empty());
        assert!(
            (rep.column_kill - 524.0 / 900.0).abs() < 1e-9,
            "column_kill = {}",
            rep.column_kill
        );
        let w: Vec<_> = rep
            .witnesses
            .iter()
            .filter(|w| w.kind == WitnessKind::BandOverlap)
            .collect();
        assert_eq!(w.len(), 1);
        assert!(w[0].refs.contains(&"cols[j-1..j+1]"));
        assert!(w[0].refs.contains(&"stream k-1"));
        assert!(w[0].refs.contains(&"stream k+1"));
        // Row stride 300 against span 2048: gcd 4 -> period 512 rows.
        assert_eq!(w[0].period_iters, 512);
        assert!(
            rep.pathological,
            "2/3 of a reuse class dying is pathological"
        );
    }

    #[test]
    fn pathological_plane_stride_thrashes() {
        // di = dj = 256: plane stride 65536 = 0 mod 2048. The k+-1 plane
        // references land in the same set window as the centre column's
        // B(i+-1) reads: 3 distinct lines contending for 1 way, every
        // iteration — the paper's motivating disaster case.
        let (di, ps) = (256i64, 256 * 256i64);
        let rep = analyze_conflicts(
            &us2(),
            &jacobi_refs(di, ps, 0),
            &jacobi_live(di, ps, 0),
            256,
        );
        let thrash: Vec<_> = rep
            .witnesses
            .iter()
            .filter(|w| w.kind == WitnessKind::ThrashGroup)
            .collect();
        assert_eq!(thrash.len(), 1, "{:?}", rep.witnesses);
        let w = thrash[0];
        assert_eq!(w.period_iters, 1);
        assert_eq!(w.lines, 3);
        assert!(w.refs.contains(&"B(0,0,-1)"));
        assert!(w.refs.contains(&"B(0,0,+1)"));
        assert!(w.refs.contains(&"B(-1,0,0)"));
        assert!(rep.pathological);
        assert_eq!(rep.thrash_refs.len(), 4);
    }

    #[test]
    fn associativity_absorbs_the_same_overlap() {
        // Same N = 300 footprint on an 8-way geometry of equal span:
        // coverage never exceeds 8 ways -> no kill, no witnesses.
        let g8 = SetGeometry {
            sets: 64,
            line_elems: 8,
            ways: 8,
        };
        let (di, ps) = (300i64, 300 * 300i64);
        let rep = analyze_conflicts(&g8, &jacobi_refs(di, ps, 0), &jacobi_live(di, ps, 0), 300);
        assert_eq!(rep.column_kill, 0.0, "{:?}", rep.witnesses);
        assert!(rep.thrash_refs.is_empty());
        assert!(!rep.pathological);
    }

    #[test]
    fn fully_associative_geometry_reports_nothing() {
        let fa = SetGeometry {
            sets: 1,
            line_elems: 4,
            ways: 512,
        };
        let (di, ps) = (256i64, 256 * 256i64);
        let rep = analyze_conflicts(&fa, &jacobi_refs(di, ps, 0), &jacobi_live(di, ps, 0), 256);
        assert!(rep.witnesses.is_empty());
    }

    #[test]
    fn wrapped_interval_residues() {
        // Interval of 100 starting at residue 2000 mod 2048 wraps into
        // [2000, 2048) + [0, 52).
        let (wraps, segs) = residue_segments(2000, 100, 2048);
        assert_eq!(wraps, 0);
        assert_eq!(segs, vec![(2000, 2048), (0, 52)]);
        // A 5000-element interval wraps the ring twice with a 904 tail.
        let (wraps, segs) = residue_segments(0, 5000, 2048);
        assert_eq!(wraps, 2);
        assert_eq!(segs, vec![(0, 904)]);
    }

    #[test]
    fn self_wrapping_band_is_fully_killed() {
        // A protected band longer than the span conflicts with itself.
        let g = us2();
        let live = [LiveInterval {
            label: "huge band",
            start: 0,
            len: 4096,
            protects: Some(ClassKind::Column),
        }];
        let rep = analyze_conflicts(&g, &[], &live, 64);
        assert_eq!(rep.column_kill, 1.0);
        assert!(rep.pathological);
    }
}
