//! Micro-benchmarks of the cache-simulation substrate: raw access
//! throughput through the reference (per-access) probe vs the MRU
//! fast-path probe, and full kernel-trace simulation rates — the costs
//! behind every miss-rate figure.
//!
//! Emits `BENCH_cachesim.json` at the repository root so successive PRs
//! can diff engine throughput; the `fast_path_speedup_*` derived fields
//! record the before/after gain of the fast-path + batched-run engine.
//!
//! ```text
//! cargo bench -p tiling3d-bench --bench cachesim
//! ```

use std::hint::black_box;

use tiling3d_bench::microbench::{run_pair, to_json, Measurement};
use tiling3d_bench::{plan_for, SweepConfig};
use tiling3d_cachesim::{AccessSink, Cache, CacheConfig, Hierarchy};
use tiling3d_core::{Transform, TransformPlan};
use tiling3d_stencil::kernels::Kernel;

/// Two-level hierarchy with every engine optimization disabled: per-access
/// reference probes, default (unbatched) `read_run` and `row`. The
/// "before" engine.
struct ReferenceHierarchy {
    l1: Cache,
    l2: Cache,
}

impl AccessSink for ReferenceHierarchy {
    fn read(&mut self, addr: u64) {
        if self.l1.access_reference(addr, false) {
            self.l2.access_reference(addr, false);
        }
    }

    fn write(&mut self, addr: u64) {
        self.l1.access_reference(addr, true);
        self.l2.access_reference(addr, true);
    }
}

fn bench_raw_access(results: &mut Vec<Measurement>) {
    let accesses: u64 = 1 << 16;
    for ways in [1usize, 4] {
        let cfg = CacheConfig {
            ways,
            ..CacheConfig::ULTRASPARC2_L1
        };
        // Stride-24 walk over 1MB: mixes same-line repeats (32B lines)
        // with misses. Arms are interleaved (`run_pair`) so background
        // load drift hits both equally and the ratio stays meaningful.
        let mut reference = Cache::new(cfg);
        let mut fast = Cache::new(cfg);
        let (a, b) = run_pair(
            &format!("raw_access/reference/ways{ways}"),
            &format!("raw_access/fast/ways{ways}"),
            Some(accesses),
            || {
                for i in 0..accesses {
                    reference.access_reference(black_box(i * 24 % (1 << 20)), false);
                }
            },
            || {
                for i in 0..accesses {
                    fast.access(black_box(i * 24 % (1 << 20)), false);
                }
            },
        );
        results.extend([a, b]);
    }
    // Unit-stride doubles — the stencil inner-loop pattern the MRU
    // short-circuit and read_run batching exist for.
    let mut per_access = Cache::new(CacheConfig::ULTRASPARC2_L1);
    let mut batched = Cache::new(CacheConfig::ULTRASPARC2_L1);
    let (a, b) = run_pair(
        "raw_access/fast/unit_stride",
        "raw_access/batched/unit_stride",
        Some(accesses),
        || {
            for i in 0..accesses {
                per_access.access(black_box(i * 8 % (1 << 20)), false);
            }
        },
        || {
            let mut a = 0u64;
            while a < accesses * 8 {
                batched.read_run(black_box(a % (1 << 20)), 8, 512);
                a += 512 * 8;
            }
        },
    );
    results.extend([a, b]);
}

/// The trace replays live in standalone non-inlined functions so each arm
/// gets the same code layout it would have in a real driver, independent
/// of the benchmark-harness closures around it.
#[inline(never)]
fn sim_reference(kernel: Kernel, n: usize, nk: usize, p: &TransformPlan) -> u64 {
    let mut h = ReferenceHierarchy {
        l1: Cache::new(CacheConfig::ULTRASPARC2_L1),
        l2: Cache::new(CacheConfig::ULTRASPARC2_L2),
    };
    kernel.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut h);
    h.l1.stats().misses
}

#[inline(never)]
fn sim_fast(kernel: Kernel, n: usize, nk: usize, p: &TransformPlan) -> u64 {
    let mut h = Hierarchy::ultrasparc2();
    kernel.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut h);
    h.l1_stats().misses
}

/// Untiled `Orig` (one long row per `(j, k)`) and `GcdPad` (padded
/// arrays, rows one tile wide), with the padding and tile the drivers use.
fn bench_trace_simulation(results: &mut Vec<Measurement>) {
    let (n, nk) = (200usize, 8usize);
    let cfg = SweepConfig::default();
    for t in [Transform::Orig, Transform::GcdPad] {
        let suffix = if t == Transform::Orig {
            String::new()
        } else {
            format!("/{}", t.name())
        };
        for kernel in [Kernel::Jacobi, Kernel::Resid] {
            let p = plan_for(&cfg, kernel, t, n);
            let pts = ((n - 2) * (n - 2) * (nk - 2)) as u64;
            let accesses = pts * kernel.accesses_per_point();
            let (a, b) = run_pair(
                &format!("trace_sim/reference/{}{suffix}", kernel.name()),
                &format!("trace_sim/fast/{}{suffix}", kernel.name()),
                Some(accesses),
                || {
                    black_box(sim_reference(kernel, n, nk, &p));
                },
                || {
                    black_box(sim_fast(kernel, n, nk, &p));
                },
            );
            results.extend([a, b]);
        }
    }
}

fn speedup(results: &[Measurement], slow: &str, fast: &str) -> Option<(String, f64)> {
    let find = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .and_then(tiling3d_bench::microbench::Measurement::per_sec)
    };
    let key = fast
        .trim_start_matches("trace_sim/fast/")
        .trim_start_matches("raw_access/fast/")
        .trim_start_matches("raw_access/batched/")
        .replace('/', "_");
    Some((
        format!("fast_path_speedup_{key}"),
        find(fast)? / find(slow)?,
    ))
}

fn main() {
    println!("{:<44}{:>22}{:>19}", "benchmark", "time", "throughput");
    let mut results = Vec::new();
    bench_raw_access(&mut results);
    bench_trace_simulation(&mut results);

    let derived: Vec<(String, f64)> = [
        speedup(
            &results,
            "raw_access/reference/ways1",
            "raw_access/fast/ways1",
        ),
        speedup(
            &results,
            "raw_access/reference/ways4",
            "raw_access/fast/ways4",
        ),
        speedup(
            &results,
            "raw_access/fast/unit_stride",
            "raw_access/batched/unit_stride",
        ),
        speedup(
            &results,
            "trace_sim/reference/JACOBI",
            "trace_sim/fast/JACOBI",
        ),
        speedup(
            &results,
            "trace_sim/reference/RESID",
            "trace_sim/fast/RESID",
        ),
        speedup(
            &results,
            "trace_sim/reference/JACOBI/GcdPad",
            "trace_sim/fast/JACOBI/GcdPad",
        ),
        speedup(
            &results,
            "trace_sim/reference/RESID/GcdPad",
            "trace_sim/fast/RESID/GcdPad",
        ),
    ]
    .into_iter()
    .flatten()
    .collect();

    println!("\nderived (engine vs per-access reference):");
    for (k, v) in &derived {
        println!("  {k:<42}{v:>8.2}x");
    }

    let json = to_json("cachesim", &results, &derived);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cachesim.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
