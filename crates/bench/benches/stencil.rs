//! Micro-benchmark of the row-segment engine vs the per-point reference
//! sweeps, per kernel x transform, plus K-slab thread scaling and the
//! temporal (time-skewed) A/B.
//!
//! Emits `BENCH_stencil.json` at the repository root: GFLOP/s per arm and
//! an engine-vs-per-point speedup per kernel x transform. Sizes are cache-resident by default so the
//! comparison isolates loop overhead (bounds checks, per-point dispatch,
//! vectorization) rather than DRAM bandwidth. Every timed arm is guarded
//! by a bitwise golden gate against the per-point reference first.
//!
//! ```text
//! cargo bench -p tiling3d-bench --bench stencil            # full
//! cargo bench -p tiling3d-bench --bench stencil -- --quick # CI smoke
//! cargo bench -p tiling3d-bench --bench stencil -- --jobs 4
//! ```

use std::hint::black_box;

use tiling3d_bench::microbench::{run, run_pair, to_json, Measurement};
use tiling3d_bench::{plan_for, SimPool, SweepConfig};
use tiling3d_core::{plan_temporal, CacheSpec, TemporalKernel, Transform};
use tiling3d_grid::{fill_random, Array3};
use tiling3d_loopnest::TileDims;
use tiling3d_stencil::kernels::{Kernel, KernelState};
use tiling3d_stencil::redblack::Schedule;
use tiling3d_stencil::resid::Coeffs;
use tiling3d_stencil::timetile::{self, TimeTile};
use tiling3d_stencil::{parallel, reference};

/// Runs one per-point reference sweep on harness-allocated state — the
/// baseline arm of every A/B pair.
fn run_reference(kernel: Kernel, state: &mut KernelState, tile: Option<(usize, usize)>) {
    let t = tile.map(|(ti, tj)| TileDims::new(ti, tj));
    match (kernel, state) {
        (Kernel::Jacobi, KernelState::Jacobi { a, b }) => {
            reference::jacobi3d(a, b, 1.0 / 6.0, t);
        }
        (Kernel::RedBlack, KernelState::RedBlack { a }) => {
            let sched = match t {
                None => Schedule::Naive,
                Some(t) => Schedule::Tiled(t),
            };
            reference::redblack(a, 0.4, 0.1, sched);
        }
        (Kernel::Resid, KernelState::Resid { r, u, v }) => {
            reference::resid(r, u, v, &Coeffs::MGRID_A, t);
        }
        _ => panic!("kernel/state mismatch"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    let (n, nk) = if quick { (64, 8) } else { (128, 16) };
    let cfg = SweepConfig {
        nk,
        ..Default::default()
    };
    let cores = SimPool::new(jobs).jobs();

    println!("{:<44}{:>22}{:>19}", "benchmark", "time", "throughput");
    let mut results: Vec<Measurement> = Vec::new();
    let mut derived: Vec<(String, f64)> = Vec::new();

    for kernel in Kernel::ALL {
        let flops = kernel.sweep_flops(n, nk);
        for t in [Transform::Orig, Transform::GcdPad] {
            let p = plan_for(&cfg, kernel, t, n);

            // Golden guard before timing: the row engine and the per-point
            // reference, run from identical state, must agree bitwise.
            let mut eng_check = kernel.make_state(n, nk, &p, 0x5EED);
            let mut ref_check = eng_check.clone();
            kernel.run(&mut eng_check, p.tile);
            run_reference(kernel, &mut ref_check, p.tile);
            assert!(
                eng_check.output().logical_eq(ref_check.output()),
                "{}/{}: row engine diverged from per-point reference",
                kernel.name(),
                t.name()
            );

            let mut eng_state = kernel.make_state(n, nk, &p, 0x5EED);
            let mut ref_state = eng_state.clone();
            let (eng, reference) = run_pair(
                &format!("{}/{}/engine", kernel.name(), t.name()),
                &format!("{}/{}/perpoint", kernel.name(), t.name()),
                Some(flops),
                || kernel.run(black_box(&mut eng_state), p.tile),
                || run_reference(kernel, black_box(&mut ref_state), p.tile),
            );
            let key = format!("{}_{}", kernel.name(), t.name());
            if let (Some(fast), Some(slow)) = (eng.per_sec(), reference.per_sec()) {
                derived.push((format!("speedup_{key}"), fast / slow));
                derived.push((format!("gflops_{key}_engine"), fast / 1e9));
                derived.push((format!("gflops_{key}_perpoint"), slow / 1e9));
            }
            results.extend([eng, reference]);
        }

        // K-slab thread scaling on the tiled plan, all three kernels
        // (red-black runs its two-phase colour-barrier sweep).
        let p = plan_for(&cfg, kernel, Transform::GcdPad, n);
        let mut threads: Vec<usize> = vec![1, 2, cores];
        threads.sort_unstable();
        threads.dedup();
        for th in threads {
            let mut state = kernel.make_state(n, nk, &p, 0x5EED);
            let m = run(
                &format!("{}/parallel/t{th}", kernel.name()),
                Some(flops),
                || kernel.run_parallel(black_box(&mut state), p.tile, th),
            );
            if let Some(rate) = m.per_sec() {
                derived.push((format!("gflops_{}_t{th}", kernel.name()), rate / 1e9));
            }
            results.push(m);
        }
    }

    // -------------------------------------------------------------------
    // Temporal A/B: T iterated sweeps under the best spatial-only plan vs
    // the time-skewed (T, K') schedule, at a size whose working set busts
    // the cache so cross-timestep reuse is the only win available. Both
    // arms run the same row-segment engine; a golden gate holds the
    // time-tiled result bitwise equal to the iterated reference first.
    let steps = 8usize;
    let (tn, tnk) = if quick { (48, 24) } else { (192, 96) };
    let tcfg = SweepConfig {
        nk: tnk,
        ..Default::default()
    };
    let mut threads: Vec<usize> = vec![1, 2, cores];
    threads.sort_unstable();
    threads.dedup();

    for kernel in [Kernel::Jacobi, Kernel::RedBlack] {
        let p = plan_for(&tcfg, kernel, Transform::GcdPad, tn);
        let t = p.tile.map(|(ti, tj)| TileDims::new(ti, tj));
        let tkern = match kernel {
            Kernel::Jacobi => TemporalKernel::Jacobi,
            _ => TemporalKernel::RedBlack,
        };
        let tplan = plan_temporal(
            tkern,
            CacheSpec::from_bytes(8 * 1024 * 1024),
            tn * tn,
            steps,
            cores,
        );
        let tile = TimeTile {
            st: tplan.st,
            sk: tplan.sk,
        };
        let label = format!("{}_T{steps}", kernel.name());
        let tflops = kernel.sweep_flops(tn, tnk) * steps as u64;
        let mut seed_buf = Array3::with_padding(tn, tn, tnk, p.padded_di, p.padded_dj);
        fill_random(&mut seed_buf, 0x5EED);

        // Golden gate: the time-tiled schedule must reproduce T reference
        // sweeps bitwise (wavefront-parallel, to exercise the planes too).
        match kernel {
            Kernel::Jacobi => {
                let mut golden = [seed_buf.clone(), seed_buf.clone()];
                timetile::jacobi_steps_reference(&mut golden, 1.0 / 6.0, steps);
                let mut tiled = [seed_buf.clone(), seed_buf.clone()];
                timetile::jacobi_time_tiled(&mut tiled, 1.0 / 6.0, steps, tile, 2);
                assert!(
                    golden[steps % 2].logical_eq(&tiled[steps % 2]),
                    "{label}: time-tiled diverged from iterated reference"
                );
            }
            _ => {
                let mut golden = seed_buf.clone();
                timetile::redblack_steps_reference(&mut golden, 0.4, 0.1, steps);
                let mut tiled = seed_buf.clone();
                timetile::redblack_time_tiled(&mut tiled, 0.4, 0.1, steps, tile, 2);
                assert!(
                    golden.logical_eq(&tiled),
                    "{label}: time-tiled diverged from iterated reference"
                );
            }
        }

        for &th in &threads {
            let spatial = match kernel {
                Kernel::Jacobi => {
                    let mut bufs = [seed_buf.clone(), seed_buf.clone()];
                    run(&format!("{label}/spatial/t{th}"), Some(tflops), || {
                        let [x, y] = black_box(&mut bufs);
                        for s in 0..steps {
                            let (src, dst) = if s % 2 == 0 {
                                (&*x, &mut *y)
                            } else {
                                (&*y, &mut *x)
                            };
                            parallel::jacobi3d_sweep(dst, src, 1.0 / 6.0, t, th);
                        }
                    })
                }
                _ => {
                    let mut a = seed_buf.clone();
                    run(&format!("{label}/spatial/t{th}"), Some(tflops), || {
                        for _ in 0..steps {
                            parallel::redblack_sweep(black_box(&mut a), 0.4, 0.1, t, th);
                        }
                    })
                }
            };
            let tiled = match kernel {
                Kernel::Jacobi => {
                    let mut bufs = [seed_buf.clone(), seed_buf.clone()];
                    run(&format!("{label}/timetile/t{th}"), Some(tflops), || {
                        timetile::jacobi_time_tiled(
                            black_box(&mut bufs),
                            1.0 / 6.0,
                            steps,
                            tile,
                            th,
                        );
                    })
                }
                _ => {
                    let mut a = seed_buf.clone();
                    run(&format!("{label}/timetile/t{th}"), Some(tflops), || {
                        timetile::redblack_time_tiled(black_box(&mut a), 0.4, 0.1, steps, tile, th);
                    })
                }
            };
            if let (Some(sp), Some(tt)) = (spatial.per_sec(), tiled.per_sec()) {
                derived.push((format!("speedup_{label}_t{th}"), tt / sp));
                derived.push((format!("gflops_{label}_spatial_t{th}"), sp / 1e9));
                derived.push((format!("gflops_{label}_timetile_t{th}"), tt / 1e9));
            }
            results.extend([spatial, tiled]);
        }
    }

    println!("\nderived (engine vs per-point reference, GFLOP/s):");
    for (k, v) in &derived {
        if k.starts_with("speedup") {
            println!("  {k:<42}{v:>8.2}x");
        } else {
            println!("  {k:<42}{v:>8.2}");
        }
    }

    let json = to_json("stencil", &results, &derived);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stencil.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
