//! Fault-injection integration suite: the DESIGN.md §13 guarantees,
//! proven end to end over `simulate_grid_supervised`.
//!
//! For every worker count and fault kind: an injected fault at any seeded
//! point yields a *complete* sweep where exactly that point carries the
//! matching typed [`SweepError`] and every other point is bit-identical
//! to the fault-free run; with once-only faults plus a retry budget the
//! whole sweep recovers bit-identically. Checkpoints written along the
//! way validate against the golden schema, and a truncated
//! (interrupted) checkpoint resumes to results byte-identical to an
//! uninterrupted sweep. The wall-clock sweep (`measure_grid_supervised`,
//! sequential and K-slab arms) runs on the same supervised grid, so the
//! same faults fail the same points there.

use std::time::Duration;

use tiling3d_bench::checkpoint;
use tiling3d_bench::fault::{FaultKind, FaultMode, FaultPlan};
use tiling3d_bench::{
    measure_grid_supervised, simulate_grid_supervised, supervise, SimPoint, SupervisePolicy,
    SweepConfig, SweepError, SweepOptions,
};
use tiling3d_core::Transform;
use tiling3d_stencil::kernels::Kernel;

const JOBS: [usize; 2] = [1, 8];
const SEED: u64 = 0xC0FFEE;
const FAULTS: usize = 2;
const DELAY: Duration = Duration::from_millis(400);
const DEADLINE: Duration = Duration::from_millis(150);

fn cfg(jobs: usize) -> SweepConfig {
    SweepConfig {
        n_min: 16,
        n_max: 24,
        step: 8,
        nk: 4,
        jobs,
        ..SweepConfig::default()
    }
}

fn keys(cfg: &SweepConfig, kernel: Kernel) -> Vec<String> {
    cfg.sizes()
        .iter()
        .flat_map(|&n| {
            Transform::ALL
                .iter()
                .map(move |&t| checkpoint::point_key(kernel, t, n, cfg.nk))
        })
        .collect()
}

fn baseline(cfg: &SweepConfig, kernel: Kernel) -> Vec<(usize, Vec<Result<SimPoint, SweepError>>)> {
    let sg = simulate_grid_supervised(cfg, kernel, &Transform::ALL, &SweepOptions::default())
        .expect("baseline setup");
    assert!(sg.report.is_ok(), "{}", sg.report.summary());
    sg.rows
}

fn same_bits(a: &SimPoint, b: &SimPoint) -> bool {
    a.l1_pct.to_bits() == b.l1_pct.to_bits()
        && a.l2_pct.to_bits() == b.l2_pct.to_bits()
        && a.modeled.to_bits() == b.modeled.to_bits()
}

fn policy_for(kind: FaultKind, retries: u32) -> SupervisePolicy {
    SupervisePolicy {
        retries,
        backoff: Duration::from_millis(1),
        deadline: matches!(kind, FaultKind::Delay(_)).then_some(DEADLINE),
        ..SupervisePolicy::default()
    }
}

fn expected_error(kind: FaultKind, e: &SweepError) -> bool {
    match kind {
        FaultKind::Panic => matches!(e.root(), SweepError::Panicked { .. }),
        FaultKind::Delay(_) => matches!(e.root(), SweepError::DeadlineExceeded { .. }),
        FaultKind::NanWrite => matches!(e.root(), SweepError::Unhealthy { .. }),
    }
}

/// Graceful degradation: always-firing faults fail exactly the armed
/// points with the matching typed error; everything else stays
/// bit-identical to the fault-free sweep — at every worker count.
#[test]
fn injected_faults_degrade_only_the_armed_points() {
    supervise::silence_expected_panics();
    let kernel = Kernel::Jacobi;
    for jobs in JOBS {
        let cfg = cfg(jobs);
        let base = baseline(&cfg, kernel);
        let all_keys = keys(&cfg, kernel);
        for kind in [
            FaultKind::Panic,
            FaultKind::NanWrite,
            FaultKind::Delay(DELAY),
        ] {
            let plan = FaultPlan::seeded(SEED, &all_keys, FAULTS, kind, FaultMode::Always);
            let armed: Vec<String> = plan.armed().iter().map(ToString::to_string).collect();
            assert_eq!(armed.len(), FAULTS, "seeded plan must arm {FAULTS} points");
            let opts = SweepOptions {
                policy: policy_for(kind, 0),
                fault: Some(plan),
                ..SweepOptions::default()
            };
            let sg = simulate_grid_supervised(&cfg, kernel, &Transform::ALL, &opts)
                .expect("campaign setup");
            assert_eq!(sg.report.failures.len(), FAULTS, "{}", sg.report.summary());
            for ((n, row), (_, base_row)) in sg.rows.iter().zip(&base) {
                for ((&t, got), b) in Transform::ALL.iter().zip(row).zip(base_row) {
                    let key = checkpoint::point_key(kernel, t, *n, cfg.nk);
                    let is_armed = armed.contains(&key);
                    match got {
                        Ok(p) => {
                            assert!(!is_armed, "jobs {jobs} {kind:?}: armed {key} succeeded");
                            assert!(
                                same_bits(p, b.as_ref().unwrap()),
                                "jobs {jobs} {kind:?}: unfaulted {key} drifted from baseline"
                            );
                        }
                        Err(e) => {
                            assert!(
                                is_armed,
                                "jobs {jobs} {kind:?}: unfaulted {key} failed: {e}"
                            );
                            assert!(
                                expected_error(kind, e),
                                "jobs {jobs} {kind:?}: wrong error at {key}: {e}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Recovery determinism: once-only faults plus one retry produce a fully
/// successful sweep that is bit-identical to the fault-free run.
#[test]
fn retries_recover_bit_identically_from_once_faults() {
    supervise::silence_expected_panics();
    let kernel = Kernel::Resid;
    for jobs in JOBS {
        let cfg = cfg(jobs);
        let base = baseline(&cfg, kernel);
        let all_keys = keys(&cfg, kernel);
        for kind in [
            FaultKind::Panic,
            FaultKind::NanWrite,
            FaultKind::Delay(DELAY),
        ] {
            let plan = FaultPlan::seeded(SEED, &all_keys, FAULTS, kind, FaultMode::Once);
            let opts = SweepOptions {
                policy: policy_for(kind, 1),
                fault: Some(plan),
                ..SweepOptions::default()
            };
            let sg = simulate_grid_supervised(&cfg, kernel, &Transform::ALL, &opts)
                .expect("campaign setup");
            assert!(
                sg.report.is_ok(),
                "jobs {jobs} {kind:?}: {}",
                sg.report.summary()
            );
            for ((_, row), (_, base_row)) in sg.rows.iter().zip(&base) {
                for (got, b) in row.iter().zip(base_row) {
                    assert!(
                        same_bits(got.as_ref().unwrap(), b.as_ref().unwrap()),
                        "jobs {jobs} {kind:?}: recovered sweep drifted from baseline"
                    );
                }
            }
        }
    }
}

/// Strict mode restores fail-fast: after the first terminal failure the
/// remaining points report `Aborted` instead of running.
#[test]
fn strict_mode_aborts_after_the_first_failure() {
    supervise::silence_expected_panics();
    let kernel = Kernel::Jacobi;
    let cfg = cfg(1);
    let all_keys = keys(&cfg, kernel);
    // Arm the very first point so everything after it must abort.
    let plan = FaultPlan::explicit([(all_keys[0].clone(), FaultKind::Panic)], FaultMode::Always);
    let opts = SweepOptions {
        policy: SupervisePolicy {
            fail_fast: true,
            ..SupervisePolicy::strict()
        },
        fault: Some(plan),
        ..SweepOptions::default()
    };
    let sg =
        simulate_grid_supervised(&cfg, kernel, &Transform::ALL, &opts).expect("campaign setup");
    let flat: Vec<&Result<SimPoint, SweepError>> =
        sg.rows.iter().flat_map(|(_, row)| row.iter()).collect();
    assert!(
        matches!(flat[0], Err(e) if matches!(e.root(), SweepError::Panicked { .. })),
        "first point must carry the panic"
    );
    assert!(
        flat[1..]
            .iter()
            .all(|r| matches!(r, Err(SweepError::Aborted))),
        "strict mode must abort the remainder: {:?}",
        sg.report.summary()
    );
}

/// Checkpoint integrity + resume determinism: the checkpoint written by a
/// sweep validates against the golden schema; truncating it (a simulated
/// crash) and resuming yields results bit-identical to an uninterrupted
/// sweep, with the surviving prefix restored instead of recomputed.
#[test]
fn interrupted_checkpoint_resumes_bit_identically() {
    let kernel = Kernel::RedBlack;
    let cfg = cfg(1);
    let dir = std::env::temp_dir().join(format!("t3d-fault-suite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("sweep.ckpt.jsonl");

    // Uninterrupted run, writing the checkpoint.
    let opts = SweepOptions {
        checkpoint: Some(path.clone()),
        ..SweepOptions::default()
    };
    let full = simulate_grid_supervised(&cfg, kernel, &Transform::ALL, &opts).expect("full sweep");
    assert!(full.report.is_ok(), "{}", full.report.summary());
    let report = checkpoint::validate_file(&path).expect("checkpoint readable");
    assert!(report.is_ok(), "golden-schema drift: {}", report.summary());

    // Simulate a crash: keep the header plus the first three point lines.
    let text = std::fs::read_to_string(&path).expect("read checkpoint");
    let keep: Vec<&str> = text.lines().take(4).collect();
    assert!(keep.len() == 4, "sweep too small to truncate meaningfully");
    std::fs::write(&path, format!("{}\n", keep.join("\n"))).expect("truncate");

    // Resume: restored prefix + recomputed remainder, bit-identical.
    let opts = SweepOptions {
        checkpoint: Some(path.clone()),
        resume: true,
        ..SweepOptions::default()
    };
    let resumed =
        simulate_grid_supervised(&cfg, kernel, &Transform::ALL, &opts).expect("resumed sweep");
    assert!(resumed.report.is_ok(), "{}", resumed.report.summary());
    assert_eq!(resumed.report.restored, 3, "prefix must come from the log");
    for ((_, row), (_, full_row)) in resumed.rows.iter().zip(&full.rows) {
        for (got, want) in row.iter().zip(full_row) {
            assert!(
                same_bits(got.as_ref().unwrap(), want.as_ref().unwrap()),
                "resumed sweep drifted from the uninterrupted run"
            );
        }
    }

    // And the rewritten checkpoint still validates.
    let report = checkpoint::validate_file(&path).expect("checkpoint readable");
    assert!(report.is_ok(), "{}", report.summary());

    // A fault-free rerun in resume mode restores *everything*.
    let opts = SweepOptions {
        checkpoint: Some(path.clone()),
        resume: true,
        ..SweepOptions::default()
    };
    let restored =
        simulate_grid_supervised(&cfg, kernel, &Transform::ALL, &opts).expect("restored sweep");
    assert_eq!(
        restored.report.restored, restored.report.total,
        "a complete checkpoint must restore every point"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A small wall-clock sweep: N = 40..56 step 8, one timed rep per point.
fn wall_clock_cfg() -> SweepConfig {
    SweepConfig {
        n_min: 40,
        n_max: 56,
        step: 8,
        nk: 8,
        reps: 1,
        ..SweepConfig::default()
    }
}

/// Fail-fast on the wall-clock sweep, for the sequential and the K-slab
/// arm: a panic injected at the first point fails that point, and every
/// later point reports `Aborted` instead of being timed.
#[test]
fn wall_clock_sweep_fails_fast_after_an_injected_panic() {
    supervise::silence_expected_panics();
    let kernel = Kernel::Jacobi;
    let cfg = wall_clock_cfg();
    let all_keys = keys(&cfg, kernel);
    for slabs in [None, Some(2)] {
        let plan =
            FaultPlan::explicit([(all_keys[0].clone(), FaultKind::Panic)], FaultMode::Always);
        let opts = SweepOptions {
            policy: SupervisePolicy::strict(),
            fault: Some(plan),
            ..SweepOptions::default()
        };
        let grid = measure_grid_supervised(&cfg, kernel, &Transform::ALL, slabs, &opts);
        let flat: Vec<&Result<f64, SweepError>> =
            grid.rows.iter().flat_map(|(_, row)| row.iter()).collect();
        assert_eq!(flat.len(), all_keys.len(), "slabs {slabs:?}");
        assert!(
            matches!(flat[0], Err(e) if matches!(e.root(), SweepError::Panicked { .. })),
            "slabs {slabs:?}: first point must carry the panic, got {:?}",
            flat[0]
        );
        assert!(
            flat[1..]
                .iter()
                .all(|r| matches!(r, Err(SweepError::Aborted))),
            "slabs {slabs:?}: strict mode must abort the remainder: {}",
            grid.report.summary()
        );
        assert_eq!(
            grid.report.failures.len(),
            all_keys.len(),
            "slabs {slabs:?}"
        );
    }
}

/// The health scan on the wall-clock sweep, for the sequential and the
/// K-slab arm: a NaN written into one point's output grid after the
/// warm-up fails that point as `Unhealthy`; every other point is timed
/// to a finite, positive MFlops.
#[test]
fn wall_clock_sweep_rejects_a_poisoned_grid_as_unhealthy() {
    let kernel = Kernel::Resid;
    let cfg = wall_clock_cfg();
    let victim = keys(&cfg, kernel)[7].clone();
    for slabs in [None, Some(2)] {
        let plan = FaultPlan::explicit([(victim.clone(), FaultKind::NanWrite)], FaultMode::Always);
        let opts = SweepOptions {
            policy: policy_for(FaultKind::NanWrite, 0),
            fault: Some(plan),
            ..SweepOptions::default()
        };
        let grid = measure_grid_supervised(&cfg, kernel, &Transform::ALL, slabs, &opts);
        assert_eq!(grid.report.failures.len(), 1, "{}", grid.report.summary());
        for (n, row) in &grid.rows {
            for (&t, got) in Transform::ALL.iter().zip(row) {
                let key = checkpoint::point_key(kernel, t, *n, cfg.nk);
                if key == victim {
                    assert!(
                        matches!(got, Err(e) if matches!(e.root(), SweepError::Unhealthy { .. })),
                        "slabs {slabs:?}: poisoned {key} must be unhealthy, got {got:?}"
                    );
                } else {
                    let v = got
                        .as_ref()
                        .unwrap_or_else(|e| panic!("slabs {slabs:?}: unfaulted {key} failed: {e}"));
                    assert!(
                        v.is_finite() && *v > 0.0,
                        "slabs {slabs:?}: {key} timed to {v}"
                    );
                }
            }
        }
    }
}
