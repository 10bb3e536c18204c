//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each binary in `src/bin/` reproduces one artifact:
//!
//! | artifact | binary | paper content |
//! |---|---|---|
//! | Table 1 | `table1` | Euc3D non-conflicting tiles, 200x200xM / 16K cache |
//! | Table 3 | `table3` | average perf + miss-rate improvements, N = 200-400 |
//! | Figs 14/16/18 | `fig_miss` | per-size L1/L2 miss rates per kernel |
//! | Figs 15/17/19 | `fig_perf` | per-size MFlops per kernel |
//! | Figs 20/21 | `fig_miss`/`fig_perf` with `--min 400 --max 700` | larger RESID sizes |
//! | Fig 22 | `fig22` | memory increase from padding (JACOBI) |
//! | Section 4.6 | `mgrid` | whole-application MGRID improvement |
//! | Section 1 | `twod_argument` | why 2D stencils don't need tiling |
//! | beyond paper | `ablation` | associativity / line size / write policy / ATD sweeps |
//!
//! This library holds the shared machinery: one-configuration cache
//! simulation ([`simulate`]), wall-clock MFlops measurement
//! ([`measure_mflops`]), the supervised sweep grids
//! ([`simulate_grid_supervised`], [`measure_grid_supervised`]; both run on
//! the pool's one worker loop, [`SimPool::try_map`]) and plain-text / CSV
//! table rendering ([`SweepResult`], [`run_miss_sweeps_supervised`]).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod fault;
pub mod fuzz;
pub mod jsonl;
pub mod plot;
pub mod pool;
pub mod serve;
pub mod supervise;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use checkpoint::{CheckpointLog, PointRecord};
use fault::FaultPlan;
pub use pool::SimPool;
pub use supervise::{SupervisePolicy, SweepError};
use tiling3d_cachesim::{CacheConfig, Hierarchy, Throughput, ThroughputTimer};
use tiling3d_core::legality::certificate_for;
use tiling3d_core::{plan, CacheSpec, Transform, TransformPlan};
use tiling3d_grid::health;
use tiling3d_obs as obs;
use tiling3d_obs::flags::{FlagSpec, ParsedFlags};
use tiling3d_stencil::kernels::{Kernel, KernelState};

/// The smallest grid extent a stencil sweep accepts: every kernel updates
/// the interior `1..=n-2` of each axis, so a smaller extent has nothing to
/// compute.
pub const MIN_EXTENT: usize = 3;

/// Reads the count flag `flag`, or `default` when the command did not
/// declare it, and rejects a missing value or one below `min` as a usage
/// error before any work runs (`table1 --cache`, `mgrid --levels`, and
/// every extent through [`extent_flag`]).
///
/// # Errors
/// `"<command> requires <flag> >= <min> (got <value>)"`.
pub fn flag_at_least(
    flags: &ParsedFlags,
    flag: &str,
    min: usize,
    default: Option<usize>,
) -> Result<usize, String> {
    match flags.opt_usize(flag).or(default) {
        Some(v) if v >= min => Ok(v),
        got => Err(format!(
            "{} requires {flag} >= {min}{}",
            flags.command(),
            got.map_or(String::new(), |v| format!(" (got {v})"))
        )),
    }
}

/// Reads the grid-extent flag `flag` (`--n`, `--nk`, `--min`), or
/// `default` when the command did not declare it, and rejects a missing
/// value or one below [`MIN_EXTENT`] as a usage error before any work
/// runs. The one extent check of the sweep drivers
/// ([`SweepConfig::from_flags`], `ablation`) and of the `tiling3d`
/// commands.
///
/// # Errors
/// `"<command> requires <flag> >= 3 (got <value>)"`.
pub fn extent_flag(
    flags: &ParsedFlags,
    flag: &str,
    default: Option<usize>,
) -> Result<usize, String> {
    flag_at_least(flags, flag, MIN_EXTENT, default)
}

/// Simulation / measurement configuration for one sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Smallest plane extent `N` (inclusive).
    pub n_min: usize,
    /// Largest plane extent `N` (inclusive).
    pub n_max: usize,
    /// Step between successive `N` (1 reproduces the paper exactly).
    pub step: usize,
    /// Third-dimension extent (the paper fixes 30 "to reduce measurement
    /// times ... no impact on tile conflicts").
    pub nk: usize,
    /// L1 geometry for simulation and tile selection.
    pub l1: CacheConfig,
    /// L2 geometry for simulation.
    pub l2: CacheConfig,
    /// Timed repetitions per configuration for MFlops measurement.
    pub reps: usize,
    /// Simulation worker count (`0` = one per available core). Results are
    /// bit-identical for every value — see DESIGN.md. Wall-clock sweeps
    /// time one point at a time regardless ([`measure_grid_supervised`]).
    pub jobs: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            n_min: 200,
            n_max: 400,
            step: 8,
            nk: 30,
            l1: CacheConfig::ULTRASPARC2_L1,
            l2: CacheConfig::ULTRASPARC2_L2,
            reps: 3,
            jobs: 0,
        }
    }
}

impl SweepConfig {
    /// The shared sweep flags every driver declares (append per-driver
    /// extras when building a
    /// [`FlagSet`](tiling3d_obs::flags::FlagSet)). Defaults mirror
    /// [`SweepConfig::default`].
    pub const FLAGS: &'static [FlagSpec] = &[
        FlagSpec::usize("--min", Some("200"), "smallest plane extent N (inclusive)"),
        FlagSpec::usize("--max", Some("400"), "largest plane extent N (inclusive)"),
        FlagSpec::usize("--step", Some("8"), "step between successive N"),
        FlagSpec::usize("--nk", Some("30"), "third-dimension extent"),
        FlagSpec::usize("--reps", Some("3"), "timed repetitions per MFlops point"),
        FlagSpec::usize("--jobs", Some("0"), "simulation workers (0 = one per core)"),
    ];

    /// Builds a sweep config from parsed flags, reading whichever of the
    /// shared sweep flags the command declared (undeclared ones keep the
    /// [`SweepConfig::default`] value).
    ///
    /// # Errors
    /// Rejects `--min` or `--nk` below [`MIN_EXTENT`] ([`extent_flag`]),
    /// `--step` below 1 ([`flag_at_least`]), and `--max` below `--min`,
    /// which would sweep no size at all.
    pub fn from_flags(flags: &ParsedFlags) -> Result<Self, String> {
        let d = SweepConfig::default();
        let get = |name: &str, fallback: usize| flags.opt_usize(name).unwrap_or(fallback);
        let cfg = SweepConfig {
            n_min: extent_flag(flags, "--min", Some(d.n_min))?,
            n_max: get("--max", d.n_max),
            step: flag_at_least(flags, "--step", 1, Some(d.step))?,
            nk: extent_flag(flags, "--nk", Some(d.nk))?,
            reps: get("--reps", d.reps),
            jobs: get("--jobs", d.jobs),
            ..d
        };
        if cfg.n_max < cfg.n_min {
            return Err(format!(
                "{} requires --min <= --max (got --min {}, --max {})",
                flags.command(),
                cfg.n_min,
                cfg.n_max
            ));
        }
        Ok(cfg)
    }

    /// The `N` values this sweep visits.
    pub fn sizes(&self) -> Vec<usize> {
        (self.n_min..=self.n_max)
            .step_by(self.step.max(1))
            .collect()
    }

    /// Tile-selection cache spec derived from the L1 geometry.
    pub fn cache_spec(&self) -> CacheSpec {
        CacheSpec::from_bytes(self.l1.size_bytes)
    }

    /// The worker pool this sweep's simulations run on.
    pub fn pool(&self) -> SimPool {
        SimPool::new(self.jobs)
    }
}

/// Robustness options for one sweep: supervision policy, checkpoint /
/// resume, and (for the chaos harness) an armed fault plan. Separate from
/// [`SweepConfig`] — that stays `Copy` and describes *what* to sweep;
/// this describes *how to survive* sweeping it.
#[derive(Debug, Default)]
pub struct SweepOptions {
    /// Retry / deadline / fail-fast policy for every point.
    pub policy: SupervisePolicy,
    /// Append completed points to this JSONL checkpoint
    /// (see [`checkpoint`]).
    pub checkpoint: Option<PathBuf>,
    /// Restore completed points from the checkpoint before sweeping and
    /// compute only the remainder.
    pub resume: bool,
    /// Deterministic fault plan, armed by the chaos harness and the
    /// integration suite; `None` in production runs.
    pub fault: Option<FaultPlan>,
}

impl SweepOptions {
    /// The shared robustness flags every supervised driver declares,
    /// alongside [`SweepConfig::FLAGS`].
    pub const FLAGS: &'static [FlagSpec] = &[
        FlagSpec::switch(
            "--strict",
            "fail fast: abort the sweep on the first point error",
        ),
        FlagSpec::usize("--retries", Some("1"), "retries per failed sweep point"),
        FlagSpec::usize(
            "--deadline-ms",
            Some("0"),
            "per-point deadline in milliseconds (0 = unlimited)",
        ),
        FlagSpec::str(
            "--checkpoint",
            None,
            "append completed points to this JSONL checkpoint",
        ),
        FlagSpec::switch("--resume", "skip points already in --checkpoint"),
    ];

    /// Builds sweep options from parsed flags, reading whichever of the
    /// shared robustness flags the command declared (undeclared ones keep
    /// defaults, like [`SweepConfig::from_flags`]).
    pub fn from_flags(flags: &ParsedFlags) -> Result<Self, String> {
        let mut policy = SupervisePolicy::default();
        if let Some(r) = flags.opt_usize("--retries") {
            policy.retries = u32::try_from(r).unwrap_or(u32::MAX);
        }
        if let Some(ms) = flags.opt_usize("--deadline-ms") {
            if ms > 0 {
                policy.deadline =
                    Some(Duration::from_millis(u64::try_from(ms).unwrap_or(u64::MAX)));
            }
        }
        policy.fail_fast = flags.opt_switch("--strict");
        let checkpoint = flags.opt_str("--checkpoint").map(PathBuf::from);
        let resume = flags.opt_switch("--resume");
        if resume && checkpoint.is_none() {
            return Err("--resume requires --checkpoint PATH".to_string());
        }
        Ok(SweepOptions {
            policy,
            checkpoint,
            resume,
            fault: None,
        })
    }

    /// A per-kernel view of these options for drivers sweeping several
    /// kernels: the checkpoint base path grows a `.KERNEL` suffix so each
    /// kernel's sweep owns its own file (checkpoints are fingerprinted
    /// per sweep). The fault plan is not carried over — faults are armed
    /// per sweep by the chaos harness.
    pub fn for_kernel(&self, kernel: Kernel) -> SweepOptions {
        SweepOptions {
            policy: self.policy,
            checkpoint: self
                .checkpoint
                .as_ref()
                .map(|p| PathBuf::from(format!("{}.{}", p.display(), kernel.name()))),
            resume: self.resume,
            fault: None,
        }
    }
}

/// What happened to a supervised sweep: how much ran, how much was
/// restored from a checkpoint, and which points failed.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Points in the sweep.
    pub total: usize,
    /// Points restored from the checkpoint instead of recomputed.
    pub restored: usize,
    /// Failed points as `(key, error)`, in sweep order.
    pub failures: Vec<(String, SweepError)>,
}

impl SweepReport {
    /// True when every point completed (freshly or restored).
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Folds another report into this one (drivers running several
    /// kernels accumulate a single exit verdict).
    pub fn merge(&mut self, other: &SweepReport) {
        self.total += other.total;
        self.restored += other.restored;
        self.failures.extend(other.failures.iter().cloned());
    }

    /// Human summary: one line of totals plus one line per failure.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "sweep: {}/{} points ok ({} restored, {} failed)",
            self.total - self.failures.len(),
            self.total,
            self.restored,
            self.failures.len()
        );
        for (key, err) in &self.failures {
            out.push_str(&format!("\n  FAILED {key}: {err}"));
        }
        out
    }
}

/// Resolves the plan for (kernel, transform, n) under this sweep's cache
/// and certifies it: `core::plan` picks the tile and pads, then
/// [`certificate_for`] proves the schedule the executors run (tiled
/// red-black is skew-tiled) legal for the kernel's dependences, so every
/// number the harness reports comes from a certified schedule.
///
/// # Panics
/// Panics with the certificate's violations if the schedule is illegal —
/// unreachable for the paper's transforms, whose executors always run the
/// skewed schedule where one is required.
pub fn plan_for(cfg: &SweepConfig, kernel: Kernel, t: Transform, n: usize) -> TransformPlan {
    let p = plan(t, cfg.cache_spec(), n, n, &kernel.shape());
    let certificate = certificate_for(&kernel.discipline(), p.tile.is_some(), true);
    assert!(
        certificate.is_legal(),
        "refusing an illegal schedule for {} {} at N = {n}:\n{}",
        kernel.name(),
        t.name(),
        certificate.report()
    );
    p
}

/// One simulated data point.
#[derive(Clone, Copy, Debug)]
pub struct SimPoint {
    /// L1 miss rate (percent).
    pub l1_pct: f64,
    /// L2 miss rate (percent of total references).
    pub l2_pct: f64,
    /// Model-derived MFlops: every access costs one cycle, an L1 miss
    /// adds `10`, an L2 miss adds `60` (UltraSparc2-era penalties),
    /// clocked at 360 MHz like the paper's machine.
    ///
    /// This regenerates the *shape* of the paper's performance figures
    /// from the simulated miss profile. Modern hosts (large L3,
    /// aggressive prefetching) capture 3D-stencil reuse in hardware at
    /// the paper's problem sizes, so wall-clock measurements there — see
    /// [`measure_mflops`] — no longer show the 2000-era effect;
    /// the model restores the paper's machine assumptions.
    /// EXPERIMENTS.md discusses both columns.
    pub modeled: f64,
    /// Engine throughput while simulating this point.
    pub sim: Throughput,
}

/// Simulates one kernel sweep under the given transformation, returning
/// L1/L2 miss rates and the modeled MFlops in a single pass.
pub fn simulate(cfg: &SweepConfig, kernel: Kernel, t: Transform, n: usize) -> SimPoint {
    let span = if obs::collecting() {
        let s = obs::span(&format!("simulate:{}:{}", kernel.name(), t.name()));
        s.add("n", n as u64);
        Some(s)
    } else {
        None
    };
    let p = plan_for(cfg, kernel, t, n);
    let mut h = Hierarchy::new(cfg.l1, cfg.l2);
    let timer = ThroughputTimer::start();
    kernel.trace(n, cfg.nk, p.padded_di, p.padded_dj, p.tile, &mut h);
    let sim = timer.stop(h.l1_stats().accesses);
    if let Some(s) = &span {
        s.add("accesses", h.l1_stats().accesses);
        h.fold_obs_metrics();
        sim.fold_obs_metrics();
    }
    let cycles = h.l1_stats().accesses + 10 * h.l1_stats().misses + 60 * h.l2_stats().misses;
    SimPoint {
        l1_pct: h.l1_miss_rate_pct(),
        l2_pct: h.l2_miss_rate_pct(),
        modeled: kernel.sweep_flops(n, cfg.nk) as f64 * 360.0 / cycles as f64,
        sim,
    }
}

/// A supervised sweep grid: every `(n, transform)` point's `Result` in
/// sweep order, and the failure report.
#[derive(Debug)]
pub struct SupervisedGrid<R = SimPoint> {
    /// Rows `(n, per-transform results)` in size order.
    pub rows: Vec<(usize, Vec<Result<R, SweepError>>)>,
    /// Totals and failures.
    pub report: SweepReport,
}

impl<R> SupervisedGrid<R> {
    /// One metric of every point as a printable table (`transforms` in
    /// column order); a failed point becomes a `-` cell.
    pub fn table(
        &self,
        metric: &'static str,
        transforms: &[Transform],
        pick: impl Fn(&R) -> f64,
    ) -> SweepResult {
        let rows = self
            .rows
            .iter()
            .map(|(n, pts)| {
                let vals = pts
                    .iter()
                    .map(|r| r.as_ref().map_or(FAILED_POINT, &pick))
                    .collect();
                (*n, vals)
            })
            .collect();
        SweepResult {
            metric,
            transforms: transforms.to_vec(),
            rows,
        }
    }
}

impl SupervisedGrid<SimPoint> {
    /// Aggregate engine throughput over the freshly computed points
    /// (restored points carry no timing).
    pub fn throughput(&self) -> Throughput {
        let mut total = Throughput::default();
        for p in self.rows.iter().flat_map(|(_, pts)| pts).flatten() {
            total.merge(&p.sim);
        }
        total
    }
}

/// The one sweep loop under every grid, simulated or timed: runs
/// `point(n, t, key)` for each `(n, t)` of `cfg.sizes()` x `transforms`
/// on `cfg.pool()` under `policy` ([`SimPool::try_map_with_progress`]),
/// except the points `restore` already holds a result for, and returns
/// every point's result in sweep order with the failure report.
fn sweep_grid<R: Send>(
    cfg: &SweepConfig,
    kernel: Kernel,
    transforms: &[Transform],
    policy: &SupervisePolicy,
    label: &str,
    restore: impl Fn(&str) -> Option<R>,
    point: impl Fn(usize, Transform, &str) -> Result<R, SweepError> + Sync,
) -> SupervisedGrid<R> {
    let sizes = cfg.sizes();
    let points: Vec<(usize, Transform, String)> = sizes
        .iter()
        .flat_map(|&n| {
            transforms
                .iter()
                .map(move |&t| (n, t, checkpoint::point_key(kernel, t, n, cfg.nk)))
        })
        .collect();
    // Slot in restored points, then compute only the remainder.
    let mut flat: Vec<Option<Result<R, SweepError>>> = points
        .iter()
        .map(|(_, _, key)| restore(key).map(Ok))
        .collect();
    let todo: Vec<usize> = (0..points.len()).filter(|&i| flat[i].is_none()).collect();
    let pending = todo.len() as u64;
    let computed = cfg.pool().try_map_with_progress(
        &todo,
        policy,
        |&i| {
            let (n, t, key) = &points[i];
            point(*n, *t, key)
        },
        |done| obs::progress(label, done as u64, pending),
    );
    let mut report = SweepReport {
        total: points.len(),
        restored: points.len() - todo.len(),
        failures: Vec::new(),
    };
    // Restored points never fail, so failures land in sweep order.
    for (i, r) in todo.into_iter().zip(computed) {
        if let Err(e) = &r {
            report.failures.push((points[i].2.clone(), e.clone()));
        }
        flat[i] = Some(r);
    }
    let mut flat = flat
        .into_iter()
        .map(|slot| slot.expect("every sweep slot settled"));
    let rows = sizes
        .iter()
        .map(|&n| (n, flat.by_ref().take(transforms.len()).collect()))
        .collect();
    SupervisedGrid { rows, report }
}

/// The simulated sweep: every `(n, transform)` point through [`simulate`]
/// on the configured worker pool, under the supervision policy, with
/// checkpointed points restored / recorded and each result health-checked
/// ([`supervise::check_finite`]). One bad point degrades to one `Err`
/// slot; the `Ok` subset stays bit-identical for any `cfg.jobs` and for
/// interrupted-then-resumed runs (DESIGN.md §13).
///
/// # Errors
/// Returns `Err` only for setup failures (an unusable or mismatched
/// checkpoint) — per-point trouble is reported in the grid itself.
pub fn simulate_grid_supervised(
    cfg: &SweepConfig,
    kernel: Kernel,
    transforms: &[Transform],
    opts: &SweepOptions,
) -> Result<SupervisedGrid, String> {
    let log = match &opts.checkpoint {
        Some(path) => Some(CheckpointLog::open(
            path,
            &checkpoint::fingerprint(cfg, kernel, transforms),
            opts.resume,
        )?),
        None => None,
    };
    let _span = if obs::collecting() {
        let s = obs::span(&format!("sweep:{}", kernel.name()));
        s.add("points", (cfg.sizes().len() * transforms.len()) as u64);
        Some(s)
    } else {
        None
    };
    let restore = |key: &str| {
        let rec = log.as_ref()?.restored().get(key)?;
        Some(SimPoint {
            l1_pct: rec.l1_pct,
            l2_pct: rec.l2_pct,
            modeled: rec.modeled,
            sim: Throughput::default(),
        })
    };
    let point = |n: usize, t: Transform, key: &str| {
        // Fault injection (chaos harness only): panics and delays fire
        // here, before the simulation; a NaN write poisons the result.
        let poison = opts.fault.as_ref().is_some_and(|f| f.inject(key));
        let mut p = simulate(cfg, kernel, t, n);
        if poison {
            opts.fault
                .as_ref()
                .expect("poison implies a plan")
                .poison_sim(&mut p);
        }
        supervise::check_finite(&[
            ("l1_pct", p.l1_pct),
            ("l2_pct", p.l2_pct),
            ("modeled", p.modeled),
        ])?;
        if let Some(l) = &log {
            // A checkpoint write failure degrades the checkpoint, not
            // the sweep: the point is still good.
            if let Err(e) = l.record(&PointRecord {
                key: key.to_string(),
                l1_pct: p.l1_pct,
                l2_pct: p.l2_pct,
                modeled: p.modeled,
            }) {
                obs::error(&e);
            }
        }
        Ok(p)
    };
    let label = format!("{} simulate", kernel.name());
    Ok(sweep_grid(
        cfg,
        kernel,
        transforms,
        &opts.policy,
        &label,
        restore,
        point,
    ))
}

/// Simulates every `(n, transform)` point of a sweep on the configured
/// worker pool, returning one row of [`SimPoint`]s per size (in size
/// order, transforms in column order) plus the aggregate engine
/// throughput. Thin fail-fast wrapper over [`simulate_grid_supervised`]
/// for callers that still want the pre-supervision contract; results are
/// bit-identical for any `cfg.jobs`.
///
/// # Panics
/// Panics if any point fails terminally (after the default retry).
pub fn simulate_grid(
    cfg: &SweepConfig,
    kernel: Kernel,
    transforms: &[Transform],
) -> (Vec<(usize, Vec<SimPoint>)>, Throughput) {
    let sg = simulate_grid_supervised(cfg, kernel, transforms, &SweepOptions::default())
        .unwrap_or_else(|e| panic!("sweep setup failed: {e}"));
    let throughput = sg.throughput();
    let rows = sg
        .rows
        .into_iter()
        .map(|(n, pts)| {
            let vals = pts
                .into_iter()
                .map(|r| r.unwrap_or_else(|e| panic!("sweep point failed: {e}")))
                .collect();
            (n, vals)
        })
        .collect();
    (rows, throughput)
}

/// One measured data point: sustained MFlops of the kernel under the
/// given transformation, best of `cfg.reps` timed sweeps after one
/// warm-up. `slabs` picks the sweep: `None` times [`Kernel::run`];
/// `Some(t)` times the K-slab parallel [`Kernel::run_parallel`] over `t`
/// slabs (`0` = one per available core), whose results are bitwise
/// identical to the sequential sweep, so the delta is pure scaling.
///
/// Numerical sentinel: after the warm-up sweep the kernel's output grid is
/// scanned for NaN/Inf ([`tiling3d_grid::health::scan`]), and a poisoned
/// grid or a non-finite rate surfaces as [`SweepError::Unhealthy`]
/// instead of silently contaminating the figure. `fault` (chaos harness
/// and tests only) may panic, delay, or plant a NaN write first.
pub fn measure_mflops(
    cfg: &SweepConfig,
    kernel: Kernel,
    t: Transform,
    n: usize,
    slabs: Option<usize>,
    fault: Option<&FaultPlan>,
) -> Result<f64, SweepError> {
    let key = checkpoint::point_key(kernel, t, n, cfg.nk);
    let poison = fault.is_some_and(|f| f.inject(&key));
    let p = plan_for(cfg, kernel, t, n);
    let threads = slabs.map(|s| SimPool::new(s).jobs());
    let sweep = |state: &mut KernelState| match threads {
        None => kernel.run(state, p.tile),
        Some(threads) => kernel.run_parallel(state, p.tile, threads),
    };
    let mut state = kernel.make_state(n, cfg.nk, &p, 0x5EED);
    sweep(&mut state); // warm-up (and page-in)
    if poison {
        fault
            .expect("poison implies a plan")
            .poison_grid(0x5EED, &key, state.output_mut());
    }
    health::scan(state.output()).map_err(|issue| SweepError::Unhealthy {
        reason: format!("{} output has {issue}", kernel.name()),
    })?;
    let flops = kernel.sweep_flops(n, cfg.nk) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..cfg.reps.max(1) {
        let t0 = Instant::now();
        sweep(&mut state);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let mflops = flops / best / 1e6;
    supervise::check_finite(&[("MFlops", mflops)])?;
    Ok(mflops)
}

/// The wall-clock sweep: [`measure_mflops`] (with `slabs` as there) at
/// every `(n, transform)` point, under `opts.policy` and `opts.fault`.
/// The grid runs on a one-worker pool, inline on the caller's thread, so
/// no two timings share the host; `cfg.jobs` reaches the measurement only
/// through `slabs`. Timings are remeasured, never checkpointed or
/// restored, so `opts.checkpoint` is not read.
pub fn measure_grid_supervised(
    cfg: &SweepConfig,
    kernel: Kernel,
    transforms: &[Transform],
    slabs: Option<usize>,
    opts: &SweepOptions,
) -> SupervisedGrid<f64> {
    let _span = obs::collecting().then(|| obs::span(&format!("measure:{}", kernel.name())));
    let inline = SweepConfig { jobs: 1, ..*cfg };
    sweep_grid(
        &inline,
        kernel,
        transforms,
        &opts.policy,
        &format!("{} MFlops", kernel.name()),
        |_| None,
        |n, t, _| measure_mflops(cfg, kernel, t, n, slabs, opts.fault.as_ref()),
    )
}

/// A full sweep of one metric over sizes x transforms.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The metric's display name.
    pub metric: &'static str,
    /// Transform column order.
    pub transforms: Vec<Transform>,
    /// Rows `(n, values per transform)`.
    pub rows: Vec<(usize, Vec<f64>)>,
}

impl SweepResult {
    /// Column-mean of each transform's values. Non-finite entries — the
    /// placeholder a supervised sweep leaves for a failed point — are
    /// skipped, so a degraded sweep still reports meaningful means over
    /// the points that completed (a column with no finite value at all
    /// yields NaN).
    pub fn means(&self) -> Vec<f64> {
        let cols = self.transforms.len();
        let mut sums = vec![0.0; cols];
        let mut counts = vec![0usize; cols];
        for (_, vals) in &self.rows {
            for (c, v) in vals.iter().enumerate() {
                if v.is_finite() {
                    sums[c] += v;
                    counts[c] += 1;
                }
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(s, &n)| if n == 0 { f64::NAN } else { s / n as f64 })
            .collect()
    }

    /// Renders an aligned plain-text table (and optional CSV) to stdout.
    pub fn print(&self, csv: bool) {
        if csv {
            print!("N");
            for t in &self.transforms {
                print!(",{}", t.name());
            }
            println!();
            for (n, vals) in &self.rows {
                print!("{n}");
                for v in vals {
                    // Failed points render as empty CSV cells.
                    if v.is_finite() {
                        print!(",{v:.3}");
                    } else {
                        print!(",");
                    }
                }
                println!();
            }
            return;
        }
        let cell = |v: f64| {
            if v.is_finite() {
                format!("{v:>10.2}")
            } else {
                format!("{:>10}", "-")
            }
        };
        print!("{:>6}", "N");
        for t in &self.transforms {
            print!("{:>10}", t.name());
        }
        println!();
        for (n, vals) in &self.rows {
            print!("{n:>6}");
            for v in vals {
                print!("{}", cell(*v));
            }
            println!();
        }
        print!("{:>6}", "mean");
        for v in self.means() {
            print!("{}", cell(v));
        }
        println!();
    }
}

/// The per-point value a [`SweepResult`] stores for a failed point: a
/// quiet NaN, rendered as `-` by [`SweepResult::print`] and skipped by
/// [`SweepResult::means`].
const FAILED_POINT: f64 = f64::NAN;

/// Runs the L1 / L2 / modeled-MFlops sweeps from one simulation pass (one
/// simulation per configuration instead of three) — used by `table3`,
/// `fig_miss`, `fig_perf --modeled` and `report` — plus the failure
/// report (failed points render as `-` in all three tables).
///
/// # Errors
/// Returns `Err` only for setup failures (an unusable checkpoint).
pub fn run_miss_sweeps_supervised(
    cfg: &SweepConfig,
    kernel: Kernel,
    transforms: &[Transform],
    opts: &SweepOptions,
) -> Result<(SweepResult, SweepResult, SweepResult, SweepReport), String> {
    let sg = simulate_grid_supervised(cfg, kernel, transforms, opts)?;
    obs::info(&format!("engine: {}", sg.throughput().summary()));
    Ok((
        sg.table("L1 miss %", transforms, |p| p.l1_pct),
        sg.table("L2 miss %", transforms, |p| p.l2_pct),
        sg.table("MFlops (modeled)", transforms, |p| p.modeled),
        sg.report,
    ))
}

/// Shared driver plumbing: every bench binary parses its command line
/// through a [`FlagSet`](tiling3d_obs::flags::FlagSet) built from
/// [`SweepConfig::FLAGS`] plus its own extras, then initialises the
/// observability layer from the auto-appended obs flags.
pub mod driver {
    use std::io::{self, Write};

    use tiling3d_obs as obs;
    use tiling3d_obs::flags::{FlagSet, ParsedFlags};

    /// Parses `argv[1..]` against `set`; on error prints the message (which
    /// embeds the auto-generated usage) and exits with status 2. Then
    /// initialises the observability layer from the obs flags.
    pub fn parse_or_exit(set: &FlagSet) -> ParsedFlags {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let flags = or_exit(set.parse(&raw));
        or_exit(obs::ObsConfig::from_flags(&flags).and_then(obs::init));
        flags
    }

    /// Unwraps a set-up result built from the flags; on error prints the
    /// message and exits with status 2 (a usage error), before any work
    /// runs.
    pub fn or_exit<T>(r: Result<T, String>) -> T {
        r.unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Writes a command's rendered output to stdout in one call (the
    /// drivers that render whole reports, and `tiling3d`'s `main`). A
    /// reader that closes the pipe early (`table1 | head -1`) has taken
    /// what it wanted, so a broken pipe is success; any other write error
    /// is reported on stderr and exits with status 1.
    pub fn write_stdout(out: &str) {
        if let Err(e) = write_all_or_closed(&mut io::stdout().lock(), out) {
            eprintln!("error writing to stdout: {e}");
            std::process::exit(1);
        }
    }

    /// Writes and flushes `out`, treating [`io::ErrorKind::BrokenPipe`]
    /// as success.
    fn write_all_or_closed(w: &mut impl Write, out: &str) -> io::Result<()> {
        match w.write_all(out.as_bytes()).and_then(|()| w.flush()) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
            r => r,
        }
    }

    /// Flushes the observability layer at driver exit.
    pub fn finish() {
        let _ = obs::shutdown();
    }

    /// Driver exit for supervised sweeps: prints the failure summary (if
    /// any) to stderr, flushes observability, and exits `1` when the
    /// sweep completed degraded — so automation can tell "all points
    /// good" (0) from "tables rendered but some points failed" (1) from
    /// "usage error" (2).
    pub fn finish_sweep(report: &crate::SweepReport) -> ! {
        let ok = report.is_ok();
        if !ok {
            eprintln!("{}", report.summary());
        }
        finish();
        std::process::exit(i32::from(!ok));
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// A stdout whose reader is gone, or failing some other way.
        struct Failing(io::ErrorKind);

        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(self.0.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        #[test]
        fn a_closed_pipe_is_success_and_other_errors_are_not() {
            let mut buf = Vec::new();
            write_all_or_closed(&mut buf, "table\n").unwrap();
            assert_eq!(buf, b"table\n");
            write_all_or_closed(&mut Failing(io::ErrorKind::BrokenPipe), "x").unwrap();
            let err = write_all_or_closed(&mut Failing(io::ErrorKind::PermissionDenied), "x");
            assert_eq!(err.unwrap_err().kind(), io::ErrorKind::PermissionDenied);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SweepConfig {
        SweepConfig {
            n_min: 64,
            n_max: 80,
            step: 8,
            nk: 8,
            reps: 1,
            ..Default::default()
        }
    }

    #[test]
    fn sizes_are_inclusive() {
        let cfg = small_cfg();
        assert_eq!(cfg.sizes(), vec![64, 72, 80]);
    }

    #[test]
    fn simulate_misses_returns_rates_in_range() {
        let cfg = small_cfg();
        for t in [Transform::Orig, Transform::GcdPad] {
            let p = simulate(&cfg, Kernel::Jacobi, t, 64);
            let (l1, l2) = (p.l1_pct, p.l2_pct);
            assert!((0.0..=100.0).contains(&l1));
            assert!((0.0..=100.0).contains(&l2));
            assert!(l2 <= l1 + 1e-9, "L2 global rate cannot exceed L1 rate");
        }
    }

    #[test]
    fn measure_mflops_is_positive() {
        let cfg = small_cfg();
        let m = measure_mflops(&cfg, Kernel::Jacobi, Transform::Orig, 64, None, None).unwrap();
        assert!(m > 0.0);
    }

    #[test]
    fn sweep_result_means() {
        let r = SweepResult {
            metric: "x",
            transforms: vec![Transform::Orig, Transform::Pad],
            rows: vec![(1, vec![1.0, 3.0]), (2, vec![3.0, 5.0])],
        };
        assert_eq!(r.means(), vec![2.0, 4.0]);
    }

    #[test]
    fn sweep_config_from_flags() {
        use tiling3d_obs::flags::{FlagSet, FlagSpec};
        let set = FlagSet::new("demo", "demo driver", Some(("kernel", "which kernel")), &{
            let mut f = SweepConfig::FLAGS.to_vec();
            f.push(FlagSpec::switch("--csv", "emit csv"));
            f
        });
        let args: Vec<String> = ["resid", "--min", "400", "--csv"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let flags = set.parse(&args).unwrap();
        let cfg = SweepConfig::from_flags(&flags).unwrap();
        assert_eq!(cfg.n_min, 400);
        assert_eq!(cfg.n_max, 400); // declared default
        assert_eq!(cfg.nk, 30);
        assert!(flags.switch("--csv"));
        assert_eq!(
            flags.positional().unwrap().parse::<Kernel>().unwrap(),
            Kernel::Resid
        );
        // A config built from a set that declares only some sweep flags
        // keeps defaults for the rest.
        let tiny = FlagSet::new("t", "", None, &[FlagSpec::usize("--nk", Some("30"), "")]);
        let cfg =
            SweepConfig::from_flags(&tiny.parse(&["--nk".to_string(), "12".to_string()]).unwrap())
                .unwrap();
        assert_eq!(cfg.nk, 12);
        assert_eq!(cfg.n_min, SweepConfig::default().n_min);
        // Unknown flags are hard errors now.
        assert!(set.parse(&["--bogus".to_string()]).is_err());
    }

    #[test]
    fn sweep_config_rejects_extents_below_three() {
        use tiling3d_obs::flags::FlagSet;
        let set = FlagSet::new("demo", "demo driver", None, SweepConfig::FLAGS);
        let from = |args: &[&str]| {
            let raw: Vec<String> = args.iter().map(ToString::to_string).collect();
            SweepConfig::from_flags(&set.parse(&raw).unwrap())
        };
        for (flag, args) in [("--min", ["--min", "2"]), ("--nk", ["--nk", "2"])] {
            let err = from(&args).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(err.contains("demo requires"), "{err}");
        }
        assert_eq!(from(&["--nk", "3"]).unwrap().nk, 3);
    }

    #[test]
    fn sweep_config_rejects_max_below_min() {
        use tiling3d_obs::flags::FlagSet;
        let set = FlagSet::new("demo", "demo driver", None, SweepConfig::FLAGS);
        let from = |args: &[&str]| {
            let raw: Vec<String> = args.iter().map(ToString::to_string).collect();
            SweepConfig::from_flags(&set.parse(&raw).unwrap())
        };
        let err = from(&["--min", "300", "--max", "200"]).unwrap_err();
        assert_eq!(
            err,
            "demo requires --min <= --max (got --min 300, --max 200)"
        );
        // The default --max is 400.
        assert!(from(&["--min", "401"]).unwrap_err().contains("--max 400"));
        let one = from(&["--min", "256", "--max", "256"]).unwrap();
        assert_eq!(one.sizes(), vec![256]);
    }

    #[test]
    fn sweep_config_rejects_a_zero_step() {
        use tiling3d_obs::flags::FlagSet;
        let set = FlagSet::new("demo", "demo driver", None, SweepConfig::FLAGS);
        let from = |args: &[&str]| {
            let raw: Vec<String> = args.iter().map(ToString::to_string).collect();
            SweepConfig::from_flags(&set.parse(&raw).unwrap())
        };
        assert_eq!(
            from(&["--step", "0"]).unwrap_err(),
            "demo requires --step >= 1 (got 0)"
        );
        assert_eq!(from(&["--step", "1"]).unwrap().step, 1);
        assert_eq!(from(&[]).unwrap().step, 8);
    }
}
