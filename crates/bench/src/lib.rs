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
//! ([`measure_mflops_checked`]), the supervised sweep drivers
//! ([`run_sweep_supervised`], [`run_miss_sweeps_supervised`]) and
//! plain-text / CSV table rendering.

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
use tiling3d_core::{CacheSpec, Transform, TransformPlan};
use tiling3d_grid::health;
use tiling3d_obs as obs;
use tiling3d_obs::flags::{FlagSpec, ParsedFlags};
use tiling3d_stencil::kernels::Kernel;

/// The smallest grid extent a stencil sweep accepts: every kernel updates
/// the interior `1..=n-2` of each axis, so a smaller extent has nothing to
/// compute.
pub const MIN_EXTENT: usize = 3;

/// Reads the grid-extent flag `flag` (`--n`, `--nk`, `--min`), or
/// `default` when the command did not declare it, and rejects a missing
/// value or one below [`MIN_EXTENT`] as a usage error before any work
/// runs. The one extent check of the sweep drivers
/// ([`SweepConfig::from_flags`]) and of the `tiling3d` commands.
///
/// # Errors
/// `"<command> requires <flag> >= 3 (got <value>)"`.
pub fn extent_flag(
    flags: &ParsedFlags,
    flag: &str,
    default: Option<usize>,
) -> Result<usize, String> {
    match flags.opt_usize(flag).or(default) {
        Some(v) if v >= MIN_EXTENT => Ok(v),
        got => Err(format!(
            "{} requires {flag} >= {MIN_EXTENT}{}",
            flags.command(),
            got.map_or(String::new(), |v| format!(" (got {v})"))
        )),
    }
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
    /// bit-identical for every value — see DESIGN.md. Wall-clock MFlops
    /// measurement always runs sequentially regardless.
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
    /// Rejects `--min` or `--nk` below [`MIN_EXTENT`] ([`extent_flag`]).
    pub fn from_flags(flags: &ParsedFlags) -> Result<Self, String> {
        let d = SweepConfig::default();
        let get = |name: &str, fallback: usize| flags.opt_usize(name).unwrap_or(fallback);
        Ok(SweepConfig {
            n_min: extent_flag(flags, "--min", Some(d.n_min))?,
            n_max: get("--max", d.n_max),
            step: get("--step", d.step),
            nk: extent_flag(flags, "--nk", Some(d.nk))?,
            reps: get("--reps", d.reps),
            jobs: get("--jobs", d.jobs),
            ..d
        })
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

/// Resolves the plan for (kernel, transform, n) under this sweep's cache,
/// via the certified path: the transform's schedule is proved legal for
/// the kernel's dependence set before any trace is generated, so every
/// number the harness reports comes from a certified schedule.
///
/// # Panics
/// Panics if the schedule is illegal — unreachable for the paper's
/// transforms, whose executors always run the skewed schedule where one
/// is required.
pub fn plan_for(cfg: &SweepConfig, kernel: Kernel, t: Transform, n: usize) -> TransformPlan {
    let cp = kernel
        .plan_certified(t, cfg.cache_spec(), n, n)
        .unwrap_or_else(|e| panic!("refusing to simulate an illegal schedule: {e}"));
    *cp.plan()
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
    /// [`measure_mflops_checked`] — no longer show the 2000-era effect;
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

/// A supervised sweep grid: per-point `Result`s in sweep order, engine
/// throughput over the freshly computed points, and the failure report.
#[derive(Debug)]
pub struct SupervisedGrid {
    /// Rows `(n, per-transform results)` in size order.
    pub rows: Vec<(usize, Vec<Result<SimPoint, SweepError>>)>,
    /// Aggregate engine throughput (freshly computed points only;
    /// restored points carry no timing).
    pub throughput: Throughput,
    /// Totals and failures.
    pub report: SweepReport,
}

/// Rejects a simulated point whose metrics are non-finite — the
/// simulate-path numerical sentinel.
fn point_health(p: &SimPoint) -> Result<(), SweepError> {
    for (name, v) in [
        ("l1_pct", p.l1_pct),
        ("l2_pct", p.l2_pct),
        ("modeled", p.modeled),
    ] {
        if !v.is_finite() {
            return Err(SweepError::Unhealthy {
                reason: format!("non-finite {name} ({v})"),
            });
        }
    }
    Ok(())
}

/// The fault-tolerant core every pooled sweep funnels through: simulates
/// every `(n, transform)` point under the supervision policy
/// ([`SimPool::try_map`]), restores / records checkpointed points, and
/// health-checks each result. One bad point degrades to one `Err` slot;
/// the `Ok` subset stays bit-identical for any `cfg.jobs` and for
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
    let sizes = cfg.sizes();
    let points: Vec<(usize, Transform)> = sizes
        .iter()
        .flat_map(|&n| transforms.iter().map(move |&t| (n, t)))
        .collect();
    let keys: Vec<String> = points
        .iter()
        .map(|&(n, t)| checkpoint::point_key(kernel, t, n, cfg.nk))
        .collect();
    let log = match &opts.checkpoint {
        Some(path) => Some(CheckpointLog::open(
            path,
            &checkpoint::fingerprint(cfg, kernel, transforms),
            opts.resume,
        )?),
        None => None,
    };
    let total = points.len();
    let _span = if obs::collecting() {
        let s = obs::span(&format!("sweep:{}", kernel.name()));
        s.add("points", total as u64);
        Some(s)
    } else {
        None
    };
    // Slot in restored points, then compute only the remainder.
    let mut flat: Vec<Option<Result<SimPoint, SweepError>>> = vec![None; total];
    let mut todo: Vec<usize> = Vec::with_capacity(total);
    let mut restored = 0usize;
    for (i, key) in keys.iter().enumerate() {
        match log.as_ref().and_then(|l| l.restored().get(key)) {
            Some(rec) => {
                restored += 1;
                flat[i] = Some(Ok(SimPoint {
                    l1_pct: rec.l1_pct,
                    l2_pct: rec.l2_pct,
                    modeled: rec.modeled,
                    sim: Throughput::default(),
                }));
            }
            None => todo.push(i),
        }
    }
    let label = format!("{} simulate", kernel.name());
    let pending = todo.len();
    let computed = cfg.pool().try_map_with_progress(
        &todo,
        &opts.policy,
        |&i| {
            let (n, t) = points[i];
            let key = &keys[i];
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
            point_health(&p)?;
            if let Some(l) = &log {
                // A checkpoint write failure degrades the checkpoint, not
                // the sweep: the point is still good.
                if let Err(e) = l.record(&PointRecord {
                    key: key.clone(),
                    l1_pct: p.l1_pct,
                    l2_pct: p.l2_pct,
                    modeled: p.modeled,
                }) {
                    obs::error(&e);
                }
            }
            Ok(p)
        },
        |done| obs::progress(&label, done as u64, pending as u64),
    );
    let mut throughput = Throughput::default();
    let mut report = SweepReport {
        total,
        restored,
        failures: Vec::new(),
    };
    for (i, r) in todo.into_iter().zip(computed) {
        if let Ok(p) = &r {
            throughput.merge(&p.sim);
        }
        flat[i] = Some(r);
    }
    let flat: Vec<Result<SimPoint, SweepError>> = flat
        .into_iter()
        .map(|slot| slot.expect("every sweep slot settled"))
        .collect();
    for (key, r) in keys.iter().zip(&flat) {
        if let Err(e) = r {
            report.failures.push((key.clone(), e.clone()));
        }
    }
    let cols = transforms.len();
    let rows = sizes
        .iter()
        .enumerate()
        .map(|(r, &n)| (n, flat[r * cols..(r + 1) * cols].to_vec()))
        .collect();
    Ok(SupervisedGrid {
        rows,
        throughput,
        report,
    })
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
    (rows, sg.throughput)
}

/// Sustained MFlops of the K-slab parallel sweeps
/// ([`tiling3d_stencil::parallel`]) across `threads` workers (`0` = one
/// per available core): best of `cfg.reps` timed sweeps after one
/// warm-up. Results are bitwise identical to the sequential sweep for
/// every thread count, so this measures pure scaling.
pub fn measure_mflops_parallel(
    cfg: &SweepConfig,
    kernel: Kernel,
    t: Transform,
    n: usize,
    threads: usize,
) -> f64 {
    let threads = SimPool::new(threads).jobs();
    let p = plan_for(cfg, kernel, t, n);
    let mut state = kernel.make_state(n, cfg.nk, &p, 0x5EED);
    kernel.run_parallel(&mut state, p.tile, threads); // warm-up (and page-in)
    let flops = kernel.sweep_flops(n, cfg.nk) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..cfg.reps.max(1) {
        let t0 = Instant::now();
        kernel.run_parallel(&mut state, p.tile, threads);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    flops / best / 1e6
}

/// One measured data point: sustained MFlops of the kernel under the
/// given transformation (best of `cfg.reps` timed sweeps after one
/// warm-up), with the numerical sentinel: after the warm-up sweep the
/// kernel's output grid is scanned for NaN/Inf
/// ([`tiling3d_grid::health::scan`]) and a poisoned grid surfaces as
/// [`SweepError::Unhealthy`] instead of silently contaminating the
/// figure. `fault` (chaos harness only) may plant a NaN write first.
pub fn measure_mflops_checked(
    cfg: &SweepConfig,
    kernel: Kernel,
    t: Transform,
    n: usize,
    fault: Option<&FaultPlan>,
) -> Result<f64, SweepError> {
    let key = checkpoint::point_key(kernel, t, n, cfg.nk);
    let poison = fault.is_some_and(|f| f.inject(&key));
    let p = plan_for(cfg, kernel, t, n);
    let mut state = kernel.make_state(n, cfg.nk, &p, 0x5EED);
    kernel.run(&mut state, p.tile); // warm-up (and page-in)
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
        kernel.run(&mut state, p.tile);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Ok(flops / best / 1e6)
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

/// Which metric [`run_sweep_supervised`] collects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Simulated L1 miss rate (percent).
    L1MissRate,
    /// Simulated L2 miss rate (percent of total references).
    L2MissRate,
    /// Measured MFlops.
    MFlops,
    /// Model-derived MFlops (see [`SimPoint::modeled`]).
    ModeledMFlops,
}

/// The per-point value a [`SweepResult`] stores for a failed point: a
/// quiet NaN, rendered as `-` by [`SweepResult::print`] and skipped by
/// [`SweepResult::means`].
const FAILED_POINT: f64 = f64::NAN;

/// Runs a metric sweep for one kernel over the configured sizes and the
/// given transforms, with a progress line per size on stderr. One bad
/// point degrades to a `-` cell and an entry in the returned
/// [`SweepReport`] instead of aborting the sweep.
/// Simulation metrics run on the pool under the policy; wall-clock MFlops
/// stay sequential (so concurrent workers can't perturb timings) but each
/// point is still panic-isolated, retried, deadline-checked, and
/// health-scanned. Checkpoint/resume applies to the simulation metrics —
/// wall-clock measurements are remeasured, not restored.
///
/// # Errors
/// Returns `Err` only for setup failures (an unusable checkpoint).
pub fn run_sweep_supervised(
    cfg: &SweepConfig,
    kernel: Kernel,
    transforms: &[Transform],
    metric: Metric,
    opts: &SweepOptions,
) -> Result<(SweepResult, SweepReport), String> {
    let name = match metric {
        Metric::L1MissRate => "L1 miss %",
        Metric::L2MissRate => "L2 miss %",
        Metric::MFlops => "MFlops",
        Metric::ModeledMFlops => "MFlops (modeled)",
    };
    if metric == Metric::MFlops {
        let _span = if obs::collecting() {
            Some(obs::span(&format!("measure:{}", kernel.name())))
        } else {
            None
        };
        let label = format!("{} {name}", kernel.name());
        let sizes = cfg.sizes();
        let total = sizes.len() as u64;
        let mut rows = Vec::new();
        let mut report = SweepReport::default();
        let mut aborted = false;
        for (i, n) in sizes.into_iter().enumerate() {
            let mut vals = Vec::with_capacity(transforms.len());
            for &t in transforms {
                report.total += 1;
                if aborted {
                    vals.push(FAILED_POINT);
                    report.failures.push((
                        checkpoint::point_key(kernel, t, n, cfg.nk),
                        SweepError::Aborted,
                    ));
                    continue;
                }
                let r = supervise::supervise_item(&opts.policy, || {
                    measure_mflops_checked(cfg, kernel, t, n, opts.fault.as_ref())
                });
                match r {
                    Ok(v) => vals.push(v),
                    Err(e) => {
                        vals.push(FAILED_POINT);
                        aborted = opts.policy.fail_fast;
                        report
                            .failures
                            .push((checkpoint::point_key(kernel, t, n, cfg.nk), e));
                    }
                }
            }
            rows.push((n, vals));
            obs::progress(&label, i as u64 + 1, total);
        }
        return Ok((
            SweepResult {
                metric: name,
                transforms: transforms.to_vec(),
                rows,
            },
            report,
        ));
    }
    let sg = simulate_grid_supervised(cfg, kernel, transforms, opts)?;
    let rows = sg
        .rows
        .into_iter()
        .map(|(n, pts)| {
            let vals = pts
                .iter()
                .map(|r| match r {
                    Ok(p) => match metric {
                        Metric::L1MissRate => p.l1_pct,
                        Metric::L2MissRate => p.l2_pct,
                        _ => p.modeled,
                    },
                    Err(_) => FAILED_POINT,
                })
                .collect();
            (n, vals)
        })
        .collect();
    Ok((
        SweepResult {
            metric: name,
            transforms: transforms.to_vec(),
            rows,
        },
        sg.report,
    ))
}

/// Runs the L1 / L2 / modeled-MFlops sweeps from one simulation pass (one
/// simulation per configuration instead of three) — used by `table3`,
/// `fig_miss` and `report` — plus the failure report (failed points
/// render as `-` in all three tables).
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
    obs::info(&format!("engine: {}", sg.throughput.summary()));
    let mut rows1 = Vec::new();
    let mut rows2 = Vec::new();
    let mut rows3 = Vec::new();
    for (n, pts) in &sg.rows {
        let pick = |f: fn(&SimPoint) -> f64| -> Vec<f64> {
            pts.iter()
                .map(|r| r.as_ref().map(f).unwrap_or(FAILED_POINT))
                .collect()
        };
        rows1.push((*n, pick(|p| p.l1_pct)));
        rows2.push((*n, pick(|p| p.l2_pct)));
        rows3.push((*n, pick(|p| p.modeled)));
    }
    Ok((
        SweepResult {
            metric: "L1 miss %",
            transforms: transforms.to_vec(),
            rows: rows1,
        },
        SweepResult {
            metric: "L2 miss %",
            transforms: transforms.to_vec(),
            rows: rows2,
        },
        SweepResult {
            metric: "MFlops (modeled)",
            transforms: transforms.to_vec(),
            rows: rows3,
        },
        sg.report,
    ))
}

/// Shared driver plumbing: every bench binary parses its command line
/// through a [`FlagSet`](tiling3d_obs::flags::FlagSet) built from
/// [`SweepConfig::FLAGS`] plus its own extras, then initialises the
/// observability layer from the auto-appended obs flags.
pub mod driver {
    use tiling3d_obs as obs;
    use tiling3d_obs::flags::{FlagSet, ParsedFlags};

    /// Parses `argv[1..]` against `set`; on error prints the message (which
    /// embeds the auto-generated usage) and exits with status 2. Then
    /// initialises the observability layer from the obs flags.
    pub fn parse_or_exit(set: &FlagSet) -> ParsedFlags {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        or_exit(parse_and_init(set, &raw))
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

    /// Non-exiting core of [`parse_or_exit`], for tests.
    pub fn parse_and_init(set: &FlagSet, raw: &[String]) -> Result<ParsedFlags, String> {
        let flags = set.parse(raw)?;
        obs::init(obs::ObsConfig::from_flags(&flags)?)?;
        Ok(flags)
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
        let m = measure_mflops_checked(&cfg, Kernel::Jacobi, Transform::Orig, 64, None).unwrap();
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
}
