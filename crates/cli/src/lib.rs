//! Command implementations for the `tiling3d` CLI.
//!
//! Each subcommand declares its flag surface as a [`FlagSet`] (the shared
//! typed flag API from `tiling3d-obs`) and implements a pure function from
//! parsed flags to a rendered `String`, so the whole surface is
//! unit-testable without spawning processes; `main.rs` is a thin argv shim.
//!
//! ```text
//! tiling3d plan        --stencil jacobi3d --dims 341x341 [--cache-kb 16] [--steps T --jobs N]
//! tiling3d tiles       --di 200 --dj 200 [--cache 2048] [--tkmax 4]
//! tiling3d advise      --stencil jacobi3d --n 300 [--cache-kb 16] [--steps T --jobs N]
//! tiling3d simulate    --kernel resid --n 341 [--nk 30] [--transform gcdpad|all] [--jobs N] [--steps T] [--tlb]
//! tiling3d predict     --kernel jacobi --n 280 [--nk 30] [--tile 30x14]
//! tiling3d analyze     --kernel redblack [--transform gcdpad|all] [--n 200] [--no-skew] [--temporal] [--locality]
//! tiling3d oracle      --kernel jacobi --n 120 [--nk 20] [--transform all] [--geometry us2|modern|fa]
//! tiling3d measure     --kernel redblack --n 192 [--nk 30] [--transform orig] [--reps 3] [--jobs N]
//! tiling3d profile     --kernel jacobi --n 64 [--nk 30] [--jobs N] [--trace-out t.jsonl] [--steps T]
//! tiling3d chaos       [--kernel jacobi] [--min 40 --max 56 --step 8 --nk 8] [--seed 42] [--faults 2] [--jobs N] [--serve --rounds 8]
//! tiling3d trace-check trace.jsonl [--schema schema.golden]
//! tiling3d serve       --tcp 127.0.0.1:7070 [--socket PATH] [--warm-start FILE] [--no-resume] [--shards N] [--max-conns 256] [--conn-idle-ms 10000] [--max-frame-bytes 1048576] [--drain-deadline-ms 5000] [--compute-deadline-ms 0]
//! tiling3d client      REQUEST [--tcp ADDR | --socket PATH] [--retries 1] [--backoff-ms 10]
//! ```
//!
//! `plan`, `advise` and the `analyze` family are thin adapters over the
//! typed planning API ([`tiling3d_core::api`]): each builds one
//! [`PlanRequest`] from its flags and renders the [`PlanResponse`] —
//! `--format json` serializes through the exact code path the `serve`
//! wire protocol uses, governed by the same checked-in golden schema
//! (`crates/core/api.schema.golden`, DESIGN.md §16). `serve` runs the
//! memoized concurrent planning server; `client` sends one wire line to
//! it and prints the reply.
//!
//! `--steps T` (with `T > 0`) engages the **temporal mode** for iterated
//! Jacobi / red-black: `plan` and `advise` pick a time-skewed `(ST, SK)`
//! tile from cache geometry and pair it with the legality certificate of
//! the skewed schedule; `simulate` replays the naive `T`-sweep trace and
//! the time-tiled schedule through the same cache hierarchy and reports
//! the cross-timestep L1 read-miss reduction; `profile` runs the
//! wavefront-parallel time-tiled sweep so the span tree shows the
//! per-wavefront / per-time-block phases. `analyze --temporal` certifies
//! the time-skewed band schedule family — `--no-skew` requests the
//! rectangular band tiling, the known-illegal family member, rejected
//! with the broken distance vector as typed witness.
//!
//! Every command also accepts the auto-appended observability flags
//! (`--log-level`, `--trace-out`, `--progress`, `--format`); `plan`,
//! `tiles`, `advise` and `analyze` honour `--format json` with a
//! machine-readable rendering. Unknown or malformed flags are hard errors
//! (exit code 2 from the binary) carrying the auto-generated usage text.
//!
//! `simulate --transform all` replays every transformation's trace, one
//! pool worker per transform (`--jobs 0` / default = all cores); the
//! reported miss rates are identical for any worker count. `simulate` and
//! `measure` run every point under the fault-tolerant supervision path
//! (`--retries`, `--deadline-ms`, `--strict` — see DESIGN.md §13): a
//! panicking or numerically unhealthy point is reported as a typed error
//! instead of crashing the process.
//!
//! `chaos` is the deterministic fault-injection harness: it sweeps the
//! kernel fault-free to establish a baseline, then re-runs the sweep under
//! seeded panic / delay / NaN-write fault campaigns and verifies that each
//! armed point degrades to exactly the expected typed error while every
//! other point stays bit-identical to the baseline — and that with
//! once-only faults plus retries the whole sweep recovers bit-identically.
//! Any violated expectation makes the command exit non-zero. `chaos
//! --serve` switches the target from sweeps to the serving layer
//! (DESIGN.md §18): it boots an in-process hardened server and runs the
//! seeded protocol-fuzz campaign (malformed/truncated/oversized frames,
//! binary garbage, slow-loris, mid-request disconnects), a warm-start
//! corruption-recovery campaign, and a drain-under-load campaign, each
//! verifying typed errors, zero slot leaks, and byte-identical cached
//! answers after every abuse round.
//!
//! `analyze` runs the dependence-based legality analyzer: it prints each
//! schedule's dependence set, transformation steps and verdict, and exits
//! non-zero if any analyzed schedule is illegal — `--no-skew` requests the
//! rectangular (unskewed) tiling of the fused red-black schedule, the
//! known-illegal case, which the analyzer rejects with the broken distance
//! vector as witness. `analyze --locality` switches to the **static
//! locality analyzer** (DESIGN.md §15): with no simulation it derives each
//! transform's symbolic reuse-distance histogram (the full
//! fully-associative LRU miss curve and its knees), per-level predictions
//! with conflict-interference corrections, the analytic lower bound, and
//! typed conflict witnesses for pathological pad/column combinations.
//!
//! `oracle` is the three-way cross-validation: per transform and cache
//! level it reports `simulated / predicted / bound`, replaying the exact
//! trace next to the static model, and exits non-zero if the analytic
//! lower bound ever exceeds the simulated misses. `simulate --tlb` wraps
//! the hierarchy in the data-TLB model: translations miss into page-table
//! walks that read PTEs *through* the caches, and the report separates
//! walk traffic from program traffic.
//!
//! `measure` wall-clocks one kernel at one size on the row-segment
//! engine: sequential GFLOP/s plus the K-slab parallel sweep across
//! `--jobs` threads, after asserting the parallel result is bitwise
//! identical to the sequential one (a hard guarantee, so a mismatch is an
//! error, not a warning).
//!
//! `profile` runs the planning + simulation pipeline at a single size with
//! collection forced on, then one parallel compute sweep under a
//! `compute:<KERNEL>` span (red-black shows its `redblack:red` /
//! `redblack:black` colour phases as children), and prints the span tree
//! with per-phase wall-clock percentages (plus the final metric
//! registry); `trace-check` validates a
//! JSONL trace file against the checked-in golden schema — the CI gate for
//! trace-schema drift.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use tiling3d_bench::fault::{FaultKind, FaultMode, FaultPlan};
use tiling3d_bench::serve::{self, ServeConfig, ServeLimits};
use tiling3d_bench::{
    checkpoint, extent_flag, flag_at_least, plan_for, simulate_grid, simulate_grid_supervised,
    supervise, SimPoint, SimPool, SweepConfig, SweepError, SweepOptions,
};
use tiling3d_cachesim::{AccessSink, CacheConfig, Hierarchy, MmuHierarchy, Tlb, WritePolicy};
use tiling3d_core::api::{
    respond, GeometryPreset, PlanQuery, PlanRequest, PlanResponse, ReqStencil, TransformSel,
};
use tiling3d_core::nonconflict::enumerate_array_tiles;
use tiling3d_core::{
    histogram, lower_bound_misses, plan_temporal, CacheSpec, KernelModel, LevelGeometry,
    PlanSchedule, Problem, TemporalKernel, Transform,
};
use tiling3d_grid::{fill_random, Array3};
use tiling3d_obs as obs;
use tiling3d_obs::flags::{FlagSet, FlagSpec, ParsedFlags};
use tiling3d_obs::json::Json;
use tiling3d_stencil::kernels::Kernel;
use tiling3d_stencil::timetile::{self, TimeTile};

// ---------------------------------------------------------------------------
// Command table
// ---------------------------------------------------------------------------

/// One dispatched subcommand: its name, flag declaration, and
/// implementation. [`usage`] and [`run_argv`] are both derived from
/// [`COMMANDS`], so the usage text, the parser, and the dispatcher cannot
/// drift apart.
pub struct CommandDef {
    /// Subcommand word as typed on the command line.
    pub name: &'static str,
    /// The command's declared flag surface (obs flags auto-appended).
    pub flag_set: fn() -> FlagSet,
    /// The implementation: parsed flags to rendered output.
    pub run: fn(&ParsedFlags) -> Result<String, String>,
}

/// Every dispatched subcommand, in usage order.
pub const COMMANDS: &[CommandDef] = &[
    CommandDef {
        name: "plan",
        flag_set: plan_flags,
        run: cmd_plan,
    },
    CommandDef {
        name: "tiles",
        flag_set: tiles_flags,
        run: cmd_tiles,
    },
    CommandDef {
        name: "advise",
        flag_set: advise_flags,
        run: cmd_advise,
    },
    CommandDef {
        name: "simulate",
        flag_set: simulate_flags,
        run: cmd_simulate,
    },
    CommandDef {
        name: "predict",
        flag_set: predict_flags,
        run: cmd_predict,
    },
    CommandDef {
        name: "analyze",
        flag_set: analyze_flags,
        run: cmd_analyze,
    },
    CommandDef {
        name: "oracle",
        flag_set: oracle_flags,
        run: cmd_oracle,
    },
    CommandDef {
        name: "measure",
        flag_set: measure_flags,
        run: cmd_measure,
    },
    CommandDef {
        name: "profile",
        flag_set: profile_flags,
        run: cmd_profile,
    },
    CommandDef {
        name: "chaos",
        flag_set: chaos_flags,
        run: cmd_chaos,
    },
    CommandDef {
        name: "trace-check",
        flag_set: trace_check_flags,
        run: cmd_trace_check,
    },
    CommandDef {
        name: "serve",
        flag_set: serve_flags,
        run: cmd_serve,
    },
    CommandDef {
        name: "client",
        flag_set: client_flags,
        run: cmd_client,
    },
];

/// Top-level usage: one line per subcommand, generated from [`COMMANDS`].
pub fn usage() -> String {
    let mut out = String::from("usage: tiling3d <command> [--key value ...]\n\ncommands:\n");
    let width = COMMANDS.iter().map(|c| c.name.len()).max().unwrap_or(0);
    for c in COMMANDS {
        let set = (c.flag_set)();
        let _ = writeln!(out, "  {:width$}  {}", c.name, set.about);
    }
    out.push_str("\nrun `tiling3d <command> --help` for that command's flags");
    out
}

/// Parses and dispatches a raw argument list (without the program name).
/// Initialises the observability layer when the parsed obs flags ask for it
/// (`profile` manages its own recorder — it forces collection on).
pub fn run_argv(raw: &[String]) -> Result<String, String> {
    let name = raw.first().ok_or_else(usage)?;
    if name == "--help" || name == "-h" {
        return Err(usage());
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == *name)
        .ok_or_else(|| format!("unknown command '{name}'\n{}", usage()))?;
    let flags = (cmd.flag_set)().parse(&raw[1..])?;
    let cfg = obs::ObsConfig::from_flags(&flags)?;
    // Touch the process-global recorder only when the user asked for
    // something (keeps parallel in-process tests independent).
    let own_recorder = cmd.name != "profile" && (cfg.is_active() || cfg.log_level != 2);
    if own_recorder {
        obs::init(cfg)?;
    }
    let result = (cmd.run)(&flags);
    if own_recorder {
        obs::shutdown();
    }
    result
}

// ---------------------------------------------------------------------------
// Shared flag fragments and typed readers
// ---------------------------------------------------------------------------

const STENCIL_FLAG: FlagSpec = FlagSpec::str(
    "--stencil",
    Some("jacobi3d"),
    "stencil shape: jacobi3d|jacobi2d|redblack|resid",
);
const KERNEL_FLAG: FlagSpec =
    FlagSpec::str("--kernel", Some("jacobi"), "kernel: jacobi|redblack|resid");
const CACHE_KB_FLAG: FlagSpec = FlagSpec::usize("--cache-kb", Some("16"), "cache capacity in KB");
const LINE_FLAG: FlagSpec = FlagSpec::usize("--line", Some("32"), "cache line size in bytes");
const NK_FLAG: FlagSpec = FlagSpec::usize("--nk", Some("30"), "third-dimension extent");
const JOBS_FLAG: FlagSpec =
    FlagSpec::usize("--jobs", Some("0"), "simulation workers (0 = one per core)");
const STEPS_FLAG: FlagSpec = FlagSpec::usize(
    "--steps",
    Some("0"),
    "iterated time steps: engage the temporal (T, K) tiling mode",
);

fn kernel(flags: &ParsedFlags) -> Result<Kernel, String> {
    flags.parse_str("--kernel")
}

/// The typed API stencil named by `--stencil`.
fn req_stencil(flags: &ParsedFlags) -> Result<ReqStencil, String> {
    flags.parse_str("--stencil")
}

/// The typed API stencil named by `--kernel` (parsed through [`Kernel`]
/// so unknown names keep their historical "unknown kernel" error).
fn req_kernel(flags: &ParsedFlags) -> Result<ReqStencil, String> {
    Ok(match kernel(flags)? {
        Kernel::Jacobi => ReqStencil::Jacobi3d,
        Kernel::RedBlack => ReqStencil::RedBlack,
        Kernel::Resid => ReqStencil::Resid,
    })
}

/// The transform coverage named by `--transform` (default: all).
fn transform_sel(flags: &ParsedFlags) -> Result<TransformSel, String> {
    match flags.try_str("--transform") {
        None => Ok(TransformSel::All),
        Some(t) if t.eq_ignore_ascii_case("all") => Ok(TransformSel::All),
        Some(t) => Ok(TransformSel::One(t.parse()?)),
    }
}

/// Worker count a temporal request is sized for: "all cores" resolves
/// here so wire cache keys stay machine-independent; spatial-only
/// requests collapse to 1 (canonicalization would anyway).
fn request_jobs(flags: &ParsedFlags, steps: usize) -> usize {
    if steps > 0 {
        SimPool::new(flags.usize("--jobs")).jobs()
    } else {
        1
    }
}

/// The `--n` and `--nk` extents of a command that models, traces or runs
/// a sweep, each through the one extent check ([`extent_flag`]).
fn sweep_extents(flags: &ParsedFlags) -> Result<(usize, usize), String> {
    Ok((
        extent_flag(flags, "--n", None)?,
        extent_flag(flags, "--nk", None)?,
    ))
}

/// The `--cache-kb` capacity: the one check that it is a cache the
/// planner can use (a zero capacity has no tile and no reuse).
fn cache_spec(flags: &ParsedFlags) -> Result<CacheSpec, String> {
    match flags.usize("--cache-kb") {
        0 => Err(format!(
            "{} requires --cache-kb >= 1 (got 0)",
            flags.command()
        )),
        kb => Ok(CacheSpec::from_bytes(kb * 1024)),
    }
}

/// The L1 that `--cache-kb` and `--line` describe, built by `level` from
/// its capacity and line size in bytes: the one check of `simulate` and
/// `predict`. Rejects lines shorter than one double (an 8-byte access
/// would probe only the line of its first byte) and a geometry the
/// simulator cannot build.
fn checked_l1(
    flags: &ParsedFlags,
    cache: CacheSpec,
    level: impl FnOnce(usize, usize) -> CacheConfig,
) -> Result<CacheConfig, String> {
    let line = flags.usize("--line");
    if line < 8 {
        return Err(format!(
            "{} requires --line >= 8 (got {line})",
            flags.command()
        ));
    }
    let l1 = level(cache.elements * 8, line);
    l1.validate()
        .map_err(|e| format!("bad cache geometry from --cache-kb/--line: {e}"))?;
    Ok(l1)
}

/// The simulator's view of a static-model level: same capacity, line,
/// associativity and write policy, LRU within a set.
fn cache_config(level: &LevelGeometry) -> CacheConfig {
    CacheConfig {
        size_bytes: level.size_bytes,
        line_bytes: level.line_bytes,
        ways: level.ways,
        write_policy: if level.write_allocate {
            WritePolicy::WriteAllocate
        } else {
            WritePolicy::WriteAround
        },
    }
}

/// The iterated-kernel counterpart of a runnable kernel, for the
/// temporal (time-skewed) mode. RESID has no iterated in-place form.
fn temporal_kernel(k: Kernel) -> Result<TemporalKernel, String> {
    match k {
        Kernel::Jacobi => Ok(TemporalKernel::Jacobi),
        Kernel::RedBlack => Ok(TemporalKernel::RedBlack),
        Kernel::Resid => {
            Err("temporal mode supports jacobi and redblack only (resid is not iterated)".into())
        }
    }
}

/// The supervision-policy subset of [`SweepOptions::FLAGS`] (`--strict`,
/// `--retries`, `--deadline-ms`). `simulate` and `measure` declare these;
/// checkpoint/resume stays with the bench sweep drivers, where sweeps are
/// long enough to interrupt.
fn policy_flags() -> &'static [FlagSpec] {
    &SweepOptions::FLAGS[..3]
}

/// Is `--format json` in effect? Rejects formats the tiling3d subcommands
/// do not render (the bench drivers own `csv`).
fn json_format(flags: &ParsedFlags) -> Result<bool, String> {
    match flags.str("--format") {
        "text" => Ok(false),
        "json" => Ok(true),
        other => Err(format!(
            "--format: unsupported format '{other}' (expected text or json)"
        )),
    }
}

// ---------------------------------------------------------------------------
// plan
// ---------------------------------------------------------------------------

fn plan_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d plan",
        "tile + padding plan for every transformation",
        None,
        &[
            STENCIL_FLAG,
            FlagSpec::pair("--dims", "array dimensions DIxDJ (required)"),
            CACHE_KB_FLAG,
            STEPS_FLAG,
            JOBS_FLAG,
        ],
    )
}

fn cmd_plan(flags: &ParsedFlags) -> Result<String, String> {
    let (di, dj) = flags.try_pair("--dims").ok_or("plan requires --dims AxB")?;
    let steps = flags.usize("--steps");
    let req = PlanRequest {
        query: PlanQuery::Plan,
        stencil: req_stencil(flags)?,
        di,
        dj,
        nk: 0,
        cache: cache_spec(flags)?,
        transforms: TransformSel::All,
        steps,
        jobs: request_jobs(flags, steps),
    };
    let resp = respond(&req)?;
    if json_format(flags)? {
        return Ok(format!("{}\n", resp.render()));
    }
    let PlanResponse::Plans(r) = &resp else {
        unreachable!("plan query answers with a plan table");
    };
    let shape = r.stencil.shape();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "planning for a {}x{}xM array, stencil {} (m={}, n={}, ATD={}), cache {} doubles",
        r.di,
        r.dj,
        shape.name(),
        shape.m(),
        shape.n(),
        shape.atd(),
        r.cache.elements
    );
    let _ = writeln!(
        out,
        "{:<10}{:>12}{:>16}{:>12}",
        "transform", "tile", "padded dims", "model cost"
    );
    for p in &r.rows {
        let _ = writeln!(
            out,
            "{:<10}{:>12}{:>16}{:>12}",
            p.transform.name(),
            p.tile.map_or("-".into(), |(a, b)| format!("{a}x{b}")),
            format!("{}x{}", p.padded_di, p.padded_dj),
            if p.cost.is_finite() {
                format!("{:.4}", p.cost)
            } else {
                "-".into()
            },
        );
    }
    if let Some(t) = &r.temporal {
        let ws_kb = t.working_elements * 8 / 1024;
        let _ = writeln!(
            out,
            "\ntemporal plan: {} x {} steps, {} job(s) -> time tile (ST, SK) = ({}, {})",
            t.kernel.name(),
            t.steps,
            t.jobs,
            t.plan.st,
            t.plan.sk
        );
        if let Some((sched, _)) = &t.certified {
            let _ = writeln!(
                out,
                "  working set {} planes/buffer x {} buffer(s) = {ws_kb} KB; \
                 schedule '{sched}' certified legal",
                t.plan.working_planes,
                t.kernel.buffers(),
            );
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// tiles
// ---------------------------------------------------------------------------

fn tiles_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d tiles",
        "maximal non-conflicting array tiles (Table 1)",
        None,
        &[
            FlagSpec::usize("--di", Some("200"), "leading array dimension"),
            FlagSpec::usize("--dj", None, "middle array dimension (default: --di)"),
            FlagSpec::usize("--cache", Some("2048"), "cache capacity in elements"),
            FlagSpec::usize("--tkmax", Some("4"), "largest array-tile depth to list"),
        ],
    )
}

fn cmd_tiles(flags: &ParsedFlags) -> Result<String, String> {
    let di = flag_at_least(flags, "--di", 1, None)?;
    let dj = flag_at_least(flags, "--dj", 1, Some(di))?;
    let cache = flag_at_least(flags, "--cache", 1, None)?;
    let tkmax = flag_at_least(flags, "--tkmax", 1, None)?;
    let tiles = enumerate_array_tiles(cache, di, dj, tkmax);
    if json_format(flags)? {
        let rows = tiles
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("tk", Json::uint(t.tk as u64)),
                    ("tj", Json::uint(t.tj as u64)),
                    ("ti", Json::uint(t.ti as u64)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("di", Json::uint(di as u64)),
            ("dj", Json::uint(dj as u64)),
            ("cache_elements", Json::uint(cache as u64)),
            ("tiles", Json::Arr(rows)),
        ]);
        return Ok(format!("{}\n", doc.render()));
    }
    let mut out =
        format!("maximal non-conflicting array tiles, {di}x{dj}xM array, {cache}-element cache:\n");
    let _ = writeln!(out, "{:>4}{:>6}{:>6}", "TK", "TJ", "TI");
    for t in &tiles {
        let _ = writeln!(out, "{:>4}{:>6}{:>6}", t.tk, t.tj, t.ti);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// advise
// ---------------------------------------------------------------------------

fn advise_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d advise",
        "does this stencil at this size still have cache reuse?",
        None,
        &[
            STENCIL_FLAG,
            FlagSpec::usize("--n", None, "problem size N (required)"),
            CACHE_KB_FLAG,
            STEPS_FLAG,
            JOBS_FLAG,
        ],
    )
}

fn cmd_advise(flags: &ParsedFlags) -> Result<String, String> {
    let n = flags.try_usize("--n").ok_or("advise requires --n")?;
    if n == 0 {
        return Err("advise requires --n".into());
    }
    let steps = flags.usize("--steps");
    let req = PlanRequest {
        query: PlanQuery::Advise,
        stencil: req_stencil(flags)?,
        di: n,
        dj: n,
        nk: 0,
        cache: cache_spec(flags)?,
        transforms: TransformSel::All,
        steps,
        jobs: request_jobs(flags, steps),
    };
    let resp = respond(&req)?;
    if json_format(flags)? {
        return Ok(format!("{}\n", resp.render()));
    }
    let PlanResponse::Advice(r) = &resp else {
        unreachable!("advise query answers with advice");
    };
    let shape = r.stencil.shape();
    let mut out = String::new();
    match r.reuse_distance {
        None => {
            let _ = writeln!(
                out,
                "2D stencil {}: group reuse survives up to column length {}; \
                 at N = {}: {:?}",
                shape.name(),
                r.reuse_bound,
                r.n,
                r.verdict
            );
        }
        Some(dist) => {
            let _ = writeln!(
                out,
                "3D stencil {}: K-loop reuse survives up to plane extent {}; \
                 at N = {}: {:?}",
                shape.name(),
                r.reuse_bound,
                r.n,
                r.verdict
            );
            let _ = writeln!(
                out,
                "reuse distance across K at N = {}: {dist} elements ({} KB)",
                r.n,
                dist * 8 / 1024
            );
            if let Some(t) = &r.temporal {
                let _ = writeln!(
                    out,
                    "temporal: {} x {} steps, {} job(s) -> time tile (ST, SK) = ({}, {}) \
                     ({} planes/buffer in cache)",
                    t.kernel.name(),
                    t.steps,
                    t.jobs,
                    t.plan.st,
                    t.plan.sk,
                    t.plan.working_planes
                );
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// simulate
// ---------------------------------------------------------------------------

fn simulate_flags() -> FlagSet {
    let mut flags = vec![
        KERNEL_FLAG,
        FlagSpec::usize("--n", None, "problem size N (required, >= 3)"),
        NK_FLAG,
        CACHE_KB_FLAG,
        LINE_FLAG,
        FlagSpec::str(
            "--transform",
            Some("pad"),
            "transformation (orig|tile|euc3d|gcdpad|pad|gcdpadnt|all)",
        ),
        JOBS_FLAG,
        STEPS_FLAG,
        FlagSpec::switch(
            "--tlb",
            "simulate the 64-entry/8KB data TLB with page-walk reads through the caches",
        ),
    ];
    flags.extend_from_slice(policy_flags());
    FlagSet::new(
        "tiling3d simulate",
        "replay a kernel trace through the cache hierarchy",
        None,
        &flags,
    )
}

fn cmd_simulate(flags: &ParsedFlags) -> Result<String, String> {
    let kernel = kernel(flags)?;
    let (n, nk) = sweep_extents(flags)?;
    let cache = cache_spec(flags)?;
    let l1 = checked_l1(flags, cache, CacheConfig::direct_mapped)?;
    if flags.usize("--steps") > 0 {
        if flags.switch("--tlb") {
            return Err("simulate: --tlb does not combine with --steps (temporal mode)".into());
        }
        return simulate_temporal(flags, kernel, n, nk, cache, l1);
    }
    if flags.str("--transform").eq_ignore_ascii_case("all") {
        if flags.switch("--tlb") {
            return Err("simulate: --tlb needs a single --transform, not 'all'".into());
        }
        return simulate_all(flags, kernel, n, nk, l1);
    }
    let opts = SweepOptions::from_flags(flags)?;
    let t: Transform = flags.parse_str("--transform")?;
    // Plans size their tiles for this L1, as in every sweep.
    let cfg = SweepConfig {
        l1,
        ..SweepConfig::default()
    };
    if flags.switch("--tlb") {
        return simulate_tlb(&opts, &cfg, kernel, t, n, nk);
    }
    let (p, h) = supervise::supervise_item(&opts.policy, || {
        let p = plan_for(&cfg, kernel, t, n);
        let mut h = Hierarchy::new(l1, CacheConfig::ULTRASPARC2_L2);
        kernel.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut h);
        supervise::check_finite(&miss_rates(&h))?;
        Ok((p, h))
    })
    .map_err(|e| format!("simulate: {} at N = {n} failed: {e}", t.name()))?;

    Ok(format!(
        "{} {n}x{n}x{nk} under {}: tile {:?}, dims {}x{}\n\
         L1 miss rate {:.2}% ({} misses / {} accesses); L2 miss rate {:.2}%\n",
        kernel.name(),
        t.name(),
        p.tile,
        p.padded_di,
        p.padded_dj,
        h.l1_miss_rate_pct(),
        h.l1_stats().misses,
        h.l1_stats().accesses,
        h.l2_miss_rate_pct(),
    ))
}

/// `simulate --tlb`: the same single-transform replay, but through an
/// [`MmuHierarchy`] — a 64-entry/8KB-page data TLB whose misses cost a
/// page-table-entry read *through the caches* (so walk traffic both
/// pollutes and profits from L1/L2). Reports the TLB miss rate and the
/// walker's share of cache traffic next to the usual per-level rates,
/// quantifying the cache-vs-TLB trade-off of thin tiles (Mitchell et al.).
fn simulate_tlb(
    opts: &SweepOptions,
    cfg: &SweepConfig,
    kernel: Kernel,
    t: Transform,
    n: usize,
    nk: usize,
) -> Result<String, String> {
    let (p, m) = supervise::supervise_item(&opts.policy, || {
        let p = plan_for(cfg, kernel, t, n);
        let mut m = MmuHierarchy::new(
            Tlb::ultrasparc2(),
            Hierarchy::new(cfg.l1, CacheConfig::ULTRASPARC2_L2),
        );
        kernel.trace(n, nk, p.padded_di, p.padded_dj, p.tile, &mut m);
        supervise::check_finite(&miss_rates(m.hierarchy()))?;
        Ok((p, m))
    })
    .map_err(|e| format!("simulate: {} at N = {n} failed: {e}", t.name()))?;
    let tlb = m.tlb_stats();
    let l1s = m.l1_stats();
    Ok(format!(
        "{} {n}x{n}x{nk} under {} with dTLB (64 entries x 8KB pages): tile {:?}, dims {}x{}\n\
         TLB miss rate {:.4}% ({} walks / {} translations)\n\
         L1 miss rate {:.2}% ({} misses / {} accesses, of which {} are page-walk reads)\n\
         L2 miss rate {:.2}%\n",
        kernel.name(),
        t.name(),
        p.tile,
        p.padded_di,
        p.padded_dj,
        m.tlb_miss_rate_pct(),
        m.walk_reads(),
        tlb.accesses,
        m.hierarchy().l1_miss_rate_pct(),
        l1s.misses,
        l1s.accesses,
        m.walk_reads(),
        m.hierarchy().l2_miss_rate_pct(),
    ))
}

/// A simulated hierarchy's miss rates, named for the numerical sentinel
/// ([`supervise::check_finite`]).
fn miss_rates(h: &Hierarchy) -> [(&'static str, f64); 2] {
    [
        ("L1 miss rate", h.l1_miss_rate_pct()),
        ("L2 miss rate", h.l2_miss_rate_pct()),
    ]
}

/// `simulate --transform all`: every transformation's trace at one size,
/// through the supervised sweep grid ([`simulate_grid_supervised`]) on a
/// one-size sweep whose L1 is the `--cache-kb`/`--line` level, sharded
/// one transform per pool worker. Transform order (and therefore output)
/// is fixed; worker count only changes wall time. A failed transform
/// renders as a `FAILED` row and turns the invocation into an `Err`
/// (non-zero exit) with the intact rows still shown.
fn simulate_all(
    flags: &ParsedFlags,
    kernel: Kernel,
    n: usize,
    nk: usize,
    l1: CacheConfig,
) -> Result<String, String> {
    let opts = SweepOptions::from_flags(flags)?;
    let cfg = SweepConfig {
        n_min: n,
        n_max: n,
        step: 1,
        nk,
        l1,
        jobs: flags.usize("--jobs"),
        ..SweepConfig::default()
    };
    let grid = simulate_grid_supervised(&cfg, kernel, &Transform::ALL, &opts)?;
    let mut out = format!(
        "{} {n}x{n}x{nk}, all transforms ({} workers):\n{:<10}{:>10}{:>14}{:>12}{:>12}\n",
        kernel.name(),
        cfg.pool().jobs(),
        "transform",
        "tile",
        "padded dims",
        "L1 miss %",
        "L2 miss %"
    );
    let mut failed = 0usize;
    let points = grid.rows.iter().flat_map(|(_, row)| row);
    for (&t, point) in Transform::ALL.iter().zip(points) {
        match point {
            Ok(sim) => {
                let p = plan_for(&cfg, kernel, t, n);
                let _ = writeln!(
                    out,
                    "{:<10}{:>10}{:>14}{:>12.2}{:>12.2}",
                    t.name(),
                    p.tile.map_or("-".into(), |(a, b)| format!("{a}x{b}")),
                    format!("{}x{}", p.padded_di, p.padded_dj),
                    sim.l1_pct,
                    sim.l2_pct,
                );
            }
            Err(e) => {
                failed += 1;
                let _ = writeln!(out, "{:<10}FAILED: {e}", t.name());
            }
        }
    }
    if failed > 0 {
        let _ = writeln!(out, "{failed} transform(s) failed");
        return Err(out);
    }
    Ok(out)
}

/// `simulate --steps T`: the temporal A/B. Replays the naive `T`-sweep
/// trace and the time-skewed tile schedule (tile from [`plan_temporal`]
/// on the same cache geometry, sequential band order) through identical
/// cache hierarchies, and reports the cross-timestep reduction in L1
/// read misses — the quantity time skewing exists to buy. The two Jacobi
/// buffers are based half a cache apart so they do not map on top of
/// each other in the direct-mapped L1.
fn simulate_temporal(
    flags: &ParsedFlags,
    kernel: Kernel,
    n: usize,
    nk: usize,
    cache: CacheSpec,
    l1: CacheConfig,
) -> Result<String, String> {
    let steps = flags.usize("--steps");
    let tk = temporal_kernel(kernel)?;
    let tile = plan_temporal(tk, cache, n * n, steps, 1);
    let tt = TimeTile {
        st: tile.st,
        sk: tile.sk,
    };
    let grid = Array3::<f64>::new(n, n, nk);
    let bytes = (grid.as_slice().len() * 8) as u64;
    let bases = [0u64, bytes + (cache.elements * 8 / 2) as u64];
    let opts = SweepOptions::from_flags(flags)?;
    let (naive, tiled) = supervise::supervise_item(&opts.policy, || {
        let mut naive = Hierarchy::new(l1, CacheConfig::ULTRASPARC2_L2);
        let mut tiled = Hierarchy::new(l1, CacheConfig::ULTRASPARC2_L2);
        match tk {
            TemporalKernel::Jacobi => {
                timetile::trace_jacobi_steps(&grid, steps, bases, &mut naive);
                timetile::trace_jacobi_time_tiled(&grid, steps, tt, bases, &mut tiled);
            }
            TemporalKernel::RedBlack => {
                timetile::trace_redblack_steps(&grid, steps, 0, &mut naive);
                timetile::trace_redblack_time_tiled(&grid, steps, tt, 0, &mut tiled);
            }
        }
        supervise::check_finite(&miss_rates(&naive))?;
        supervise::check_finite(&miss_rates(&tiled))?;
        Ok((naive, tiled))
    })
    .map_err(|e| {
        format!(
            "simulate: temporal {} at N = {n} failed: {e}",
            kernel.name()
        )
    })?;
    let (nrm, trm) = (naive.l1_stats().read_misses, tiled.l1_stats().read_misses);
    let reduction = if nrm > 0 {
        (nrm as f64 - trm as f64) * 100.0 / nrm as f64
    } else {
        0.0
    };
    let mut out = format!(
        "temporal simulate: {} {n}x{n}x{nk}, T = {steps}, time tile (ST, SK) = ({}, {})\n",
        kernel.name(),
        tt.st,
        tt.sk
    );
    let _ = writeln!(
        out,
        "{:<18}{:>12}{:>16}{:>12}",
        "schedule", "L1 miss %", "L1 read misses", "L2 miss %"
    );
    for (label, h) in [("naive x T", &naive), ("time-tiled", &tiled)] {
        let _ = writeln!(
            out,
            "{:<18}{:>12.2}{:>16}{:>12.2}",
            label,
            h.l1_miss_rate_pct(),
            h.l1_stats().read_misses,
            h.l2_miss_rate_pct(),
        );
    }
    let _ = writeln!(
        out,
        "cross-timestep L1 read-miss reduction: {reduction:.1}% ({nrm} -> {trm})"
    );
    Ok(out)
}

// ---------------------------------------------------------------------------
// predict
// ---------------------------------------------------------------------------

fn predict_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d predict",
        "closed-form miss prediction (no simulation)",
        None,
        &[
            KERNEL_FLAG,
            FlagSpec::usize("--n", None, "problem size N (required, >= 3)"),
            NK_FLAG,
            CACHE_KB_FLAG,
            LINE_FLAG,
            FlagSpec::pair("--tile", "predict a TIxTJ-tiled sweep instead of untiled"),
        ],
    )
}

/// `predict`: the static miss model's fully-associative histogram
/// ([`histogram`]) evaluated at the cache's capacity. The level passes
/// the same check as `simulate`'s (`checked_l1`).
fn cmd_predict(flags: &ParsedFlags) -> Result<String, String> {
    let kernel = kernel(flags)?;
    let (n, nk) = sweep_extents(flags)?;
    let cache = cache_spec(flags)?;
    let l1 = checked_l1(flags, cache, |size, line| {
        cache_config(&LevelGeometry::fully_associative(size, line))
    })?;
    let level = LevelGeometry::fully_associative(l1.size_bytes, l1.line_bytes);
    let model = match kernel {
        Kernel::Jacobi => KernelModel::jacobi3d(),
        Kernel::RedBlack => KernelModel::redblack_naive(),
        Kernel::Resid => KernelModel::resid(),
    };
    let sched = match flags.try_pair("--tile") {
        None => PlanSchedule::Untiled,
        Some((ti, tj)) if ti >= 1 && tj >= 1 => PlanSchedule::Tiled { ti, tj },
        Some((ti, tj)) => {
            return Err(format!(
                "{} requires --tile extents >= 1 (got {ti}x{tj})",
                flags.command()
            ))
        }
    };
    let h = histogram(&model, sched, &Problem::cube(n, nk), &level);
    let capacity = cache.elements as f64;
    Ok(format!(
        "analytic prediction for {} {n}x{n}x{nk} (conflict-free {}-double cache):\n\
         {:.0} misses / {:.0} accesses = {:.2}% miss rate\n",
        kernel.name(),
        cache.elements,
        h.misses_at(capacity),
        h.accesses,
        h.miss_rate_pct_at(capacity),
    ))
}

// ---------------------------------------------------------------------------
// analyze
// ---------------------------------------------------------------------------

fn analyze_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d analyze",
        "dependence-based legality certification",
        None,
        &[
            KERNEL_FLAG,
            FlagSpec::usize("--n", Some("200"), "problem size N"),
            CACHE_KB_FLAG,
            FlagSpec::str(
                "--transform",
                None,
                "transformation to certify (default: all)",
            ),
            FlagSpec::switch(
                "--no-skew",
                "request the unskewed fused red-black tiling (known illegal)",
            ),
            FlagSpec::switch(
                "--temporal",
                "certify the time-skewed (T, K) band schedule family instead",
            ),
            FlagSpec::switch(
                "--locality",
                "run the static locality analyzer: reuse histogram, miss curve, conflict witnesses",
            ),
            NK_FLAG,
            GEOMETRY_FLAG,
        ],
    )
}

/// `analyze --temporal`: certify the time-skewed `(T, K)` band schedule
/// family for the iterated kernel — the temporal counterpart of the
/// spatial certificates. `--no-skew` requests the rectangular band
/// tiling, the known-illegal family member, which is rejected with the
/// broken time-stepped distance vector as typed witness (non-zero exit —
/// the CI gate relies on this).
fn analyze_temporal(flags: &ParsedFlags) -> Result<String, String> {
    let req = PlanRequest {
        query: PlanQuery::TemporalLegality {
            skewed: !flags.switch("--no-skew"),
        },
        stencil: req_kernel(flags)?,
        di: 0,
        dj: 0,
        nk: 0,
        cache: cache_spec(flags)?,
        transforms: TransformSel::All,
        steps: 0,
        jobs: 1,
    };
    let resp = respond(&req)?;
    let PlanResponse::TemporalLegality(r) = &resp else {
        unreachable!("temporal-legality query answers with a certificate");
    };
    let legal = r.certificate.is_legal();
    let rendered = if json_format(flags)? {
        format!("{}\n", resp.render())
    } else {
        let mut out = format!(
            "temporal legality analysis: iterated {}, schedule '{}'\n\n",
            r.kernel.name(),
            r.certificate.schedule.name
        );
        out.push_str(&r.certificate.report());
        if legal {
            let _ = writeln!(out, "\nthe time-skewed band tiling is legal");
        } else {
            let _ = writeln!(
                out,
                "\nILLEGAL temporal schedule for {} — refusing to certify",
                r.kernel.name()
            );
        }
        out
    };
    if legal {
        Ok(rendered)
    } else {
        Err(rendered)
    }
}

/// `analyze`: the legality analyzer. For each requested transform, plans
/// it (which decides whether the executed schedule is tiled), certifies
/// the schedule against the kernel's dependence set, and prints the full
/// certificate: iteration-space dimensions, dependences, schedule steps,
/// verdict. Any illegal schedule turns the whole invocation into an `Err`,
/// so the process exits non-zero — the CI gate relies on this.
fn cmd_analyze(flags: &ParsedFlags) -> Result<String, String> {
    if flags.switch("--temporal") {
        return analyze_temporal(flags);
    }
    if flags.switch("--locality") {
        return analyze_locality(flags);
    }
    let stencil = req_kernel(flags)?;
    let n = extent_flag(flags, "--n", None)?;
    let req = PlanRequest {
        query: PlanQuery::Legality {
            skewed: !flags.switch("--no-skew"),
        },
        stencil,
        di: n,
        dj: n,
        nk: 0,
        cache: cache_spec(flags)?,
        transforms: transform_sel(flags)?,
        steps: 0,
        jobs: 1,
    };
    let resp = respond(&req)?;
    let PlanResponse::Legality(r) = &resp else {
        unreachable!("legality query answers with certificates");
    };
    let illegal: Vec<&str> = r
        .rows
        .iter()
        .filter(|row| !row.certificate.is_legal())
        .map(|row| row.plan.transform.name())
        .collect();
    let rendered = if json_format(flags)? {
        format!("{}\n", resp.render())
    } else {
        let kernel_name = r.stencil.kernel_name().unwrap_or("UNKNOWN");
        let mut out = format!(
            "legality analysis: {} (discipline {:?}), {n}x{n} arrays, cache {} doubles\n",
            kernel_name, r.discipline, req.cache.elements
        );
        for row in &r.rows {
            let _ = writeln!(
                out,
                "\n== {} / {} ({}) ==",
                kernel_name,
                row.plan.transform.name(),
                row.plan
                    .tile
                    .map_or("untiled".into(), |(a, b)| format!("tile {a}x{b}")),
            );
            out.push_str(&row.certificate.report());
        }
        if illegal.is_empty() {
            let _ = writeln!(out, "\nall analyzed schedules are legal");
        } else {
            let _ = writeln!(
                out,
                "\nILLEGAL schedules for: {} — refusing to certify",
                illegal.join(", ")
            );
        }
        out
    };
    if illegal.is_empty() {
        Ok(rendered)
    } else {
        Err(rendered)
    }
}

// ---------------------------------------------------------------------------
// Static locality analysis (`analyze --locality`) and the oracle
// ---------------------------------------------------------------------------

const GEOMETRY_FLAG: FlagSpec = FlagSpec::str(
    "--geometry",
    Some("us2"),
    "cache geometry for locality analysis: us2|modern|fa",
);

/// Replays the exact trace a locality row models (the oracle's simulated
/// leg). Red-black realises its locality transformation as the *fused*
/// schedule (Fig 12) rather than the skewed tile, so its rows run untiled
/// (DESIGN.md §15).
fn replay_row<S: AccessSink>(
    kernel: Kernel,
    model: &KernelModel,
    prob: &Problem,
    tile: Option<(usize, usize)>,
    sink: &mut S,
) {
    let Problem { n, nk, di, dj } = *prob;
    if model.fused3d {
        let fused = tiling3d_stencil::redblack::Schedule::Fused;
        tiling3d_stencil::redblack::trace(n, nk, di, dj, fused, sink);
    } else {
        kernel.trace(n, nk, di, dj, tile, sink);
    }
}

/// The locality request behind `analyze --locality` and `oracle`: the
/// preset named by `--geometry`, at `--n` x `--n` x `--nk`.
fn locality_request(flags: &ParsedFlags) -> Result<PlanRequest, String> {
    let stencil = req_kernel(flags)?;
    let (n, nk) = sweep_extents(flags)?;
    let geometry: GeometryPreset = flags.parse_str("--geometry")?;
    Ok(PlanRequest {
        query: PlanQuery::Locality { geometry },
        stencil,
        di: n,
        dj: n,
        nk,
        cache: cache_spec(flags)?,
        transforms: transform_sel(flags)?,
        steps: 0,
        jobs: 1,
    })
}

/// `analyze --locality`: the purely static locality analyzer. For each
/// transform: the symbolic reuse-distance histogram (= the full
/// fully-associative LRU miss curve), its knees, the per-level
/// predictions with conflict-interference corrections, the analytic
/// lower bound, and every typed conflict witness. No trace is replayed.
fn analyze_locality(flags: &ParsedFlags) -> Result<String, String> {
    let resp = respond(&locality_request(flags)?)?;
    if json_format(flags)? {
        return Ok(format!("{}\n", resp.render()));
    }
    let PlanResponse::Locality(r) = &resp else {
        unreachable!("locality query answers with a locality report");
    };
    let (l1g, l2g) = r.geometry.levels();
    let mut out = format!(
        "static locality analysis: {} {}x{}x{}, geometry {} \
         (L1 {}KB {}-way/{}B, L2 {}KB {}-way/{}B)\n",
        r.stencil.kernel_name().unwrap_or("UNKNOWN"),
        r.n,
        r.n,
        r.nk,
        r.geometry.name(),
        l1g.size_bytes / 1024,
        l1g.ways,
        l1g.line_bytes,
        l2g.size_bytes / 1024,
        l2g.ways,
        l2g.line_bytes,
    );
    for row in &r.rows {
        let _ = writeln!(
            out,
            "\n== {} ({}, alloc {}x{}) ==",
            row.plan.transform.name(),
            row.tile
                .map_or("untiled".into(), |(a, b)| format!("tile {a}x{b}")),
            row.plan.padded_di,
            row.plan.padded_dj,
        );
        let _ = writeln!(
            out,
            "  reuse-distance histogram ({:.0} accesses):",
            row.histogram.accesses
        );
        let _ = writeln!(
            out,
            "    {:<16}{:<9}{:>14}{:>14}",
            "class", "kind", "distance", "count"
        );
        for c in &row.histogram.classes {
            let _ = writeln!(
                out,
                "    {:<16}{:<9}{:>14.0}{:>14.0}",
                c.label,
                format!("{:?}", c.kind),
                c.distance,
                c.count
            );
        }
        let knees: Vec<String> = row
            .histogram
            .knees()
            .iter()
            .map(ToString::to_string)
            .collect();
        let _ = writeln!(out, "  miss-curve knees (elements): {}", knees.join(", "));
        for lp in [&row.l1, &row.l2] {
            let _ = writeln!(
                out,
                "  {}: predicted {:.2}% (fa {:.2}% + conflict {:.0} misses), bound {:.0} misses",
                lp.level,
                lp.miss_rate_pct,
                100.0 * lp.fa_misses / lp.accesses,
                lp.conflict_extra,
                lp.bound_misses,
            );
        }
        if row.l1.conflicts.witnesses.is_empty() && row.l2.conflicts.witnesses.is_empty() {
            let _ = writeln!(out, "  conflicts: none");
        }
        for (level, lp) in [("L1", &row.l1), ("L2", &row.l2)] {
            for w in &lp.conflicts.witnesses {
                let _ = writeln!(
                    out,
                    "  {} witness: {:?} refs {:?} window [{}, {}) period {} \
                     lines {} ways {} kill {:.2}{}",
                    level,
                    w.kind,
                    w.refs,
                    w.set_window.0,
                    w.set_window.1,
                    w.period_iters,
                    w.lines,
                    w.ways,
                    w.killed_fraction,
                    if lp.conflicts.pathological {
                        "  [PATHOLOGICAL]"
                    } else {
                        ""
                    },
                );
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// oracle
// ---------------------------------------------------------------------------

fn oracle_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d oracle",
        "simulated / predicted / bound miss table per transform and level",
        None,
        &[
            KERNEL_FLAG,
            FlagSpec::usize("--n", Some("120"), "problem size N"),
            FlagSpec::usize("--nk", Some("20"), "third-dimension extent"),
            CACHE_KB_FLAG,
            FlagSpec::str(
                "--transform",
                None,
                "transformation to check (default: all)",
            ),
            GEOMETRY_FLAG,
        ],
    )
}

/// `oracle`: the three-way cross-validation table. For each transform it
/// replays the exact kernel trace through the simulator next to the
/// plans and per-level predictions of the locality query, printing
/// `simulated / predicted / bound` per cache level. The analytic lower
/// bound holds for any replacement policy, so `bound <= simulated` is
/// asserted here — a violation is a model bug and exits non-zero (the CI
/// oracle gate).
fn cmd_oracle(flags: &ParsedFlags) -> Result<String, String> {
    let kernel = kernel(flags)?;
    let PlanResponse::Locality(r) = respond(&locality_request(flags)?)? else {
        unreachable!("locality query answers with a locality report");
    };
    let (n, nk, geometry) = (r.n, r.nk, r.geometry);
    let (l1, l2) = geometry.levels();
    struct OracleRow {
        transform: &'static str,
        level: &'static str,
        sim_pct: f64,
        pred_pct: f64,
        bound: f64,
        sim_misses: u64,
        pathological: bool,
    }
    let mut rows: Vec<OracleRow> = Vec::new();
    for row in &r.rows {
        let t = row.plan.transform;
        let model = r.stencil.model(t)?;
        let prob = Problem {
            n,
            nk,
            di: row.plan.padded_di,
            dj: row.plan.padded_dj,
        };
        let mut h = Hierarchy::new(cache_config(&l1), cache_config(&l2));
        replay_row(kernel, &model, &prob, row.tile, &mut h);
        let acc = h.l1_stats().accesses as f64;
        rows.push(OracleRow {
            transform: t.name(),
            level: "L1",
            sim_pct: 100.0 * h.l1_stats().misses as f64 / acc,
            pred_pct: row.l1.miss_rate_pct,
            bound: row.l1.bound_misses,
            sim_misses: h.l1_stats().misses,
            pathological: row.l1.conflicts.pathological,
        });
        rows.push(OracleRow {
            transform: t.name(),
            level: "L2",
            sim_pct: 100.0 * h.l2_stats().misses as f64 / acc,
            pred_pct: row.l2.miss_rate_pct,
            bound: lower_bound_misses(&model, &prob, &l2, l1.capacity_elements()),
            sim_misses: h.l2_stats().misses,
            pathological: row.l2.conflicts.pathological,
        });
    }
    let violations: Vec<String> = rows
        .iter()
        .filter(|r| r.bound > r.sim_misses as f64 + 0.5)
        .map(|r| {
            format!(
                "{} {}: bound {:.0} exceeds simulated misses {}",
                r.transform, r.level, r.bound, r.sim_misses
            )
        })
        .collect();
    if json_format(flags)? {
        let jrows = rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("transform", Json::str(r.transform)),
                    ("level", Json::str(r.level)),
                    ("simulated_pct", Json::Num(r.sim_pct)),
                    ("predicted_pct", Json::Num(r.pred_pct)),
                    ("bound_misses", Json::Num(r.bound)),
                    ("simulated_misses", Json::uint(r.sim_misses)),
                    ("pathological", Json::Bool(r.pathological)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("kernel", Json::str(kernel.name())),
            ("n", Json::uint(n as u64)),
            ("nk", Json::uint(nk as u64)),
            ("geometry", Json::str(geometry.name())),
            ("bound_holds", Json::Bool(violations.is_empty())),
            ("rows", Json::Arr(jrows)),
        ]);
        let rendered = format!("{}\n", doc.render());
        return if violations.is_empty() {
            Ok(rendered)
        } else {
            Err(rendered)
        };
    }
    let mut out = format!(
        "locality oracle: {} {n}x{n}x{nk}, geometry {} — simulated vs predicted vs bound\n\
         {:<10}{:<5}{:>12}{:>12}{:>14}{:>8}\n",
        kernel.name(),
        geometry.name(),
        "transform",
        "lvl",
        "simulated",
        "predicted",
        "bound",
        "flags"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<10}{:<5}{:>11.2}%{:>11.2}%{:>14.0}{:>8}",
            r.transform,
            r.level,
            r.sim_pct,
            r.pred_pct,
            r.bound,
            if r.pathological { "PATH" } else { "-" },
        );
    }
    if violations.is_empty() {
        let _ = writeln!(out, "lower bound holds on every row");
        Ok(out)
    } else {
        for v in &violations {
            let _ = writeln!(out, "BOUND VIOLATION: {v}");
        }
        Err(out)
    }
}

// ---------------------------------------------------------------------------
// measure
// ---------------------------------------------------------------------------

fn measure_flags() -> FlagSet {
    let mut flags = vec![
        KERNEL_FLAG,
        FlagSpec::usize("--n", Some("128"), "problem size N"),
        NK_FLAG,
        FlagSpec::str(
            "--transform",
            Some("orig"),
            "transformation to run (orig|euc3d|tile|pad|gcdpad)",
        ),
        FlagSpec::usize("--reps", Some("3"), "timed repetitions (best-of)"),
        JOBS_FLAG,
    ];
    flags.extend_from_slice(policy_flags());
    FlagSet::new(
        "tiling3d measure",
        "wall-clock one kernel's sweep, sequential vs K-slab parallel",
        None,
        &flags,
    )
}

/// `measure`: wall-clocks one kernel at one size — the sequential sweep
/// and the K-slab parallel sweep across `--jobs` threads. Before timing,
/// the parallel result is checked bitwise against the sequential one from
/// identical initial state (jobs-invariance is a hard guarantee of the
/// engine, so any divergence is an `Err`, not a warning).
fn cmd_measure(flags: &ParsedFlags) -> Result<String, String> {
    let kernel = kernel(flags)?;
    let (n, nk) = sweep_extents(flags)?;
    let t: Transform = flags.str("--transform").parse()?;
    let cfg = SweepConfig {
        n_min: n,
        n_max: n,
        step: 1,
        nk,
        reps: flags.usize("--reps").max(1),
        jobs: flags.usize("--jobs"),
        ..SweepConfig::default()
    };
    let jobs = cfg.pool().jobs();
    let p = plan_for(&cfg, kernel, t, n);

    // Jobs-invariance gate: the parallel sweep must reproduce the
    // sequential sweep bit for bit from the same initial state.
    let mut seq = kernel.make_state(n, cfg.nk, &p, 0x5EED);
    let mut par = seq.clone();
    kernel.run(&mut seq, p.tile);
    kernel.run_parallel(&mut par, p.tile, jobs);
    if !seq.output().logical_eq(par.output()) {
        return Err(format!(
            "measure: parallel {} sweep diverged from sequential at N = {n}, --jobs {jobs}",
            kernel.name()
        ));
    }
    // The timed arms run under the supervision path: panic-isolated,
    // retried, deadline-checked, and health-scanned (`measure_mflops`
    // scans the output grid for NaN/Inf after the warm-up sweep of either
    // arm before accepting the timing).
    let opts = SweepOptions::from_flags(flags)?;
    let flops = kernel.sweep_flops(n, cfg.nk) as f64;
    let arm = |slabs| {
        supervise::supervise_item(&opts.policy, || {
            tiling3d_bench::measure_mflops(&cfg, kernel, t, n, slabs, None)
        })
    };
    let seq_mflops = arm(None).map_err(|e| format!("measure: sequential arm failed: {e}"))?;
    let par_mflops =
        arm(Some(cfg.jobs)).map_err(|e| format!("measure: parallel arm failed: {e}"))?;
    let mut out = format!(
        "measure: {} {n}x{n}x{} ({}, {}), {:.0} MFlop/sweep\n",
        kernel.name(),
        cfg.nk,
        t.name(),
        p.tile
            .map_or("untiled".into(), |(a, b)| format!("tile {a}x{b}")),
        flops / 1e6,
    );
    out.push_str("parallel result verified bitwise against sequential\n\n");
    let _ = writeln!(out, "{:<24}{:>12}{:>12}", "arm", "GFLOP/s", "speedup");
    let _ = writeln!(
        out,
        "{:<24}{:>12.3}{:>12}",
        "sequential",
        seq_mflops / 1e3,
        "1.00x"
    );
    let _ = writeln!(
        out,
        "{:<24}{:>12.3}{:>11.2}x",
        format!("parallel (--jobs {jobs})"),
        par_mflops / 1e3,
        par_mflops / seq_mflops
    );
    Ok(out)
}

// ---------------------------------------------------------------------------
// profile
// ---------------------------------------------------------------------------

fn profile_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d profile",
        "run the plan+simulate pipeline with spans on; print the span tree",
        None,
        &[
            KERNEL_FLAG,
            FlagSpec::usize("--n", Some("64"), "problem size N"),
            NK_FLAG,
            JOBS_FLAG,
            STEPS_FLAG,
        ],
    )
}

/// `profile`: plans and simulates every transformation at one size with
/// span collection forced on, runs one parallel compute sweep under a
/// `compute:<KERNEL>` span (red-black shows its two colour half-sweep
/// phases as children), then renders the
/// span tree (per-phase wall-clock percentages, attached counters) and
/// the metric registry.
/// `--steps T` additionally runs the wavefront-parallel time-tiled sweep,
/// whose `timetile:*` span nests a `wavefront` span per anti-diagonal (per
/// tile at `--jobs 1`) and a `timeblock` span per tile. `--trace-out` additionally streams the
/// JSONL events; `--jobs N` shows the per-worker `SimPool` spans.
fn cmd_profile(flags: &ParsedFlags) -> Result<String, String> {
    let kernel = kernel(flags)?;
    let (n, nk) = sweep_extents(flags)?;
    let steps = flags.usize("--steps");
    let tkern = if steps > 0 {
        Some(temporal_kernel(kernel)?)
    } else {
        None
    };
    let mut obs_cfg = obs::ObsConfig::from_flags(flags)?;
    obs_cfg.collect = true;
    obs::init(obs_cfg)?;
    let cfg = SweepConfig {
        n_min: n,
        n_max: n,
        step: 1,
        nk,
        jobs: flags.usize("--jobs"),
        ..SweepConfig::default()
    };
    let (rows, tp) = simulate_grid(&cfg, kernel, &Transform::ALL);

    // One parallel sweep under a `compute:<KERNEL>` span, so the compute
    // phase shows up in the tree next to the simulation phases.
    // Red-black nests its `redblack:red` / `redblack:black` colour
    // half-sweeps underneath.
    {
        let p = plan_for(&cfg, kernel, Transform::GcdPad, n);
        let _compute = obs::span(&format!("compute:{}", kernel.name()));
        let mut state = kernel.make_state(n, cfg.nk, &p, 0x5EED);
        kernel.run_parallel(&mut state, p.tile, cfg.pool().jobs());
    }

    // Temporal mode: one wavefront-parallel time-tiled sweep. The tile
    // targets the last-level cache (the reuse time skewing carries spans
    // whole planes, not L1-sized tiles).
    if let Some(tk) = tkern {
        let jobs = cfg.pool().jobs();
        let tile = plan_temporal(
            tk,
            CacheSpec::from_bytes(8 * 1024 * 1024),
            n * n,
            steps,
            jobs,
        );
        let tt = TimeTile {
            st: tile.st,
            sk: tile.sk,
        };
        match tk {
            TemporalKernel::Jacobi => {
                let mut b0 = Array3::new(n, n, cfg.nk);
                fill_random(&mut b0, 0x5EED);
                let b1 = b0.clone();
                let mut bufs = [b0, b1];
                timetile::jacobi_time_tiled(&mut bufs, 1.0 / 6.0, steps, tt, jobs);
            }
            TemporalKernel::RedBlack => {
                let mut a = Array3::new(n, n, cfg.nk);
                fill_random(&mut a, 0x5EED);
                timetile::redblack_time_tiled(&mut a, 0.4, 0.1, steps, tt, jobs);
            }
        }
    }

    let trace = obs::shutdown().ok_or("profile: no trace collected")?;

    let mut out = format!(
        "profile: {} {n}x{n}x{}, all transforms, {} workers ({})\n\n",
        kernel.name(),
        cfg.nk,
        cfg.pool().jobs(),
        tp.summary(),
    );
    let _ = writeln!(
        out,
        "{:<10}{:>12}{:>12}",
        "transform", "L1 miss %", "L2 miss %"
    );
    for (_, points) in &rows {
        for (t, p) in Transform::ALL.iter().zip(points) {
            let _ = writeln!(out, "{:<10}{:>12.2}{:>12.2}", t.name(), p.l1_pct, p.l2_pct);
        }
    }
    out.push_str("\nspan tree (wall-clock, % of run):\n");
    out.push_str(&obs::render_tree(&trace));
    Ok(out)
}

// ---------------------------------------------------------------------------
// chaos
// ---------------------------------------------------------------------------

fn chaos_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d chaos",
        "seeded fault-injection campaign over a supervised sweep",
        None,
        &[
            KERNEL_FLAG,
            FlagSpec::usize("--min", Some("40"), "smallest problem size"),
            FlagSpec::usize("--max", Some("56"), "largest problem size"),
            FlagSpec::usize("--step", Some("8"), "size stride"),
            FlagSpec::usize("--nk", Some("8"), "third-dimension extent"),
            FlagSpec::usize("--seed", Some("42"), "campaign seed"),
            FlagSpec::usize("--faults", Some("2"), "points faulted per campaign"),
            FlagSpec::usize(
                "--retries",
                Some("1"),
                "retries per point in the recovery campaigns",
            ),
            JOBS_FLAG,
            FlagSpec::switch(
                "--serve",
                "target the serving layer: protocol fuzz + warm corruption + drain campaigns",
            ),
            FlagSpec::usize(
                "--rounds",
                Some("8"),
                "abuse rounds in the --serve fuzz campaign",
            ),
        ],
    )
}

/// Sleep a fault-injected delay lasts; the paired per-point deadline in
/// the delay campaigns is [`CHAOS_DEADLINE`]. The gap is wide enough that
/// a healthy point at the default chaos sizes never trips the deadline
/// while an injected delay always does, even on a slow debug build.
const CHAOS_DELAY: std::time::Duration = std::time::Duration::from_millis(600);
/// Per-point deadline during the delay campaigns.
const CHAOS_DEADLINE: std::time::Duration = std::time::Duration::from_millis(250);

/// Do two simulated points carry bit-identical metrics?
fn same_bits(a: &SimPoint, b: &SimPoint) -> bool {
    a.l1_pct.to_bits() == b.l1_pct.to_bits()
        && a.l2_pct.to_bits() == b.l2_pct.to_bits()
        && a.modeled.to_bits() == b.modeled.to_bits()
}

/// Does this terminal error match what the injected fault kind must
/// produce? (`root()` unwraps any `RetriesExhausted` wrapper.)
fn expected_error(kind: FaultKind, e: &SweepError) -> bool {
    match kind {
        FaultKind::Panic => matches!(e.root(), SweepError::Panicked { .. }),
        FaultKind::Delay(_) => matches!(e.root(), SweepError::DeadlineExceeded { .. }),
        FaultKind::NanWrite => matches!(e.root(), SweepError::Unhealthy { .. }),
    }
}

/// One chaos campaign: sweep under an armed fault plan, then check every
/// point against the fault-free baseline. Returns `(summary line, number
/// of violated expectations)`.
#[allow(clippy::too_many_arguments)]
fn chaos_campaign(
    cfg: &SweepConfig,
    kernel: Kernel,
    transforms: &[Transform],
    baseline: &[(usize, Vec<Result<SimPoint, SweepError>>)],
    label: &str,
    plan: FaultPlan,
    retries: u32,
    expect_recovery: bool,
) -> Result<(String, usize), String> {
    let kind = plan
        .kind_at(plan.armed().first().copied().unwrap_or_default())
        .unwrap_or(FaultKind::Panic);
    let armed: Vec<String> = plan.armed().iter().map(ToString::to_string).collect();
    let mut policy = supervise::SupervisePolicy {
        retries,
        backoff: std::time::Duration::from_millis(1),
        ..supervise::SupervisePolicy::default()
    };
    if matches!(kind, FaultKind::Delay(_)) {
        policy.deadline = Some(CHAOS_DEADLINE);
    }
    let opts = SweepOptions {
        policy,
        fault: Some(plan),
        ..SweepOptions::default()
    };
    let sg = simulate_grid_supervised(cfg, kernel, transforms, &opts)?;
    let mut violations = Vec::new();
    for ((n, row), (_, base_row)) in sg.rows.iter().zip(baseline) {
        for ((&t, got), base) in transforms.iter().zip(row).zip(base_row) {
            let key = checkpoint::point_key(kernel, t, *n, cfg.nk);
            let is_armed = armed.contains(&key);
            match (got, base) {
                (Ok(p), Ok(b)) => {
                    if is_armed && !expect_recovery {
                        violations.push(format!("{key}: fault injected but point succeeded"));
                    } else if !same_bits(p, b) {
                        violations.push(format!("{key}: result differs from fault-free baseline"));
                    }
                }
                (Err(e), Ok(_)) => {
                    if !is_armed {
                        violations.push(format!("{key}: unfaulted point failed: {e}"));
                    } else if expect_recovery {
                        violations.push(format!("{key}: expected recovery via retry, got: {e}"));
                    } else if !expected_error(kind, e) {
                        violations.push(format!("{key}: wrong error for {}: {e}", kind.name()));
                    }
                }
                (_, Err(e)) => return Err(format!("chaos: baseline point {key} failed: {e}")),
            }
        }
    }
    let verdict = if violations.is_empty() { "ok" } else { "!!" };
    let mut line = format!(
        "  [{verdict}] {label:<22} {} faulted, {} points checked",
        armed.len(),
        sg.report.total
    );
    for v in &violations {
        line.push_str(&format!("\n       {v}"));
    }
    Ok((line, violations.len()))
}

/// `chaos`: the deterministic fault-injection harness. Establishes a
/// fault-free baseline sweep, then runs six seeded campaigns — panic /
/// NaN-write / delay faults, each in always-fire (graceful-degradation)
/// and fire-once-plus-retry (recovery) mode — verifying typed errors at
/// exactly the armed points, bit-identical results everywhere else, and
/// full bit-identical recovery when retries can win. Exits non-zero on
/// any violated expectation.
fn cmd_chaos(flags: &ParsedFlags) -> Result<String, String> {
    if flags.switch("--serve") {
        return cmd_chaos_serve(flags);
    }
    let kernel = kernel(flags)?;
    let cfg = SweepConfig {
        n_min: extent_flag(flags, "--min", None)?,
        n_max: flags.usize("--max"),
        step: flag_at_least(flags, "--step", 1, None)?,
        nk: extent_flag(flags, "--nk", None)?,
        jobs: flags.usize("--jobs"),
        ..SweepConfig::default()
    };
    if cfg.n_max < cfg.n_min {
        return Err("chaos requires --min <= --max".into());
    }
    let seed = flags.usize("--seed") as u64;
    let faults = flags.usize("--faults").max(1);
    let retries = u32::try_from(flags.usize("--retries").max(1)).unwrap_or(u32::MAX);
    supervise::silence_expected_panics();

    let transforms = Transform::ALL;
    let keys: Vec<String> = cfg
        .sizes()
        .iter()
        .flat_map(|&n| {
            transforms
                .iter()
                .map(move |&t| checkpoint::point_key(kernel, t, n, cfg.nk))
        })
        .collect();

    let base = simulate_grid_supervised(&cfg, kernel, &transforms, &SweepOptions::default())?;
    if !base.report.is_ok() {
        return Err(format!(
            "chaos: fault-free baseline failed:\n{}",
            base.report.summary()
        ));
    }

    let mut out = format!(
        "chaos: {} N = {}..{} step {} ({} points, {} workers), seed {seed}, {faults} fault(s)/campaign\n",
        kernel.name(),
        cfg.n_min,
        cfg.n_max,
        cfg.step,
        keys.len(),
        cfg.pool().jobs(),
    );
    let kinds = [
        FaultKind::Panic,
        FaultKind::NanWrite,
        FaultKind::Delay(CHAOS_DELAY),
    ];
    let mut total_violations = 0usize;
    for kind in kinds {
        // Graceful degradation: the fault fires on every attempt, so the
        // armed points must fail with the matching typed error.
        let plan = FaultPlan::seeded(seed, &keys, faults, kind, FaultMode::Always);
        let (line, v) = chaos_campaign(
            &cfg,
            kernel,
            &transforms,
            &base.rows,
            &format!("{}/always", kind.name()),
            plan,
            0,
            false,
        )?;
        out.push_str(&line);
        out.push('\n');
        total_violations += v;

        // Recovery: the fault fires once per point, so a retry completes
        // the sweep bit-identically to the fault-free baseline.
        let plan = FaultPlan::seeded(seed, &keys, faults, kind, FaultMode::Once);
        let (line, v) = chaos_campaign(
            &cfg,
            kernel,
            &transforms,
            &base.rows,
            &format!("{}/once+retry", kind.name()),
            plan,
            retries,
            true,
        )?;
        out.push_str(&line);
        out.push('\n');
        total_violations += v;
    }
    if total_violations > 0 {
        let _ = writeln!(out, "chaos: {total_violations} violated expectation(s)");
        return Err(out);
    }
    out.push_str("chaos: all campaigns passed\n");
    Ok(out)
}

/// The request spread the serving-layer campaigns replay (distinct query
/// kinds so the warm file carries several shard entries).
fn chaos_serve_requests() -> Vec<String> {
    vec![
        "{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":200}".to_string(),
        "{\"query\":\"advise\",\"stencil\":\"jacobi3d\",\"n\":300}".to_string(),
        "{\"query\":\"legality\",\"kernel\":\"redblack\",\"n\":96}".to_string(),
        "{\"query\":\"euc3d\",\"stencil\":\"resid\",\"di\":200,\"dj\":200}".to_string(),
        "{\"query\":\"locality\",\"kernel\":\"jacobi\",\"n\":48,\"nk\":6}".to_string(),
    ]
}

/// `chaos --serve`: the serving-layer chaos harness (DESIGN.md §18).
/// Three campaigns against the hardened server: (1) the seeded protocol
/// fuzzer over a live TCP transport, (2) warm-start corruption recovery —
/// a byte is flipped at seeded offsets and every reboot must quarantine,
/// boot, and re-serve byte-identically, (3) graceful drain under load —
/// concurrent in-flight requests issued before shutdown must all flush
/// byte-identical to a cold service. Exits non-zero on any violation.
fn cmd_chaos_serve(flags: &ParsedFlags) -> Result<String, String> {
    use tiling3d_bench::fuzz;
    use tiling3d_bench::serve::PlanService;

    let seed = flags.usize("--seed") as u64;
    let rounds = flags.usize("--rounds").max(1);
    let limits = ServeLimits {
        max_conns: 32,
        conn_idle: std::time::Duration::from_millis(500),
        max_frame_bytes: 4096,
        drain_deadline: std::time::Duration::from_millis(2_000),
        compute_deadline: None,
    };
    let lines = chaos_serve_requests();
    let expected: Vec<String> = {
        let svc = PlanService::open(1, None, false)?;
        lines
            .iter()
            .map(|l| svc.handle_line(l).reply().to_string())
            .collect()
    };
    let mut out = format!("chaos --serve: seed {seed}, {rounds} abuse round(s)\n");
    let mut total_violations = 0usize;

    // Campaign 1: seeded protocol fuzzing over live TCP.
    {
        let handle = serve::start(ServeConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            limits,
            ..ServeConfig::default()
        })?;
        let addr = handle
            .tcp_addr()
            .ok_or("chaos --serve: no TCP address")?
            .to_string();
        let report = fuzz::campaign(&addr, &limits, seed, rounds);
        let verdict = if report.passed() { "ok" } else { "!!" };
        let _ = writeln!(
            out,
            "  [{verdict}] protocol-fuzz           {} round(s), {} failure(s)",
            report.rounds,
            report.failures.len()
        );
        for f in &report.failures {
            let _ = writeln!(out, "       {f}");
        }
        total_violations += report.failures.len();
        handle.request_shutdown();
        handle.wait();
    }

    // Campaign 2: warm-start corruption recovery. Flip one byte at seeded
    // offsets; every reboot must quarantine (or shed a torn tail), boot,
    // and re-serve the byte-identical answers.
    {
        let dir = std::env::temp_dir().join("tiling3d-chaos-serve");
        std::fs::create_dir_all(&dir).map_err(|e| format!("chaos --serve: tmp dir: {e}"))?;
        let warm = dir.join(format!("warm-{}.jsonl", std::process::id()));
        std::fs::remove_file(&warm).ok();
        {
            let svc = PlanService::open(2, Some(&warm), false)?;
            for l in &lines {
                svc.handle_line(l);
            }
        }
        let pristine =
            std::fs::read(&warm).map_err(|e| format!("chaos --serve: read warm file: {e}"))?;
        std::fs::remove_file(&warm).ok();
        let mut rng = tiling3d_grid::Xorshift64::new(seed | 1);
        let mut violations = Vec::new();
        let cases = 5usize;
        for _ in 0..cases {
            // Offset 1.. so the flip never lands on the final newline.
            let k = 1 + rng.next_below(pristine.len() - 2);
            let mut bytes = pristine.clone();
            bytes[k] ^= 0x5a;
            std::fs::write(&warm, &bytes)
                .map_err(|e| format!("chaos --serve: write corrupted warm file: {e}"))?;
            match PlanService::open(2, Some(&warm), true) {
                Err(e) => violations.push(format!("byte {k}: boot failed: {e}")),
                Ok(svc) => {
                    for (l, want) in lines.iter().zip(&expected) {
                        if svc.handle_line(l).reply() != want {
                            violations.push(format!("byte {k}: reply diverged for {l}"));
                        }
                    }
                }
            }
            std::fs::remove_file(&warm).ok();
            for n in 1..8 {
                std::fs::remove_file(format!("{}.corrupt-{n}", warm.display())).ok();
            }
        }
        let verdict = if violations.is_empty() { "ok" } else { "!!" };
        let _ = writeln!(
            out,
            "  [{verdict}] warm-corruption        {cases} corrupted boot(s), {} failure(s)",
            violations.len()
        );
        for v in &violations {
            let _ = writeln!(out, "       {v}");
        }
        total_violations += violations.len();
    }

    // Campaign 3: graceful drain under load. All in-flight requests
    // admitted before the drain must flush byte-identically.
    {
        let handle = serve::start(ServeConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            limits,
            ..ServeConfig::default()
        })?;
        let addr = handle.tcp_addr().ok_or("chaos --serve: no TCP address")?;
        let workers: Vec<_> = lines
            .iter()
            .cloned()
            .zip(expected.iter().cloned())
            .map(|(line, want)| {
                std::thread::spawn(move || -> Result<(), String> {
                    let mut s = TcpStream::connect(addr)
                        .map_err(|e| format!("drain client connect: {e}"))?;
                    let _ = s.set_nodelay(true);
                    s.write_all(format!("{line}\n").as_bytes())
                        .and_then(|()| s.flush())
                        .map_err(|e| format!("drain client send: {e}"))?;
                    let mut reply = String::new();
                    BufReader::new(&mut s)
                        .read_line(&mut reply)
                        .map_err(|e| format!("drain client receive: {e}"))?;
                    if reply.trim_end() == want {
                        Ok(())
                    } else {
                        Err(format!("drained reply for {line} diverged: {reply}"))
                    }
                })
            })
            .collect();
        let stats = &handle.service().stats;
        let gate = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while stats.requests.load(Ordering::Relaxed) < lines.len() as u64 {
            if std::time::Instant::now() > gate {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        handle.request_shutdown();
        let mut violations = Vec::new();
        for w in workers {
            match w.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => violations.push(e),
                Err(_) => violations.push("drain client panicked".to_string()),
            }
        }
        handle.wait();
        let verdict = if violations.is_empty() { "ok" } else { "!!" };
        let _ = writeln!(
            out,
            "  [{verdict}] drain-under-load       {} in-flight request(s), {} failure(s)",
            lines.len(),
            violations.len()
        );
        for v in &violations {
            let _ = writeln!(out, "       {v}");
        }
        total_violations += violations.len();
    }

    if total_violations > 0 {
        let _ = writeln!(
            out,
            "chaos --serve: {total_violations} violated expectation(s)"
        );
        return Err(out);
    }
    out.push_str("chaos --serve: all campaigns passed\n");
    Ok(out)
}

// ---------------------------------------------------------------------------
// trace-check
// ---------------------------------------------------------------------------

fn trace_check_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d trace-check",
        "validate a JSONL trace against the golden schema",
        Some(("trace", "path to a JSONL trace file")),
        &[FlagSpec::str(
            "--schema",
            None,
            "golden schema file (default: the built-in schema)",
        )],
    )
}

/// `trace-check`: parses every line of a JSONL trace, checks spans balance
/// (every open has a close, no duplicates), and diffs the event shapes
/// against the checked-in golden schema. Any drift is an `Err`, so CI can
/// gate on the exit code.
fn cmd_trace_check(flags: &ParsedFlags) -> Result<String, String> {
    let path = flags
        .positional()
        .ok_or("trace-check requires a trace file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let golden = match flags.try_str("--schema") {
        None => obs::validate::parse_schema(obs::GOLDEN_SCHEMA)?,
        Some(p) => {
            let s = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            obs::validate::parse_schema(&s)?
        }
    };
    let report = obs::validate::check_trace_str(&text, &golden);
    let summary = format!("{path}: {}", report.summary());
    if report.is_ok() {
        Ok(format!("{summary}\n"))
    } else {
        Err(summary)
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// serve / client
// ---------------------------------------------------------------------------

fn serve_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d serve",
        "the memoized planning server (newline-delimited JSON over TCP/unix)",
        None,
        &[
            FlagSpec::str(
                "--tcp",
                None,
                "TCP listen address, e.g. 127.0.0.1:7070 (port 0 picks a free one)",
            ),
            FlagSpec::str("--socket", None, "unix socket path to listen on"),
            FlagSpec::str(
                "--warm-start",
                None,
                "persistent warm-start cache file (fingerprinted JSONL)",
            ),
            FlagSpec::switch(
                "--no-resume",
                "truncate an existing warm-start file instead of reloading it",
            ),
            FlagSpec::usize("--shards", Some("0"), "cache shards (0 = one per core)"),
            FlagSpec::usize(
                "--max-conns",
                Some("256"),
                "connection budget; excess connections get a typed overloaded reply",
            ),
            FlagSpec::usize(
                "--conn-idle-ms",
                Some("10000"),
                "per-frame read budget and write timeout in milliseconds",
            ),
            FlagSpec::usize(
                "--max-frame-bytes",
                Some("1048576"),
                "largest accepted request frame; longer frames are rejected typed",
            ),
            FlagSpec::usize(
                "--drain-deadline-ms",
                Some("5000"),
                "hard stop for graceful drain after shutdown begins",
            ),
            FlagSpec::usize(
                "--compute-deadline-ms",
                Some("0"),
                "per-request compute deadline (0 = unlimited)",
            ),
        ],
    )
}

/// Builds the connection-layer limits from the `serve` flag surface.
fn serve_limits(flags: &ParsedFlags) -> Result<ServeLimits, String> {
    if flags.usize("--max-conns") == 0 {
        return Err("serve: --max-conns must be at least 1".into());
    }
    if flags.usize("--max-frame-bytes") < 64 {
        return Err("serve: --max-frame-bytes must be at least 64".into());
    }
    let ms = |flag: &str| std::time::Duration::from_millis(flags.usize(flag) as u64);
    Ok(ServeLimits {
        max_conns: flags.usize("--max-conns"),
        conn_idle: ms("--conn-idle-ms"),
        max_frame_bytes: flags.usize("--max-frame-bytes"),
        drain_deadline: ms("--drain-deadline-ms"),
        compute_deadline: match flags.usize("--compute-deadline-ms") {
            0 => None,
            n => Some(std::time::Duration::from_millis(n as u64)),
        },
    })
}

/// `serve`: run the plan server until a client sends `{"cmd":"shutdown"}`.
/// The listening lines go straight to stdout (so wrappers can wait for
/// them before connecting); the service summary is the command's result.
fn cmd_serve(flags: &ParsedFlags) -> Result<String, String> {
    let cfg = ServeConfig {
        tcp: flags.try_str("--tcp").map(ToString::to_string),
        unix: flags.try_str("--socket").map(PathBuf::from),
        warm: flags.try_str("--warm-start").map(PathBuf::from),
        resume: !flags.switch("--no-resume"),
        shards: flags.usize("--shards"),
        limits: serve_limits(flags)?,
    };
    let handle = serve::start(cfg)?;
    if let Some(q) = handle.service().quarantined() {
        println!(
            "serve: quarantined corrupt warm-start file to {}",
            q.display()
        );
    }
    if let Some(addr) = handle.tcp_addr() {
        println!("serve: listening on tcp {addr}");
    }
    if let Some(path) = handle.unix_path() {
        println!("serve: listening on unix {}", path.display());
    }
    let _ = std::io::stdout().flush();
    let service = Arc::clone(handle.service());
    handle.wait();
    let stats = &service.stats;
    let gauges = service.gauges();
    let (p50, p99) = stats.latency_percentiles();
    Ok(format!(
        "serve: shut down after {} request(s): {} hits, {} misses, {} errors, {} batch(es); \
         {} cached plan(s) across {} shard(s); latency p50 {p50} us, p99 {p99} us; \
         {} conn(s) total, {} shed, {} frame(s) rejected, drained in {} ms\n",
        stats.requests.load(Ordering::Relaxed),
        stats.hits.load(Ordering::Relaxed),
        stats.misses.load(Ordering::Relaxed),
        stats.errors.load(Ordering::Relaxed),
        stats.batches.load(Ordering::Relaxed),
        service.entries(),
        service.shards(),
        gauges.conns_total.load(Ordering::Relaxed),
        gauges.shed.load(Ordering::Relaxed),
        gauges.frame_rejects.load(Ordering::Relaxed),
        gauges.drain_ms.load(Ordering::Relaxed),
    ))
}

fn client_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d client",
        "send one request line to a running plan server",
        Some((
            "REQUEST",
            "request JSON (object or batch array), or ping|stats|health|shutdown",
        )),
        &[
            FlagSpec::str("--tcp", Some("127.0.0.1:7070"), "server TCP address"),
            FlagSpec::str(
                "--socket",
                None,
                "server unix socket path (overrides --tcp)",
            ),
            FlagSpec::usize(
                "--retries",
                Some("1"),
                "connect retries after a refused/reset connection",
            ),
            FlagSpec::usize(
                "--backoff-ms",
                Some("10"),
                "backoff before the first retry; doubles each retry, with jitter",
            ),
        ],
    )
}

/// `client`: one request line in, one reply line out — the same wire
/// protocol `socat`/`nc` speak (see README). A refused or reset
/// connection is retried `--retries` times with exponential backoff and
/// jitter (the [`supervise::SupervisePolicy`] defaults); once exhausted
/// the command fails with a typed `unavailable` error and a nonzero exit.
fn cmd_client(flags: &ParsedFlags) -> Result<String, String> {
    let raw = flags
        .positional()
        .ok_or("client requires a REQUEST (JSON, or ping|stats|health|shutdown)")?;
    let line = match raw {
        "ping" | "stats" | "health" | "shutdown" => format!("{{\"cmd\":\"{raw}\"}}"),
        _ => raw.to_string(),
    };
    let retries = u32::try_from(flags.usize("--retries")).unwrap_or(u32::MAX);
    let mut backoff = std::time::Duration::from_millis(flags.usize("--backoff-ms") as u64);
    // Deterministic-per-process jitter (seeded xorshift, the bench::fault
    // idiom) decorrelates concurrent clients without a clock dependency.
    let mut jitter = tiling3d_grid::Xorshift64::new(u64::from(std::process::id()) | 1);
    let attempts = retries.saturating_add(1);
    let mut last = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            let pause = backoff.mul_f64(1.0 + jitter.next_f64());
            std::thread::sleep(pause);
            backoff = backoff.saturating_mul(2);
        }
        match client_attempt(flags, &line) {
            Ok(reply) => return Ok(format!("{reply}\n")),
            Err(e) => last = e,
        }
    }
    Err(format!(
        "{}\nclient: {attempts} attempt(s) exhausted: {last}",
        serve::wire_error(
            "unavailable",
            &format!("no reply after {attempts} attempt(s)"),
        )
    ))
}

/// One connection attempt against whichever transport the flags select.
fn client_attempt(flags: &ParsedFlags, line: &str) -> Result<String, String> {
    if let Some(path) = flags.try_str("--socket") {
        let stream =
            UnixStream::connect(path).map_err(|e| format!("client: connect {path}: {e}"))?;
        client_roundtrip(stream, line)
    } else {
        let addr = flags.str("--tcp");
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("client: connect {addr}: {e}"))?;
        // One line out, one line back: Nagle coalescing only adds latency.
        let _ = stream.set_nodelay(true);
        client_roundtrip(stream, line)
    }
}

fn client_roundtrip<S: std::io::Read + std::io::Write>(
    mut stream: S,
    line: &str,
) -> Result<String, String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("client: send: {e}"))?;
    stream.flush().map_err(|e| format!("client: send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("client: receive: {e}"))?;
    if reply.is_empty() {
        return Err("client: server closed the connection without a reply".into());
    }
    Ok(reply.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, String> {
        let raw: Vec<String> = line.split_whitespace().map(ToString::to_string).collect();
        run_argv(&raw)
    }

    #[test]
    fn plan_shows_all_transforms() {
        let out = run_line("plan --stencil jacobi3d --dims 341x341").unwrap();
        for name in ["Orig", "Tile", "Euc3D", "GcdPad", "Pad", "GcdPadNT"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(
            out.contains("110x4"),
            "Euc3D's pathological tile should appear:\n{out}"
        );
    }

    #[test]
    fn plan_json_is_parseable_and_complete() {
        let out = run_line("plan --stencil jacobi3d --dims 341x341 --format json").unwrap();
        let doc = obs::json::parse(&out).unwrap();
        assert_eq!(doc.get("di").and_then(Json::as_f64), Some(341.0));
        let plans = match doc.get("plans") {
            Some(Json::Arr(a)) => a,
            other => panic!("plans should be an array, got {other:?}"),
        };
        assert_eq!(plans.len(), Transform::ALL.len());
        let euc = plans
            .iter()
            .find(|p| p.get("transform").and_then(Json::as_str) == Some("Euc3D"))
            .unwrap();
        match euc.get("tile") {
            Some(Json::Arr(t)) => {
                assert_eq!(t[0].as_f64(), Some(110.0), "pathological 341 tile");
                assert_eq!(t[1].as_f64(), Some(4.0));
            }
            other => panic!("Euc3D tile should be an array, got {other:?}"),
        }
    }

    #[test]
    fn tiles_reproduces_table1_values() {
        let out = run_line("tiles --di 200 --dj 200").unwrap();
        assert!(out.contains("2048"));
        // The (TK=3, TJ=15, TI=24) row.
        assert!(out.lines().any(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            f == ["3", "15", "24"]
        }));
    }

    #[test]
    fn tiles_json_carries_the_table1_row() {
        let out = run_line("tiles --di 200 --dj 200 --format json").unwrap();
        let doc = obs::json::parse(&out).unwrap();
        let tiles = match doc.get("tiles") {
            Some(Json::Arr(a)) => a,
            other => panic!("tiles should be an array, got {other:?}"),
        };
        assert!(tiles.iter().any(|t| {
            t.get("tk").and_then(Json::as_f64) == Some(3.0)
                && t.get("tj").and_then(Json::as_f64) == Some(15.0)
                && t.get("ti").and_then(Json::as_f64) == Some(24.0)
        }));
    }

    #[test]
    fn advise_matches_the_paper_boundaries() {
        let out = run_line("advise --stencil jacobi3d --n 33").unwrap();
        assert!(out.contains("up to plane extent 32"));
        assert!(out.contains("TileInnerTwo"));
        let out2 = run_line("advise --stencil jacobi2d --n 500").unwrap();
        assert!(out2.contains("NotNeeded"));
        let j = run_line("advise --stencil jacobi3d --n 33 --format json").unwrap();
        let doc = obs::json::parse(&j).unwrap();
        assert_eq!(doc.get("reuse_bound").and_then(Json::as_f64), Some(32.0));
        assert_eq!(
            doc.get("verdict").and_then(Json::as_str),
            Some("TileInnerTwo")
        );
    }

    #[test]
    fn simulate_reports_rates() {
        let out = run_line("simulate --kernel jacobi --n 64 --nk 8 --transform gcdpad").unwrap();
        assert!(out.contains("L1 miss rate"));
        assert!(out.contains("GcdPad"));
    }

    #[test]
    fn measure_reports_sequential_and_parallel() {
        let out = run_line("measure --kernel redblack --n 32 --nk 6 --reps 1 --jobs 2").unwrap();
        assert!(out.contains("verified bitwise"), "{out}");
        assert!(out.contains("GFLOP/s"), "{out}");
        assert!(out.contains("parallel (--jobs 2)"), "{out}");
    }

    #[test]
    fn simulate_all_is_jobs_invariant() {
        let seq = run_line("simulate --kernel jacobi --n 48 --nk 6 --transform all --jobs 1");
        let par = run_line("simulate --kernel jacobi --n 48 --nk 6 --transform all --jobs 4");
        let strip = |s: &str| {
            // Drop the header line (worker count differs by construction).
            s.lines().skip(1).collect::<Vec<_>>().join("\n")
        };
        let (seq, par) = (seq.unwrap(), par.unwrap());
        assert_eq!(strip(&seq), strip(&par));
        for name in ["Orig", "Tile", "Euc3D", "GcdPad", "Pad", "GcdPadNT"] {
            assert!(seq.contains(name), "missing {name} in:\n{seq}");
        }
    }

    #[test]
    fn predict_reports_untiled_and_tiled_sweeps() {
        let out = run_line("predict --kernel jacobi --n 280 --nk 30").unwrap();
        assert!(out.contains("25.00%"), "{out}");
        let out = run_line("predict --kernel jacobi --n 280 --nk 30 --tile 30x14").unwrap();
        assert!(out.contains("%"));
    }

    #[test]
    fn errors_are_helpful() {
        assert!(run_line("plan").unwrap_err().contains("--dims"));
        let unknown = run_line("bogus").unwrap_err();
        assert!(unknown.contains("unknown command"));
        assert!(unknown.contains("analyze"), "usage must list analyze");
        assert!(run_line("plan --dims nope --stencil jacobi3d")
            .unwrap_err()
            .contains("AxB"));
        assert!(run_line("simulate --kernel martian --n 50")
            .unwrap_err()
            .contains("unknown kernel"));
        assert!(run_line("analyze --kernel martian")
            .unwrap_err()
            .contains("unknown kernel"));
    }

    #[test]
    fn unknown_and_malformed_flags_are_rejected() {
        let err = run_line("plan --bogus-flag 1").unwrap_err();
        assert!(err.contains("unknown flag '--bogus-flag'"), "{err}");
        assert!(err.contains("usage: tiling3d plan"), "{err}");
        let err = run_line("simulate --n abc").unwrap_err();
        assert!(err.contains("expected a number"), "{err}");
        let err = run_line("plan --dims 10x10 --format yaml").unwrap_err();
        assert!(err.contains("unsupported format"), "{err}");
    }

    #[test]
    fn usage_is_generated_from_the_command_table() {
        // Every command appears in the top-level usage, resolves through
        // run_argv (no "unknown command"), and has per-command usage via
        // --help that lists every declared flag including the obs set.
        let u = usage();
        for c in COMMANDS {
            assert!(u.contains(c.name), "usage() is missing '{}'", c.name);
            let res = run_argv(&[c.name.to_string()]);
            if let Err(e) = res {
                assert!(
                    !e.contains("unknown command"),
                    "'{}' is in COMMANDS but not dispatched: {e}",
                    c.name
                );
            }
            let help = run_argv(&[c.name.to_string(), "--help".to_string()]).unwrap_err();
            for f in (c.flag_set)().flags() {
                assert!(
                    help.contains(f.name),
                    "{} --help is missing {}: {help}",
                    c.name,
                    f.name
                );
            }
            assert!(help.contains("--trace-out"), "{help}");
        }
    }

    #[test]
    fn analyze_certifies_every_kernel_transform_pair() {
        for kernel in ["jacobi", "redblack", "resid"] {
            let out = run_line(&format!("analyze --kernel {kernel} --transform all"))
                .unwrap_or_else(|e| panic!("{kernel}: {e}"));
            assert!(out.contains("all analyzed schedules are legal"), "{out}");
            for name in ["Orig", "Tile", "Euc3D", "GcdPad", "Pad", "GcdPadNT"] {
                assert!(out.contains(name), "missing {name} in:\n{out}");
            }
        }
    }

    #[test]
    fn analyze_rejects_unskewed_fused_redblack_with_witness() {
        let err = run_line("analyze --kernel redblack --transform gcdpad --no-skew").unwrap_err();
        assert!(err.contains("ILLEGAL"), "{err}");
        // The paper's plane-spanning flow dependence is the witness.
        assert!(err.contains("[1, 1, -1, 0]"), "witness missing:\n{err}");
        assert!(err.contains("refusing to certify"), "{err}");
        // Untiled transforms stay legal even without the skew.
        let ok = run_line("analyze --kernel redblack --transform orig --no-skew").unwrap();
        assert!(ok.contains("legal"), "{ok}");
    }

    #[test]
    fn analyze_json_reports_verdicts_and_still_fails_when_illegal() {
        let out = run_line("analyze --kernel redblack --transform all --format json").unwrap();
        let doc = obs::json::parse(&out).unwrap();
        assert_eq!(
            doc.get("all_legal").map(|j| matches!(j, Json::Bool(true))),
            Some(true),
            "{out}"
        );
        let err = run_line("analyze --kernel redblack --transform gcdpad --no-skew --format json")
            .unwrap_err();
        let doc = obs::json::parse(&err).unwrap();
        assert!(
            matches!(doc.get("all_legal"), Some(Json::Bool(false))),
            "{err}"
        );
    }

    #[test]
    fn analyze_shows_dependences_and_schedule() {
        let out = run_line("analyze --kernel redblack --transform gcdpad").unwrap();
        assert!(out.contains("KK"), "fused dims in:\n{out}");
        assert!(out.contains("flow"), "{out}");
        assert!(out.contains("anti"), "{out}");
        assert!(out.contains("skew"), "schedule steps in:\n{out}");
        assert!(out.contains("LEGAL"), "{out}");
    }

    #[test]
    fn plan_with_steps_adds_a_certified_temporal_tile() {
        let out = run_line("plan --stencil jacobi3d --dims 341x341 --steps 8 --jobs 2").unwrap();
        assert!(out.contains("temporal plan"), "{out}");
        assert!(out.contains("certified legal"), "{out}");
        let j = run_line("plan --stencil jacobi3d --dims 341x341 --steps 8 --jobs 2 --format json")
            .unwrap();
        let doc = obs::json::parse(&j).unwrap();
        let t = doc.get("temporal").expect("temporal object");
        assert!(matches!(t.get("legal"), Some(Json::Bool(true))), "{j}");
        assert!(t.get("st").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(t.get("sk").and_then(Json::as_f64).unwrap() >= 1.0);
        // Without --steps the plan output is unchanged (no temporal key).
        let plain = run_line("plan --stencil jacobi3d --dims 341x341 --format json").unwrap();
        assert!(obs::json::parse(&plain).unwrap().get("temporal").is_none());
        // RESID has no iterated form.
        let err = run_line("plan --stencil resid --dims 100x100 --steps 4").unwrap_err();
        assert!(err.contains("no iterated form"), "{err}");
    }

    #[test]
    fn advise_with_steps_reports_the_temporal_tile() {
        let out = run_line("advise --stencil jacobi3d --n 33 --steps 8 --jobs 1").unwrap();
        assert!(out.contains("time tile (ST, SK)"), "{out}");
        let j =
            run_line("advise --stencil jacobi3d --n 33 --steps 8 --jobs 1 --format json").unwrap();
        let doc = obs::json::parse(&j).unwrap();
        assert!(doc.get("temporal").is_some(), "{j}");
        let err = run_line("advise --stencil jacobi2d --n 100 --steps 4").unwrap_err();
        assert!(err.contains("no iterated form"), "{err}");
    }

    #[test]
    fn simulate_steps_shows_cross_timestep_miss_reduction() {
        // 16x16 planes, 2 buffers, 32 KB cache: the band holds several
        // planes, while the full 16x16x32 grid busts the cache — so the
        // naive T-sweep re-streams every step and time tiling must cut
        // L1 read misses.
        let out =
            run_line("simulate --kernel jacobi --n 16 --nk 32 --steps 8 --cache-kb 32 --jobs 1")
                .unwrap();
        assert!(out.contains("time-tiled"), "{out}");
        let line = out
            .lines()
            .find(|l| l.contains("reduction"))
            .unwrap_or_else(|| panic!("no reduction line in:\n{out}"));
        let pct: f64 = line
            .split(':')
            .nth(1)
            .and_then(|s| s.trim().split('%').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable reduction line: {line}"));
        assert!(pct > 5.0, "expected a real reduction, got {pct}%:\n{out}");
        // Red-black single-buffer variant renders too.
        let rb =
            run_line("simulate --kernel redblack --n 16 --nk 32 --steps 4 --cache-kb 32").unwrap();
        assert!(rb.contains("time-tiled"), "{rb}");
        let err = run_line("simulate --kernel resid --n 16 --steps 4").unwrap_err();
        assert!(err.contains("temporal"), "{err}");
    }

    #[test]
    fn analyze_temporal_certifies_and_rejects_rectangular_with_witness() {
        for k in ["jacobi", "redblack"] {
            let out = run_line(&format!("analyze --kernel {k} --temporal"))
                .unwrap_or_else(|e| panic!("{k}: {e}"));
            assert!(out.contains("legal"), "{out}");
        }
        let err = run_line("analyze --kernel jacobi --temporal --no-skew").unwrap_err();
        assert!(err.contains("ILLEGAL"), "{err}");
        // The witness: the flow distance (1, -1, ...) the rectangular
        // band tile controllers reverse.
        assert!(err.contains("[1, -1"), "witness missing:\n{err}");
        let json =
            run_line("analyze --kernel jacobi --temporal --no-skew --format json").unwrap_err();
        let doc = obs::json::parse(&json).unwrap();
        assert!(
            matches!(doc.get("legal"), Some(Json::Bool(false))),
            "{json}"
        );
        let err = run_line("analyze --kernel resid --temporal").unwrap_err();
        assert!(err.contains("temporal"), "{err}");
    }

    #[test]
    fn chaos_campaigns_pass_and_are_jobs_invariant() {
        for jobs in [1, 4] {
            let out = run_line(&format!(
                "chaos --kernel jacobi --min 16 --max 24 --step 8 --nk 4 --seed 7 --faults 1 --jobs {jobs}"
            ))
            .unwrap_or_else(|e| panic!("chaos failed at --jobs {jobs}:\n{e}"));
            assert!(out.contains("all campaigns passed"), "{out}");
            for label in [
                "panic/always",
                "panic/once+retry",
                "nan-write/always",
                "nan-write/once+retry",
                "delay/always",
                "delay/once+retry",
            ] {
                assert!(out.contains(label), "missing campaign {label}:\n{out}");
            }
        }
    }

    #[test]
    fn sweep_commands_reject_an_extent_below_three_naming_the_flag() {
        for cmd in [
            "measure --kernel jacobi --n 8 --nk 2",
            "profile --kernel jacobi --n 8 --nk 2",
            "oracle --kernel jacobi --n 8 --nk 2",
            "simulate --kernel jacobi --n 8 --nk 2",
            "chaos --kernel jacobi --nk 2",
        ] {
            let err = run_line(cmd).expect_err(cmd);
            assert!(err.contains("requires --nk >= 3"), "`{cmd}`: {err}");
        }
    }

    #[test]
    fn commands_reject_a_cache_the_model_cannot_use_naming_the_flag() {
        for (cmd, flag) in [
            ("plan --dims 200x200 --cache-kb 0", "--cache-kb >= 1"),
            ("advise --n 200 --cache-kb 0", "--cache-kb >= 1"),
            (
                "analyze --kernel jacobi --locality --cache-kb 0",
                "--cache-kb >= 1",
            ),
            (
                "oracle --kernel jacobi --n 8 --nk 4 --cache-kb 0",
                "--cache-kb >= 1",
            ),
            (
                "predict --kernel jacobi --n 100 --cache-kb 0",
                "--cache-kb >= 1",
            ),
            ("predict --kernel jacobi --n 100 --line 4", "--line >= 8"),
            ("predict --kernel jacobi --n 100 --line 0", "--line >= 8"),
            ("predict --kernel jacobi --n 100 --line 12", "--line"),
            (
                "simulate --kernel jacobi --n 40 --nk 8 --line 4",
                "--line >= 8",
            ),
            (
                "simulate --kernel jacobi --n 40 --nk 8 --line 4 --transform all",
                "--line >= 8",
            ),
            (
                "simulate --kernel jacobi --n 40 --nk 8 --line 4 --transform gcdpad --tlb",
                "--line >= 8",
            ),
            (
                "simulate --kernel jacobi --n 16 --nk 8 --line 4 --steps 2",
                "--line >= 8",
            ),
            ("tiles --cache 0", "--cache >= 1"),
        ] {
            let err = run_line(cmd).expect_err(cmd);
            assert!(err.contains(flag), "`{cmd}`: {err}");
        }
        // One double per line is the shortest line accepted.
        assert!(run_line("simulate --kernel jacobi --n 40 --nk 8 --line 8").is_ok());
    }

    #[test]
    fn zero_extents_are_usage_errors_naming_the_flag() {
        for (cmd, want) in [
            (
                "predict --kernel jacobi --n 40 --tile 5x0",
                "tiling3d predict requires --tile extents >= 1 (got 5x0)",
            ),
            (
                "predict --kernel jacobi --n 40 --tile 0x5",
                "tiling3d predict requires --tile extents >= 1 (got 0x5)",
            ),
            ("tiles --di 0", "tiling3d tiles requires --di >= 1 (got 0)"),
            ("tiles --dj 0", "tiling3d tiles requires --dj >= 1 (got 0)"),
            (
                "tiles --tkmax 0",
                "tiling3d tiles requires --tkmax >= 1 (got 0)",
            ),
            (
                "chaos --step 0",
                "tiling3d chaos requires --step >= 1 (got 0)",
            ),
        ] {
            assert_eq!(run_line(cmd).expect_err(cmd), want, "`{cmd}`");
        }
        assert!(run_line("predict --kernel jacobi --n 40 --tile 1x1").is_ok());
        assert!(run_line("tiles --di 1").is_ok());
        assert!(run_line("tiles --tkmax 1").is_ok());
    }

    #[test]
    fn preset_levels_convert_to_valid_simulator_configs() {
        let (l1, l2) = GeometryPreset::Us2.levels();
        assert_eq!(cache_config(&l1), CacheConfig::ULTRASPARC2_L1);
        assert_eq!(cache_config(&l2), CacheConfig::ULTRASPARC2_L2);
        for preset in GeometryPreset::ALL {
            let (l1, l2) = preset.levels();
            for level in [l1, l2] {
                let cfg = cache_config(&level);
                assert!(
                    cfg.validate().is_ok(),
                    "{} {}: {cfg:?}",
                    preset.name(),
                    level.name
                );
            }
        }
    }

    #[test]
    fn chaos_rejects_degenerate_sizes() {
        let err = run_line("chaos --min 2 --max 1").unwrap_err();
        assert!(err.contains("chaos requires"), "{err}");
    }

    #[test]
    fn trace_check_rejects_missing_files_and_bad_lines() {
        let err = run_line("trace-check /nonexistent/trace.jsonl").unwrap_err();
        assert!(err.contains("/nonexistent/trace.jsonl"), "{err}");
        let path = std::env::temp_dir().join(format!("t3d-bad-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"ev\":\"span_open\"").unwrap();
        let err = run_argv(&["trace-check".into(), path.display().to_string()]).unwrap_err();
        assert!(err.contains("error"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
