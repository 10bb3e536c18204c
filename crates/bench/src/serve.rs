//! Plan-as-a-service: the memoized concurrent planning server behind
//! `tiling3d serve`.
//!
//! A long-running, std-only server answering "best certified plan for
//! `(kernel, dims, cache geometry, steps)`" over newline-delimited JSON on
//! TCP and/or a unix socket (DESIGN.md §16). Core pieces:
//!
//! * a **sharded in-memory plan cache** keyed on the canonicalized
//!   [`PlanRequest`] (`PlanRequest::cache_key`), one mutex per shard so
//!   concurrent clients on different keys never contend;
//! * a **persistent warm-start file** in the fingerprinted JSONL format of
//!   [`crate::jsonl::JsonlLog`] (header + torn-tail tolerance, shared with
//!   the sweep checkpoints): every cache miss appends one checksummed
//!   `cached_plan` line, and a restart with `resume` re-serves the exact
//!   stored bytes. A corrupt line mid-file quarantines the file to
//!   `<path>.corrupt-<n>` and resumes from the longest valid prefix, so
//!   boot always succeeds;
//! * a **batch endpoint** (send a JSON array of requests, get one
//!   `batch_response` line);
//! * an optional **measured autotune** path (`"autotune": true`) that
//!   augments the static `missmodel`-ranked plan table with a timed
//!   row-engine run per transform;
//! * **obs instrumentation**: `serve.hit`/`serve.miss`/`serve.shed`/
//!   `serve.frame_reject` counters, a span per request, and
//!   p50/p99/conns/drain gauges refreshed on `stats`.
//!
//! The connection layer is hardened (DESIGN.md §18): admission control
//! sheds connections past [`ServeLimits::max_conns`] with a typed
//! `overloaded` reply instead of spawning unboundedly; request frames are
//! read through a bounded reader that rejects frames past
//! [`ServeLimits::max_frame_bytes`] with a typed `frame_too_large` reply
//! instead of buffering them; every socket carries read/write timeouts so
//! a slow-loris writer or a stalled reader is bounded by
//! [`ServeLimits::conn_idle`]; a per-request compute deadline reuses the
//! PR 5 supervision machinery ([`SupervisePolicy`]) so a pathological
//! request degrades to a typed `deadline` error; and shutdown is a
//! **graceful drain** — the listeners stop accepting, in-flight requests
//! complete and flush byte-identically, new requests get `draining`
//! replies, and [`ServeLimits::drain_deadline`] bounds the wait.
//!
//! Responses are memoized as rendered bytes and the response envelope
//! carries no volatile fields, so cold and warm servings of the same key —
//! across threads, connections, transports, and restarts — are
//! byte-identical (proven by `tests/serve.rs` and the CI `serve` job).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tiling3d_core::api::{self, PlanQuery, PlanRequest, PlanResponse, ReqStencil, API_VERSION};
use tiling3d_obs as obs;
use tiling3d_obs::json::{self, Json};
use tiling3d_stencil::kernels::Kernel;

use crate::jsonl::JsonlLog;
use crate::pool::SimPool;
use crate::supervise::{self, SupervisePolicy, SweepError};

/// The warm-start file's fingerprint: any layout change to the cached
/// payloads goes through [`API_VERSION`], and the `sum1` suffix pins the
/// per-record checksum scheme — older files without checksums quarantine
/// and the server boots fresh.
pub fn warm_fingerprint() -> String {
    format!("tiling3d-serve:v{API_VERSION}:sum1")
}

/// FNV-1a over `key` and `payload` — the per-record corruption checksum
/// stored in every `cached_plan` line.
fn record_sum(key: &str, payload: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes().chain([b'\n']).chain(payload.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Hard limits and deadlines for the hardened connection layer
/// (DESIGN.md §18). Every field has a production-safe default; the CLI
/// exposes each as a `serve` flag.
#[derive(Clone, Copy, Debug)]
pub struct ServeLimits {
    /// Connection budget across both transports; connections past it get
    /// one typed `overloaded` reply and are closed (`--max-conns`).
    pub max_conns: usize,
    /// Per-frame read budget and write timeout: a connection that cannot
    /// deliver a full request frame (or absorb its reply) within this
    /// window is closed (`--conn-idle-ms`). This is what bounds
    /// slow-loris writers.
    pub conn_idle: Duration,
    /// Largest accepted request frame; longer frames get a typed
    /// `frame_too_large` reply and the connection closes
    /// (`--max-frame-bytes`).
    pub max_frame_bytes: usize,
    /// Hard stop for graceful drain: connections still alive this long
    /// after shutdown began are abandoned (`--drain-deadline-ms`).
    pub drain_deadline: Duration,
    /// Per-request compute deadline enforced through the PR 5 supervision
    /// path; `None` = unlimited (`--compute-deadline-ms`).
    pub compute_deadline: Option<Duration>,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits {
            max_conns: 256,
            conn_idle: Duration::from_millis(10_000),
            max_frame_bytes: 1 << 20,
            drain_deadline: Duration::from_millis(5_000),
            compute_deadline: None,
        }
    }
}

/// Live connection-layer gauges, shared between the service (which
/// reports them via `stats`/`health`) and the transports (which maintain
/// them).
#[derive(Debug, Default)]
pub struct Gauges {
    /// Connections currently admitted (holding a budget slot).
    pub conns_active: AtomicUsize,
    /// Connections admitted over the server's lifetime.
    pub conns_total: AtomicU64,
    /// Requests currently being computed.
    pub in_flight: AtomicUsize,
    /// Connections shed by admission control.
    pub shed: AtomicU64,
    /// Request frames rejected for exceeding the frame cap.
    pub frame_rejects: AtomicU64,
    /// Set once shutdown/drain has begun; new requests get `draining`
    /// replies and idle connections close.
    pub draining: AtomicBool,
    /// Wall-clock the last completed drain took, in milliseconds.
    pub drain_ms: AtomicU64,
}

/// Aggregate service counters (lock-free except the latency reservoir).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Single plan requests handled (batch members included).
    pub requests: AtomicU64,
    /// Requests answered from the cache.
    pub hits: AtomicU64,
    /// Requests that had to plan.
    pub misses: AtomicU64,
    /// Error replies issued.
    pub errors: AtomicU64,
    /// Batch lines handled.
    pub batches: AtomicU64,
    latency_us: Mutex<Vec<u64>>,
}

/// Cap on the latency reservoir; beyond it new samples are dropped (the
/// percentiles have long since converged).
const LATENCY_CAP: usize = 1 << 20;

impl ServiceStats {
    fn record_latency(&self, us: u64) {
        let mut v = self.latency_us.lock().expect("latency lock poisoned");
        if v.len() < LATENCY_CAP {
            v.push(us);
        }
    }

    /// `(p50, p99)` request latency in microseconds (0 before any request).
    pub fn latency_percentiles(&self) -> (u64, u64) {
        let mut v = self
            .latency_us
            .lock()
            .expect("latency lock poisoned")
            .clone();
        if v.is_empty() {
            return (0, 0);
        }
        v.sort_unstable();
        let pick = |p: usize| v[(v.len() - 1) * p / 100];
        (pick(50), pick(99))
    }
}

/// One handled input line: either a reply to send, or a reply after which
/// the connection must initiate server shutdown.
#[derive(Debug)]
pub enum Handled {
    /// Write this line back to the client.
    Reply(String),
    /// Write this line back, then stop the server.
    Shutdown(String),
}

impl Handled {
    /// The reply line regardless of control effect.
    pub fn reply(&self) -> &str {
        match self {
            Handled::Reply(s) | Handled::Shutdown(s) => s,
        }
    }
}

/// Renders one typed wire error line (no trailing newline). `code` is the
/// machine-readable discriminant of the golden `error` event:
/// `bad_request`, `unknown_cmd`, `overloaded`, `draining`,
/// `frame_too_large`, `deadline`, `internal`, or `unavailable`.
pub fn wire_error(code: &str, message: &str) -> String {
    Json::obj(vec![
        ("ev", Json::str("error")),
        ("code", Json::str(code)),
        ("message", Json::str(message)),
    ])
    .render()
}

/// The transport-independent planning service: the sharded cache, the
/// warm-start log, and the line dispatcher. [`start`] wraps it in TCP and
/// unix-socket accept loops; tests can drive [`PlanService::handle_line`]
/// directly.
#[derive(Debug)]
pub struct PlanService {
    shards: Vec<Mutex<HashMap<String, Arc<str>>>>,
    warm: Option<JsonlLog>,
    quarantined: Option<PathBuf>,
    limits: ServeLimits,
    policy: SupervisePolicy,
    gauges: Arc<Gauges>,
    /// Aggregate counters.
    pub stats: ServiceStats,
}

impl PlanService {
    /// Opens the service with default [`ServeLimits`]; see
    /// [`PlanService::open_with`].
    pub fn open(shards: usize, warm: Option<&Path>, resume: bool) -> Result<PlanService, String> {
        PlanService::open_with(shards, warm, resume, ServeLimits::default())
    }

    /// Opens the service with `shards` cache shards (0 = one per core,
    /// following [`SimPool`]'s convention) and, when `warm` names a path,
    /// a persistent warm-start file. With `resume`, an existing file is
    /// reloaded (fingerprint enforced, torn tail tolerated) and its
    /// entries are served as cache hits without re-planning; a corrupt
    /// line mid-file quarantines the file and resumes from the longest
    /// valid prefix ([`PlanService::quarantined`]) — boot never fails on
    /// cache corruption.
    pub fn open_with(
        shards: usize,
        warm: Option<&Path>,
        resume: bool,
        limits: ServeLimits,
    ) -> Result<PlanService, String> {
        let shards = if shards == 0 {
            SimPool::new(0).jobs()
        } else {
            shards
        };
        let mut maps: Vec<HashMap<String, Arc<str>>> =
            (0..shards).map(|_| HashMap::new()).collect();
        let mut quarantined = None;
        let warm = match warm {
            None => None,
            Some(path) => {
                if resume {
                    quarantined = salvage_warm(path)?;
                }
                let log = JsonlLog::open(
                    path,
                    "warm-start",
                    "serve_header",
                    &warm_fingerprint(),
                    u64::from(API_VERSION),
                    resume,
                )?;
                for (lineno, v) in log.restored() {
                    let (key, payload) = match (
                        v.get("ev").and_then(Json::as_str),
                        v.get("key").and_then(Json::as_str),
                        v.get("payload").and_then(Json::as_str),
                        v.get("sum").and_then(Json::as_str),
                    ) {
                        (Some("cached_plan"), Some(k), Some(p), Some(s))
                            if s == record_sum(k, p) =>
                        {
                            (k, p)
                        }
                        _ => {
                            // Unreachable after salvage; kept as a hard
                            // backstop against serving corrupt bytes.
                            return Err(format!(
                                "warm-start {}: line {lineno}: not a checksummed cached_plan \
                                 record",
                                path.display()
                            ));
                        }
                    };
                    maps[api::shard_of_key(key, shards)]
                        .insert(key.to_string(), Arc::from(payload));
                }
                Some(log)
            }
        };
        Ok(PlanService {
            shards: maps.into_iter().map(Mutex::new).collect(),
            warm,
            quarantined,
            limits,
            policy: SupervisePolicy {
                retries: 0,
                backoff: Duration::ZERO,
                deadline: limits.compute_deadline,
                fail_fast: false,
            },
            gauges: Arc::new(Gauges::default()),
            stats: ServiceStats::default(),
        })
    }

    /// Shard count (fixed at open time).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Cached entries across all shards.
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").len())
            .sum()
    }

    /// The connection-layer limits this service was opened with.
    pub fn limits(&self) -> ServeLimits {
        self.limits
    }

    /// The live connection-layer gauges (shared with the transports).
    pub fn gauges(&self) -> &Arc<Gauges> {
        &self.gauges
    }

    /// Where a corrupt warm-start file was quarantined at open time, if
    /// salvage ran.
    pub fn quarantined(&self) -> Option<&Path> {
        self.quarantined.as_deref()
    }

    /// Dispatches one wire line (DESIGN.md §16): a control command
    /// (`{"cmd": "ping" | "stats" | "health" | "shutdown"}`), a batch
    /// (JSON array of requests), or a single request object. Never panics
    /// on client input; malformed lines get a typed `error` reply. Once
    /// draining, plan requests and batches get `draining` replies while
    /// control commands keep working.
    pub fn handle_line(&self, line: &str) -> Handled {
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return Handled::Reply(
                    self.error_reply("bad_request", &format!("bad request line: {e}")),
                )
            }
        };
        match &v {
            Json::Arr(items) => {
                if self.gauges.draining.load(Ordering::SeqCst) {
                    return Handled::Reply(self.draining_reply());
                }
                self.stats.batches.fetch_add(1, Ordering::Relaxed);
                let results: Vec<String> =
                    items.iter().map(|item| self.handle_request(item)).collect();
                // Assembled from the cached reply strings verbatim, so
                // batch members are byte-identical to single servings.
                Handled::Reply(format!(
                    "{{\"ev\":\"batch_response\",\"count\":{},\"results\":[{}]}}",
                    results.len(),
                    results.join(",")
                ))
            }
            Json::Obj(_) => match v.get("cmd").and_then(Json::as_str) {
                Some("ping") => Handled::Reply("{\"ev\":\"pong\"}".to_string()),
                Some("stats") => Handled::Reply(self.stats_reply()),
                Some("health") => Handled::Reply(self.health_reply()),
                Some("shutdown") => {
                    // Flip to draining immediately so any request observed
                    // after the shutdown command — on this or any other
                    // connection — gets a `draining` reply.
                    self.gauges.draining.store(true, Ordering::SeqCst);
                    Handled::Shutdown("{\"ev\":\"shutdown\"}".to_string())
                }
                Some(other) => Handled::Reply(self.error_reply(
                    "unknown_cmd",
                    &format!("unknown cmd '{other}' (ping, stats, health, shutdown)"),
                )),
                None => {
                    if self.gauges.draining.load(Ordering::SeqCst) {
                        return Handled::Reply(self.draining_reply());
                    }
                    Handled::Reply(self.handle_request(&v))
                }
            },
            _ => Handled::Reply(self.error_reply(
                "bad_request",
                "request must be an object or an array of objects",
            )),
        }
    }

    /// Answers one request object: canonicalize, consult the shard, plan
    /// on miss (under the compute deadline and panic isolation of the
    /// supervision layer), memoize the rendered bytes, append to the
    /// warm-start log.
    fn handle_request(&self, v: &Json) -> String {
        let _span = obs::span("serve:request");
        let t0 = Instant::now();
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.gauges.in_flight.fetch_add(1, Ordering::SeqCst);
        // The supervision wrapper (PR 5) gives each request panic
        // isolation via catch_unwind and the deterministic post-hoc
        // deadline verdict, so one pathological request degrades to one
        // typed error reply instead of wedging or killing its worker.
        let outcome = supervise::supervise_item(&self.policy, || Ok(self.answer(v)));
        let reply = match outcome {
            Ok(Ok(reply)) => reply,
            Ok(Err(e)) => self.error_reply("bad_request", &e),
            Err(e @ SweepError::DeadlineExceeded { .. }) => {
                self.error_reply("deadline", &format!("request rejected: {e}"))
            }
            Err(e) => self.error_reply("internal", &format!("request failed: {e}")),
        };
        self.gauges.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.stats
            .record_latency(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        reply
    }

    fn answer(&self, v: &Json) -> Result<String, String> {
        let req = PlanRequest::from_json(v)?;
        let autotune = matches!(v.get("autotune"), Some(Json::Bool(true)));
        let key = if autotune {
            // The measured run depends on nk, which the plan query's
            // canonical key drops — keep it in the derived key.
            format!("{}|tuned|nk{}", req.cache_key(), req.nk)
        } else {
            req.cache_key()
        };
        let shard = &self.shards[api::shard_of_key(&key, self.shards.len())];
        if let Some(cached) = shard.lock().expect("shard lock poisoned").get(&key) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            obs::counter_add("serve.hit", 1);
            return Ok(cached.to_string());
        }
        // Plan outside the shard lock: concurrent misses on one key race
        // benignly and first-wins below keeps later servings identical.
        let reply = if autotune {
            autotune_envelope(&req, &key)?
        } else {
            api::respond_enveloped(&req)?
        };
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        obs::counter_add("serve.miss", 1);
        let mut map = shard.lock().expect("shard lock poisoned");
        match map.entry(key.clone()) {
            Entry::Occupied(e) => Ok(e.get().to_string()),
            Entry::Vacant(e) => {
                e.insert(Arc::from(reply.as_str()));
                drop(map);
                if let Some(warm) = &self.warm {
                    let sum = record_sum(&key, &reply);
                    warm.append_line(
                        &Json::obj(vec![
                            ("ev", Json::str("cached_plan")),
                            ("key", Json::str(key)),
                            ("payload", Json::str(reply.as_str())),
                            ("sum", Json::str(sum)),
                        ])
                        .render(),
                    )?;
                }
                Ok(reply)
            }
        }
    }

    fn error_reply(&self, code: &str, message: &str) -> String {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        wire_error(code, message)
    }

    fn draining_reply(&self) -> String {
        self.error_reply(
            "draining",
            "server is draining; no new requests are accepted",
        )
    }

    fn health_reply(&self) -> String {
        let active = self.gauges.conns_active.load(Ordering::SeqCst);
        let state = if self.gauges.draining.load(Ordering::SeqCst) {
            "draining"
        } else if active >= self.limits.max_conns {
            "overloaded"
        } else {
            "ok"
        };
        Json::obj(vec![
            ("ev", Json::str("health")),
            ("state", Json::str(state)),
            ("conns_active", Json::uint(active as u64)),
            (
                "in_flight",
                Json::uint(self.gauges.in_flight.load(Ordering::SeqCst) as u64),
            ),
            (
                "conns_total",
                Json::uint(self.gauges.conns_total.load(Ordering::Relaxed)),
            ),
            ("max_conns", Json::uint(self.limits.max_conns as u64)),
        ])
        .render()
    }

    fn stats_reply(&self) -> String {
        let (p50, p99) = self.stats.latency_percentiles();
        obs::gauge_set("serve.p50_us", p50 as f64);
        obs::gauge_set("serve.p99_us", p99 as f64);
        obs::gauge_set(
            "serve.conns_active",
            self.gauges.conns_active.load(Ordering::SeqCst) as f64,
        );
        let c = |a: &AtomicU64| Json::uint(a.load(Ordering::Relaxed));
        Json::obj(vec![
            ("ev", Json::str("stats")),
            ("requests", c(&self.stats.requests)),
            ("hits", c(&self.stats.hits)),
            ("misses", c(&self.stats.misses)),
            ("errors", c(&self.stats.errors)),
            ("batches", c(&self.stats.batches)),
            ("entries", Json::uint(self.entries() as u64)),
            ("shards", Json::uint(self.shards.len() as u64)),
            ("p50_us", Json::uint(p50)),
            ("p99_us", Json::uint(p99)),
            ("shed", c(&self.gauges.shed)),
            ("frame_rejects", c(&self.gauges.frame_rejects)),
            (
                "conns_active",
                Json::uint(self.gauges.conns_active.load(Ordering::SeqCst) as u64),
            ),
            (
                "in_flight",
                Json::uint(self.gauges.in_flight.load(Ordering::SeqCst) as u64),
            ),
            ("conns_total", c(&self.gauges.conns_total)),
            ("drain_ms", c(&self.gauges.drain_ms)),
        ])
        .render()
    }
}

// ---------------------------------------------------------------------------
// Warm-start salvage
// ---------------------------------------------------------------------------

/// Pre-checks a warm-start file before resume. A corrupt line anywhere
/// but the very end (which [`JsonlLog`] already tolerates as a torn tail)
/// renames the file to the first free `<path>.corrupt-<n>`, rewrites
/// `path` with the longest valid prefix, logs a warning, and returns the
/// quarantine path — so [`PlanService::open_with`] always boots.
/// "Corrupt" covers unparseable lines, records that are not checksummed
/// `cached_plan` objects, checksum mismatches, and a header whose
/// fingerprint does not match this build (the whole file quarantines with
/// an empty prefix and the server starts cold).
fn salvage_warm(path: &Path) -> Result<Option<PathBuf>, String> {
    if !path.exists() {
        return Ok(None);
    }
    let bytes = std::fs::read(path).map_err(|e| format!("warm-start {}: {e}", path.display()))?;
    let lines: Vec<&[u8]> = bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.iter().all(u8::is_ascii_whitespace))
        .collect();
    let valid_header = |l: &[u8]| -> bool {
        std::str::from_utf8(l)
            .ok()
            .and_then(|s| json::parse(s).ok())
            .is_some_and(|v| {
                v.get("ev").and_then(Json::as_str) == Some("serve_header")
                    && v.get("config").and_then(Json::as_str) == Some(&warm_fingerprint())
            })
    };
    let valid_record = |l: &[u8]| -> bool {
        std::str::from_utf8(l)
            .ok()
            .and_then(|s| json::parse(s).ok())
            .is_some_and(|v| {
                match (
                    v.get("ev").and_then(Json::as_str),
                    v.get("key").and_then(Json::as_str),
                    v.get("payload").and_then(Json::as_str),
                    v.get("sum").and_then(Json::as_str),
                ) {
                    (Some("cached_plan"), Some(k), Some(p), Some(s)) => s == record_sum(k, p),
                    _ => false,
                }
            })
    };
    let bad = if lines.is_empty() || !valid_header(lines[0]) {
        Some(0)
    } else {
        lines[1..]
            .iter()
            .position(|l| !valid_record(l))
            .map(|i| i + 1)
    };
    let Some(bad) = bad else { return Ok(None) };
    // A torn *final* line that merely fails to parse is the normal
    // signature of a kill mid-append; JsonlLog drops it with a warning and
    // no quarantine is needed. (A parseable final line with a bad checksum
    // is real corruption and falls through to quarantine.)
    let last = lines.len() - 1;
    if bad == last && bad > 0 {
        let parses = std::str::from_utf8(lines[bad])
            .ok()
            .and_then(|s| json::parse(s).ok())
            .is_some();
        if !parses {
            return Ok(None);
        }
    }
    let quarantine = (1..)
        .map(|n| PathBuf::from(format!("{}.corrupt-{n}", path.display())))
        .find(|p| !p.exists())
        .expect("unbounded quarantine namespace");
    std::fs::rename(path, &quarantine)
        .map_err(|e| format!("warm-start {}: quarantine rename: {e}", path.display()))?;
    if bad > 0 {
        let mut prefix = Vec::new();
        for l in &lines[..bad] {
            prefix.extend_from_slice(l);
            prefix.push(b'\n');
        }
        std::fs::write(path, prefix)
            .map_err(|e| format!("warm-start {}: rewrite valid prefix: {e}", path.display()))?;
    }
    obs::error(&format!(
        "warm-start {}: corrupt line {}; quarantined to {} and resuming from {} valid entr(y/ies)",
        path.display(),
        bad + 1,
        quarantine.display(),
        bad.saturating_sub(1),
    ));
    Ok(Some(quarantine))
}

/// The measured autotune path: plan as usual, then time one sweep per
/// transform and report the measured MFLOP/s table and the
/// modeled-vs-measured winners alongside the static table. Bounded to
/// modest problems so a stray request cannot pin the server:
/// `di == dj <= 512`, `3 <= nk <= 64`.
fn autotune_envelope(req: &PlanRequest, key: &str) -> Result<String, String> {
    if req.query != PlanQuery::Plan {
        return Err("autotune requires query 'plan'".to_string());
    }
    if req.di != req.dj || req.di < 8 || req.di > 512 {
        return Err("autotune requires square dims with 8 <= n <= 512".to_string());
    }
    if !(3..=64).contains(&req.nk) {
        return Err("autotune requires 3 <= nk <= 64".to_string());
    }
    let kernel = match req.stencil {
        ReqStencil::Jacobi3d => Kernel::Jacobi,
        ReqStencil::RedBlack | ReqStencil::RedBlackNaive => Kernel::RedBlack,
        ReqStencil::Resid => Kernel::Resid,
        ReqStencil::Jacobi2d => return Err("autotune has no 2D row engine".to_string()),
    };
    let resp = api::respond(req)?;
    let PlanResponse::Plans(table) = &resp else {
        return Err("autotune requires query 'plan'".to_string());
    };
    let flops = kernel.sweep_flops(req.di, req.nk) as f64;
    let mut measured = Vec::new();
    let mut best_measured: Option<(&'static str, f64)> = None;
    for row in &table.rows {
        let mut state = kernel.make_state(req.di, req.nk, row, 1);
        kernel.run(&mut state, row.tile); // warm the arrays and the cache
        let t0 = Instant::now();
        kernel.run(&mut state, row.tile);
        let mflops = flops / t0.elapsed().as_secs_f64().max(1e-9) / 1e6;
        if best_measured.is_none_or(|(_, best)| mflops > best) {
            best_measured = Some((row.transform.name(), mflops));
        }
        measured.push(Json::obj(vec![
            ("transform", Json::str(row.transform.name())),
            ("mflops", Json::Num((mflops * 10.0).round() / 10.0)),
        ]));
    }
    let best_modeled = table
        .rows
        .iter()
        .filter(|r| r.cost.is_finite())
        .min_by(|a, b| a.cost.total_cmp(&b.cost))
        .map_or("Orig", |r| r.transform.name());
    let tune = Json::obj(vec![
        ("measured", Json::Arr(measured)),
        ("best_modeled", Json::str(best_modeled)),
        (
            "best_measured",
            Json::str(best_measured.map_or("Orig", |(t, _)| t)),
        ),
    ]);
    let mut payload = resp.to_json();
    let Json::Obj(fields) = &mut payload else {
        unreachable!("responses render as objects");
    };
    fields.push(("autotune".to_string(), tune));
    Ok(format!(
        "{{\"ev\":\"response\",\"key\":{},\"query\":{},\"result\":{}}}",
        Json::str(key).render(),
        Json::str(req.query.token()).render(),
        payload.render()
    ))
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// Server configuration for [`start`].
#[derive(Clone, Debug, Default)]
pub struct ServeConfig {
    /// TCP listen address (e.g. `127.0.0.1:7070`; port 0 picks a free
    /// one). `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix socket path (a stale file at the path is replaced).
    pub unix: Option<PathBuf>,
    /// Warm-start cache file.
    pub warm: Option<PathBuf>,
    /// Reload an existing warm-start file instead of truncating it.
    pub resume: bool,
    /// Cache shards (0 = one per core).
    pub shards: usize,
    /// Connection-layer limits (DESIGN.md §18).
    pub limits: ServeLimits,
}

/// Removes the unix socket file when dropped, so every exit path out of
/// [`start`] and [`ServerHandle::wait`] — including bind/open errors after
/// the socket bind succeeded — cleans up the filesystem entry.
struct SocketGuard(PathBuf);

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Poll tick for connection reads: sockets wake at this cadence to check
/// the drain flag and the per-frame idle budget.
const POLL_TICK: Duration = Duration::from_millis(40);

/// The transport abstraction both socket families implement: timeouts,
/// cloning a write handle, and half/full shutdown.
trait ConnStream: Read + Write + Send + Sized + 'static {
    fn set_conn_timeouts(&self, read: Option<Duration>, write: Option<Duration>);
    fn try_clone_stream(&self) -> std::io::Result<Self>;
    fn shutdown_stream(&self);
}

impl ConnStream for TcpStream {
    fn set_conn_timeouts(&self, read: Option<Duration>, write: Option<Duration>) {
        let _ = self.set_read_timeout(read);
        let _ = self.set_write_timeout(write);
    }

    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }

    fn shutdown_stream(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

impl ConnStream for UnixStream {
    fn set_conn_timeouts(&self, read: Option<Duration>, write: Option<Duration>) {
        let _ = self.set_read_timeout(read);
        let _ = self.set_write_timeout(write);
    }

    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }

    fn shutdown_stream(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

struct Shared {
    service: Arc<PlanService>,
    stop: AtomicBool,
    drain_t0: Mutex<Option<Instant>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    /// Joinable handles of admitted connections — tracked, not detached,
    /// so drain can wait for them.
    conns: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Shared {
    /// Flips the server into draining: the gauges tell the service to
    /// answer new requests with `draining`, the stop flag halts the
    /// accept loops, and the poke wakes them to observe it.
    fn begin_drain(&self) {
        {
            let mut t0 = self.drain_t0.lock().expect("drain clock poisoned");
            if t0.is_none() {
                *t0 = Some(Instant::now());
            }
        }
        self.service.gauges().draining.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        self.poke();
    }

    /// Wakes the blocking accept loops so they observe the stop flag.
    fn poke(&self) {
        if let Some(addr) = self.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(path) = &self.unix_path {
            let _ = UnixStream::connect(path);
        }
    }
}

/// Joins every finished connection thread and drops it from the registry,
/// keeping the tracked set bounded by the number of *live* connections.
fn reap(conns: &mut Vec<thread::JoinHandle<()>>) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Releases one admission slot when the connection thread exits, on every
/// path (including panics).
struct SlotGuard(Arc<Gauges>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.conns_active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Admission control for one accepted stream: acquire a budget slot or
/// shed with a typed `overloaded` reply; admitted connections run on a
/// tracked (joinable) thread that releases the slot on exit.
fn admit<S: ConnStream>(shared: &Arc<Shared>, stream: S) {
    let limits = shared.service.limits();
    let gauges = shared.service.gauges();
    reap(&mut shared.conns.lock().expect("conn registry poisoned"));
    let admitted = gauges
        .conns_active
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < limits.max_conns).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        gauges.shed.fetch_add(1, Ordering::Relaxed);
        obs::counter_add("serve.shed", 1);
        // Shed inline on the accept thread: one bounded write, no spawn.
        stream.set_conn_timeouts(Some(limits.conn_idle), Some(limits.conn_idle));
        let mut stream = stream;
        let line = format!(
            "{}\n",
            wire_error(
                "overloaded",
                &format!(
                    "connection budget exhausted ({} active); retry later",
                    limits.max_conns
                ),
            )
        );
        let _ = stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.flush());
        stream.shutdown_stream();
        return;
    }
    gauges.conns_total.fetch_add(1, Ordering::Relaxed);
    let slot = SlotGuard(Arc::clone(gauges));
    let conn_shared = Arc::clone(shared);
    let handle = thread::spawn(move || {
        let _slot = slot;
        handle_conn(&conn_shared, stream);
    });
    shared
        .conns
        .lock()
        .expect("conn registry poisoned")
        .push(handle);
}

/// Outcome of one bounded frame read.
enum Frame {
    /// A complete request line (newline stripped).
    Line(String),
    /// The frame exceeded the byte cap; reply typed and close.
    TooLarge,
    /// EOF, error, idle/slow-loris budget exhausted, or drain — close.
    Closed,
}

/// Reads one newline-terminated frame from `reader` into `acc`, bounded
/// three ways: at most [`ServeLimits::max_frame_bytes`] buffered, at most
/// [`ServeLimits::conn_idle`] wall-clock per frame (which is what defeats
/// byte-at-a-time slow-loris writers), and an idle close as soon as the
/// server drains while no frame is in progress.
fn read_frame<S: ConnStream>(
    reader: &mut S,
    acc: &mut Vec<u8>,
    scratch: &mut [u8],
    limits: ServeLimits,
    gauges: &Gauges,
) -> Frame {
    let t0 = Instant::now();
    loop {
        if let Some(pos) = acc.iter().position(|&b| b == b'\n') {
            // The frame proper excludes its newline; a frame past the cap
            // is rejected whether it arrived whole or is still streaming.
            if pos > limits.max_frame_bytes {
                return Frame::TooLarge;
            }
            let rest = acc.split_off(pos + 1);
            let mut line = std::mem::replace(acc, rest);
            line.pop();
            return Frame::Line(String::from_utf8_lossy(&line).into_owned());
        }
        if acc.len() > limits.max_frame_bytes {
            return Frame::TooLarge;
        }
        if gauges.draining.load(Ordering::SeqCst) && acc.is_empty() {
            return Frame::Closed;
        }
        if t0.elapsed() > limits.conn_idle {
            return Frame::Closed;
        }
        match reader.read(scratch) {
            Ok(0) => return Frame::Closed,
            Ok(n) => acc.extend_from_slice(&scratch[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return Frame::Closed,
        }
    }
}

/// Serves one admitted connection: one reply line per request frame,
/// flushed per reply, with a per-connection request counter. A `shutdown`
/// command begins the server-wide drain after its reply flushes.
fn handle_conn<S: ConnStream>(shared: &Shared, reader: S) {
    let limits = shared.service.limits();
    let gauges = shared.service.gauges();
    reader.set_conn_timeouts(Some(POLL_TICK), Some(limits.conn_idle));
    let Ok(mut writer) = reader.try_clone_stream() else {
        return;
    };
    let mut reader = reader;
    let mut acc: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 4096];
    let mut served = 0u64;
    loop {
        let line = match read_frame(&mut reader, &mut acc, &mut scratch, limits, gauges) {
            Frame::Line(line) => line,
            Frame::Closed => break,
            Frame::TooLarge => {
                gauges.frame_rejects.fetch_add(1, Ordering::Relaxed);
                obs::counter_add("serve.frame_reject", 1);
                let reply = format!(
                    "{}\n",
                    wire_error(
                        "frame_too_large",
                        &format!("request frame exceeds {} bytes", limits.max_frame_bytes),
                    )
                );
                let _ = writer
                    .write_all(reply.as_bytes())
                    .and_then(|()| writer.flush());
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        served += 1;
        let handled = shared.service.handle_line(&line);
        // One write_all per reply: a single syscall and a single packet.
        let mut buf = String::with_capacity(handled.reply().len() + 1);
        buf.push_str(handled.reply());
        buf.push('\n');
        let ok = writer
            .write_all(buf.as_bytes())
            .and_then(|()| writer.flush())
            .is_ok();
        if let Handled::Shutdown(_) = handled {
            shared.begin_drain();
            break;
        }
        if !ok {
            break;
        }
    }
    writer.shutdown_stream();
    obs::counter_add("serve.conn_requests", served);
}

/// A running server: its service handle plus the accept threads and the
/// tracked connection registry.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Vec<thread::JoinHandle<()>>,
    _socket_guard: Option<SocketGuard>,
}

impl ServerHandle {
    /// The underlying service (for stats after shutdown).
    pub fn service(&self) -> &Arc<PlanService> {
        &self.shared.service
    }

    /// The bound TCP address, when TCP is enabled (resolves port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.shared.tcp_addr
    }

    /// The bound unix socket path, when enabled.
    pub fn unix_path(&self) -> Option<&Path> {
        self.shared.unix_path.as_deref()
    }

    /// Initiates graceful drain from the server side (a client `shutdown`
    /// command has the same effect): stop accepting, finish in-flight
    /// requests, answer later requests with `draining`.
    pub fn request_shutdown(&self) {
        self.shared
            .service
            .gauges()
            .draining
            .store(true, Ordering::SeqCst);
        self.shared.begin_drain();
    }

    /// Blocks until every accept loop has exited, then drains: tracked
    /// connection threads are joined as they finish, bounded by
    /// [`ServeLimits::drain_deadline`] (threads still alive at the hard
    /// stop are abandoned with a logged warning). Records `serve.drain_ms`
    /// and removes the unix socket file.
    pub fn wait(self) {
        for h in self.accept {
            let _ = h.join();
        }
        let limits = self.shared.service.limits();
        let t0 = Instant::now();
        loop {
            {
                let mut conns = self.shared.conns.lock().expect("conn registry poisoned");
                reap(&mut conns);
                if conns.is_empty() {
                    break;
                }
                if t0.elapsed() > limits.drain_deadline {
                    obs::error(&format!(
                        "serve: drain deadline ({} ms) reached; abandoning {} connection(s)",
                        limits.drain_deadline.as_millis(),
                        conns.len()
                    ));
                    break;
                }
            }
            thread::sleep(Duration::from_millis(5));
        }
        let drained_ms = self
            .shared
            .drain_t0
            .lock()
            .expect("drain clock poisoned")
            .map_or(0, |t| {
                u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
            });
        let gauges = self.shared.service.gauges();
        gauges.drain_ms.store(drained_ms, Ordering::Relaxed);
        obs::gauge_set("serve.drain_ms", drained_ms as f64);
        // The socket guard drops here and removes the unix socket file.
    }
}

/// Starts the server: binds the configured transports and spawns one
/// accept thread per transport; admitted connections run on tracked
/// threads under the [`ServeLimits`] admission/deadline regime.
pub fn start(cfg: ServeConfig) -> Result<ServerHandle, String> {
    if cfg.tcp.is_none() && cfg.unix.is_none() {
        return Err("serve: need at least one of a TCP address or a unix socket path".to_string());
    }
    // Bind the unix socket first under a cleanup guard: any later error —
    // TCP bind, warm-start open — drops the guard and removes the socket
    // file, so a failed start never leaves a stale socket behind.
    let unix = match &cfg.unix {
        None => None,
        Some(path) => {
            // A stale socket file from a previous run refuses the bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)
                .map_err(|e| format!("serve: bind {}: {e}", path.display()))?;
            Some((listener, SocketGuard(path.clone())))
        }
    };
    let tcp = match &cfg.tcp {
        None => None,
        Some(addr) => {
            Some(TcpListener::bind(addr).map_err(|e| format!("serve: bind {addr}: {e}"))?)
        }
    };
    let service = Arc::new(PlanService::open_with(
        cfg.shards,
        cfg.warm.as_deref(),
        cfg.resume,
        cfg.limits,
    )?);
    let (unix_listener, socket_guard) = match unix {
        None => (None, None),
        Some((l, g)) => (Some(l), Some(g)),
    };
    let shared = Arc::new(Shared {
        service,
        stop: AtomicBool::new(false),
        drain_t0: Mutex::new(None),
        tcp_addr: tcp.as_ref().and_then(|l| l.local_addr().ok()),
        unix_path: cfg.unix,
        conns: Mutex::new(Vec::new()),
    });
    let mut accept = Vec::new();
    if let Some(listener) = tcp {
        let shared = Arc::clone(&shared);
        accept.push(thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Replies are single short lines written whole; Nagle's
                // algorithm would otherwise stall them behind delayed ACKs.
                let _ = stream.set_nodelay(true);
                admit(&shared, stream);
            }
        }));
    }
    if let Some(listener) = unix_listener {
        let shared = Arc::clone(&shared);
        accept.push(thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                admit(&shared, stream);
            }
        }));
    }
    Ok(ServerHandle {
        shared,
        accept,
        _socket_guard: socket_guard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_covers_commands_batches_and_errors() {
        let svc = PlanService::open(4, None, false).unwrap();
        assert_eq!(
            svc.handle_line("{\"cmd\":\"ping\"}").reply(),
            "{\"ev\":\"pong\"}"
        );
        let err = svc.handle_line("not json").reply().to_string();
        assert!(
            err.starts_with("{\"ev\":\"error\",\"code\":\"bad_request\""),
            "{err}"
        );
        let health = svc.handle_line("{\"cmd\":\"health\"}").reply().to_string();
        let h = json::parse(&health).unwrap();
        assert_eq!(h.get("state").and_then(Json::as_str), Some("ok"));
        assert_eq!(h.get("conns_active").and_then(Json::as_f64), Some(0.0));
        let r1 = svc
            .handle_line("{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":200}")
            .reply()
            .to_string();
        let batch = svc
            .handle_line("[{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":200}]")
            .reply()
            .to_string();
        assert!(batch.contains(&r1), "batch member must be the cached bytes");
        let stats = svc.handle_line("{\"cmd\":\"stats\"}").reply().to_string();
        let v = json::parse(&stats).unwrap();
        assert_eq!(v.get("hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("misses").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("entries").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("shed").and_then(Json::as_f64), Some(0.0));
        assert_eq!(v.get("frame_rejects").and_then(Json::as_f64), Some(0.0));
        // Shutdown flips to draining: control commands keep working but
        // new requests and batches get typed `draining` replies.
        assert!(matches!(
            svc.handle_line("{\"cmd\":\"shutdown\"}"),
            Handled::Shutdown(_)
        ));
        let drained = svc
            .handle_line("{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":200}")
            .reply()
            .to_string();
        assert!(drained.contains("\"code\":\"draining\""), "{drained}");
        let drained_batch = svc
            .handle_line("[{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":200}]")
            .reply()
            .to_string();
        assert!(
            drained_batch.contains("\"code\":\"draining\""),
            "{drained_batch}"
        );
        let health = svc.handle_line("{\"cmd\":\"health\"}").reply().to_string();
        let h = json::parse(&health).unwrap();
        assert_eq!(h.get("state").and_then(Json::as_str), Some("draining"));
    }

    #[test]
    fn repeated_requests_hit_and_are_byte_identical() {
        let svc = PlanService::open(0, None, false).unwrap();
        let line = "{\"query\":\"locality\",\"kernel\":\"jacobi\",\"n\":64,\"nk\":8}";
        let a = svc.handle_line(line).reply().to_string();
        // A differently-spelled equivalent request must hit the same entry.
        let b = svc
            .handle_line("{\"nk\":8,\"n\":64,\"kernel\":\"jacobi\",\"query\":\"locality\"}")
            .reply()
            .to_string();
        assert_eq!(a, b);
        assert_eq!(svc.stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(svc.stats.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn compute_deadline_degrades_to_a_typed_error() {
        let limits = ServeLimits {
            compute_deadline: Some(Duration::from_nanos(1)),
            ..ServeLimits::default()
        };
        let svc = PlanService::open_with(1, None, false, limits).unwrap();
        let reply = svc
            .handle_line("{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":96}")
            .reply()
            .to_string();
        assert!(reply.contains("\"code\":\"deadline\""), "{reply}");
        assert_eq!(svc.stats.errors.load(Ordering::Relaxed), 1);
        // The gauge accounting survives the rejected request.
        assert_eq!(svc.gauges().in_flight.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn autotune_augments_the_plan_payload() {
        let svc = PlanService::open(1, None, false).unwrap();
        let line =
            "{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":64,\"nk\":8,\"autotune\":true}";
        let r = svc.handle_line(line).reply().to_string();
        let v = json::parse(&r).unwrap();
        let result = v.get("result").expect("envelope has result");
        let tune = result.get("autotune").expect("autotune section");
        assert!(tune.get("best_measured").is_some());
        // One engine: neither the payload nor a measured row names one.
        assert!(result.get("backend").is_none(), "{r}");
        let Some(Json::Arr(rows)) = tune.get("measured") else {
            panic!("measured rows");
        };
        assert!(!rows.is_empty());
        for row in rows {
            assert!(row.get("backend").is_none(), "{r}");
            assert!(row.get("mflops").and_then(Json::as_f64).unwrap() > 0.0);
        }
        assert!(v
            .get("key")
            .and_then(Json::as_str)
            .unwrap()
            .contains("|tuned|nk8"));
        // The measured numbers are volatile, but the cached bytes are not:
        // a repeat serving is byte-identical because it hits.
        assert_eq!(svc.handle_line(line).reply(), r);
    }

    #[test]
    fn record_sum_covers_key_and_payload() {
        let a = record_sum("k1", "p1");
        assert_eq!(a, record_sum("k1", "p1"));
        assert_ne!(a, record_sum("k2", "p1"));
        assert_ne!(a, record_sum("k1", "p2"));
        // The separator keeps (key, payload) splits unambiguous.
        assert_ne!(record_sum("ab", "c"), record_sum("a", "bc"));
    }
}
