//! Supervised execution: panic isolation, per-item deadlines, bounded
//! retry-with-backoff, and fail-fast — the fault-tolerant layer under
//! [`SimPool::try_map`](crate::SimPool::try_map), the pool's one worker
//! loop.
//!
//! Every paper artifact is an hours-scale sweep over independent points,
//! and one panicking point must not kill the whole run. `try_map` runs
//! each item under [`std::panic::catch_unwind`], retries failures with
//! exponential backoff, enforces a per-item deadline, and returns an
//! **ordered** `Vec<Result<R, SweepError>>` so one bad point degrades to
//! one `Err` slot while every `Ok` slot stays bit-identical and
//! jobs-invariant (dynamic claiming, indexed result slots; see DESIGN.md
//! §13).
//!
//! Safe Rust cannot kill a hung thread, so the *decision* that an item
//! timed out is a deterministic post-hoc check of its elapsed wall time —
//! the same verdict at any `--jobs`. The watchdog thread only observes:
//! it logs overdue items through the obs layer while they are still
//! running, so an operator watching stderr sees the stall as it happens
//! rather than after the sweep ends.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::thread;
use std::time::{Duration, Instant};

use tiling3d_obs as obs;

use crate::SimPool;

/// Why one sweep point failed. Carried per item by
/// [`SimPool::try_map`](crate::SimPool::try_map); the `Ok` siblings are
/// unaffected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepError {
    /// The item's closure panicked; `payload` is the panic message.
    Panicked {
        /// Stringified panic payload.
        payload: String,
    },
    /// The item ran longer than the supervision deadline.
    DeadlineExceeded {
        /// The configured per-item deadline.
        limit: Duration,
    },
    /// A numerical health sentinel rejected the item's result
    /// (NaN/Inf in an output grid or metric, residual divergence).
    Unhealthy {
        /// What the sentinel found.
        reason: String,
    },
    /// The item failed on the first attempt and on every retry; `last` is
    /// the final attempt's error.
    RetriesExhausted {
        /// Total attempts made (first try + retries).
        attempts: u32,
        /// The error from the last attempt.
        last: Box<SweepError>,
    },
    /// The item was never attempted because an earlier item failed under
    /// `--strict` fail-fast.
    Aborted,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Panicked { payload } => write!(f, "panicked: {payload}"),
            SweepError::DeadlineExceeded { limit } => {
                write!(f, "deadline exceeded ({} ms)", limit.as_millis())
            }
            SweepError::Unhealthy { reason } => write!(f, "unhealthy: {reason}"),
            SweepError::RetriesExhausted { attempts, last } => {
                write!(f, "failed after {attempts} attempts; last: {last}")
            }
            SweepError::Aborted => write!(f, "aborted by fail-fast"),
        }
    }
}

impl std::error::Error for SweepError {}

impl SweepError {
    /// The innermost error (unwraps [`SweepError::RetriesExhausted`]).
    pub fn root(&self) -> &SweepError {
        match self {
            SweepError::RetriesExhausted { last, .. } => last.root(),
            other => other,
        }
    }
}

/// Supervision policy for one sweep: retry budget, backoff, deadline,
/// fail-fast.
#[derive(Clone, Copy, Debug)]
pub struct SupervisePolicy {
    /// Retries after the first failed attempt (`0` = single attempt).
    pub retries: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub backoff: Duration,
    /// Per-item wall-clock deadline (`None` = unlimited). The decision is
    /// a post-hoc elapsed check — deterministic for any `--jobs` — while
    /// the watchdog thread logs overdue items as they run.
    pub deadline: Option<Duration>,
    /// Stop claiming new items after the first item fails terminally;
    /// unstarted items report [`SweepError::Aborted`] (`--strict`).
    pub fail_fast: bool,
}

impl Default for SupervisePolicy {
    /// One retry with 10 ms backoff, no deadline, keep going on failure —
    /// the degrade-gracefully default every driver starts from.
    fn default() -> Self {
        SupervisePolicy {
            retries: 1,
            backoff: Duration::from_millis(10),
            deadline: None,
            fail_fast: false,
        }
    }
}

impl SupervisePolicy {
    /// Fail-fast variant of the default policy: no retries, first failure
    /// aborts the sweep (`--strict`).
    pub fn strict() -> Self {
        SupervisePolicy {
            retries: 0,
            fail_fast: true,
            ..SupervisePolicy::default()
        }
    }
}

/// The numerical sentinel for a point's scalar results: the first
/// non-finite `(name, value)` pair becomes [`SweepError::Unhealthy`].
/// Simulated miss rates, modeled and measured MFlops all pass through it.
///
/// # Errors
/// `Unhealthy { reason: "non-finite <name> (<value>)" }`.
pub fn check_finite(values: &[(&str, f64)]) -> Result<(), SweepError> {
    match values.iter().find(|(_, v)| !v.is_finite()) {
        Some((name, v)) => Err(SweepError::Unhealthy {
            reason: format!("non-finite {name} ({v})"),
        }),
        None => Ok(()),
    }
}

/// Marker prefix for panics raised deliberately by the fault-injection
/// harness; [`silence_expected_panics`] filters them from stderr.
pub const INJECTED_PANIC_PREFIX: &str = "fault-injected:";

/// Installs a process-wide panic hook (once) that suppresses the default
/// "thread panicked" stderr spew for payloads carrying
/// [`INJECTED_PANIC_PREFIX`] — deliberate faults from the fault-injection
/// tests — while forwarding every other panic to the previous hook
/// unchanged. `catch_unwind` still observes the suppressed panics; only
/// the printing is filtered.
pub fn silence_expected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let injected =
                payload_str(info.payload()).is_some_and(|s| s.contains(INJECTED_PANIC_PREFIX));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn payload_str(payload: &dyn std::any::Any) -> Option<&str> {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

/// Runs one attempt of `f` under `catch_unwind` and the policy's
/// deadline. The elapsed check *after* the call is the deterministic
/// timeout decision point (see module docs).
fn attempt<R>(
    policy: &SupervisePolicy,
    f: impl FnOnce() -> Result<R, SweepError>,
) -> Result<R, SweepError> {
    let t0 = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    let elapsed = t0.elapsed();
    match outcome {
        Err(payload) => Err(SweepError::Panicked {
            payload: payload_str(payload.as_ref())
                .unwrap_or("<non-string panic payload>")
                .to_string(),
        }),
        Ok(r) => match policy.deadline {
            Some(limit) if elapsed > limit => Err(SweepError::DeadlineExceeded { limit }),
            _ => r,
        },
    }
}

/// Supervises one item to completion under `policy`: first attempt plus
/// up to `policy.retries` retries with doubling backoff. Emits the
/// `sweep.retries` / `sweep.failed` / `sweep.unhealthy` obs counters.
/// This is the single supervision primitive — the pool's claim loop and
/// the single-point callers (`tiling3d simulate`/`measure`, the planning
/// server) all funnel through it.
pub fn supervise_item<R>(
    policy: &SupervisePolicy,
    f: impl Fn() -> Result<R, SweepError>,
) -> Result<R, SweepError> {
    let mut last = match attempt(policy, &f) {
        Ok(r) => return Ok(r),
        Err(e) => e,
    };
    let mut backoff = policy.backoff;
    for _ in 0..policy.retries {
        obs::counter_add("sweep.retries", 1);
        if !backoff.is_zero() {
            thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        match attempt(policy, &f) {
            Ok(r) => return Ok(r),
            Err(e) => last = e,
        }
    }
    let err = if policy.retries > 0 {
        SweepError::RetriesExhausted {
            attempts: policy.retries + 1,
            last: Box::new(last),
        }
    } else {
        last
    };
    obs::counter_add("sweep.failed", 1);
    if matches!(err.root(), SweepError::Unhealthy { .. }) {
        obs::counter_add("sweep.unhealthy", 1);
    }
    obs::error(&format!("sweep item failed: {err}"));
    Err(err)
}

/// Shared in-flight registry between workers and the watchdog thread:
/// slot `i` holds the start instant of item `i` while a worker is
/// attempting it.
struct Watch {
    started: Vec<Mutex<Option<Instant>>>,
    done: AtomicBool,
}

impl Watch {
    fn new(n: usize) -> Self {
        Watch {
            started: (0..n).map(|_| Mutex::new(None)).collect(),
            done: AtomicBool::new(false),
        }
    }

    fn begin(&self, i: usize) {
        *self.started[i].lock().expect("watch slot poisoned") = Some(Instant::now());
    }

    fn end(&self, i: usize) {
        *self.started[i].lock().expect("watch slot poisoned") = None;
    }

    /// Watchdog loop: wake every `tick`, log any item past its deadline
    /// (once per item). Observe-only — the worker's own post-hoc check is
    /// what decides the item's fate.
    fn run(&self, limit: Duration) {
        let tick = (limit / 8).max(Duration::from_millis(1));
        let mut flagged = vec![false; self.started.len()];
        while !self.done.load(Ordering::Acquire) {
            thread::sleep(tick);
            for (i, slot) in self.started.iter().enumerate() {
                if flagged[i] {
                    continue;
                }
                let overdue = slot
                    .lock()
                    .expect("watch slot poisoned")
                    .is_some_and(|t0| t0.elapsed() > limit);
                if overdue {
                    flagged[i] = true;
                    obs::error(&format!(
                        "watchdog: sweep item {i} past its {} ms deadline, still running",
                        limit.as_millis()
                    ));
                }
            }
        }
    }
}

impl SimPool {
    /// The pool's worker loop: applies `f` to every item and returns
    /// per-item `Result`s **in item order**, so one bad point never aborts
    /// the sweep.
    ///
    /// Each item runs under `catch_unwind` with the policy's deadline and
    /// retry budget; `f` itself may return `Err` (typically
    /// [`SweepError::Unhealthy`]) to reject its own result. Workers claim
    /// items from an atomic counter and write results into slots indexed
    /// by item position, so the `Ok` subset is bit-identical for any
    /// worker count. One worker (or one item) runs inline on the caller's
    /// thread, which is how the wall-clock sweeps keep every timing
    /// alone on the host. With
    /// `policy.fail_fast`, the first terminal failure stops workers from
    /// claiming further items and the unstarted remainder reports
    /// [`SweepError::Aborted`].
    pub fn try_map<T, R, F>(
        &self,
        items: &[T],
        policy: &SupervisePolicy,
        f: F,
    ) -> Vec<Result<R, SweepError>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Result<R, SweepError> + Sync,
    {
        self.try_map_with_progress(items, policy, f, |_| {})
    }

    /// [`SimPool::try_map`] with a completion callback (`done` count) per
    /// item, called from the worker threads: keep it cheap and re-entrant
    /// (the sweeps use it for `\r`-style stderr tickers).
    pub fn try_map_with_progress<T, R, F, P>(
        &self,
        items: &[T],
        policy: &SupervisePolicy,
        f: F,
        progress: P,
    ) -> Vec<Result<R, SweepError>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> Result<R, SweepError> + Sync,
        P: Fn(usize) + Sync,
    {
        let n = items.len();
        // Pool + per-worker spans. Every worker span is named "worker" (not
        // worker-N), so the set of span names in a trace is identical for
        // every jobs value (only the per-worker `tasks` counters vary); the
        // inline path emits one worker span too.
        let collecting = obs::collecting();
        let pool_span = if collecting {
            let s = obs::span("pool");
            s.add("tasks", n as u64);
            Some(s)
        } else {
            None
        };
        let pool_id = pool_span.as_ref().map_or(0, obs::Span::id);
        let abort = AtomicBool::new(false);
        let done_count = AtomicUsize::new(0);
        let run_one = |i: usize, watch: Option<&Watch>| -> Result<R, SweepError> {
            if let Some(w) = watch {
                w.begin(i);
            }
            let r = supervise_item(policy, || f(&items[i]));
            if let Some(w) = watch {
                w.end(i);
            }
            if r.is_err() && policy.fail_fast {
                abort.store(true, Ordering::Release);
            }
            progress(done_count.fetch_add(1, Ordering::Relaxed) + 1);
            r
        };
        // Inline path: one worker or at most one item — run on the
        // caller's thread, no watchdog (the post-hoc elapsed check still
        // enforces the deadline verdict).
        if self.jobs() <= 1 || n <= 1 {
            let worker = if collecting {
                Some(obs::span_at("worker", pool_id))
            } else {
                None
            };
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if abort.load(Ordering::Acquire) {
                    out.push(Err(SweepError::Aborted));
                } else {
                    out.push(run_one(i, None));
                }
            }
            if let Some(w) = &worker {
                w.add("tasks", n as u64);
            }
            return out;
        }
        let watch = policy.deadline.map(|_| Watch::new(n));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<R, SweepError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            if let (Some(w), Some(limit)) = (watch.as_ref(), policy.deadline) {
                scope.spawn(move || w.run(limit));
            }
            for _ in 0..self.jobs().min(n) {
                scope.spawn(|| {
                    let worker = if collecting {
                        Some(obs::span_at("worker", pool_id))
                    } else {
                        None
                    };
                    let mut tasks = 0u64;
                    loop {
                        if abort.load(Ordering::Acquire) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = run_one(i, watch.as_ref());
                        *slots[i].lock().expect("result slot poisoned") = Some(r);
                        tasks += 1;
                    }
                    if let Some(w) = &worker {
                        w.add("tasks", tasks);
                    }
                });
            }
            // Workers exiting the claim loop is the scope's natural end;
            // release the watchdog once all claimable work is settled.
            if let Some(w) = watch.as_ref() {
                // This handle is reached only after the spawns above are
                // queued; the watchdog checks `done` each tick, so setting
                // it in the scope body would race with workers still
                // running. Instead the flag is set by a dedicated closer
                // thread that waits on the claim counter.
                let done = &w.done;
                let done_counter = &done_count;
                let abort_flag = &abort;
                scope.spawn(move || {
                    while done_counter.load(Ordering::Relaxed) < n
                        && !abort_flag.load(Ordering::Acquire)
                    {
                        thread::sleep(Duration::from_millis(1));
                    }
                    done.store(true, Ordering::Release);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .unwrap_or(Err(SweepError::Aborted))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq(x: &u64) -> Result<u64, SweepError> {
        Ok(x * x)
    }

    #[test]
    fn try_map_empty_and_single_item() {
        let pool = SimPool::new(4);
        let none: Vec<Result<u64, SweepError>> = pool.try_map(&[], &SupervisePolicy::default(), sq);
        assert!(none.is_empty());
        let one = pool.try_map(&[7u64], &SupervisePolicy::default(), sq);
        assert_eq!(one, vec![Ok(49)]);
    }

    #[test]
    fn try_map_preserves_order_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<Result<u64, SweepError>> = items.iter().map(sq).collect();
        for jobs in [1usize, 2, 8, 64] {
            let got = SimPool::new(jobs).try_map(&items, &SupervisePolicy::default(), sq);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn panic_is_isolated_to_its_item() {
        silence_expected_panics();
        let items: Vec<u64> = (0..20).collect();
        let policy = SupervisePolicy {
            retries: 0,
            ..SupervisePolicy::default()
        };
        for jobs in [1usize, 4] {
            let got = SimPool::new(jobs).try_map(&items, &policy, |&x| {
                assert!(x != 13, "fault-injected: boom at 13");
                Ok(x + 1)
            });
            for (i, r) in got.iter().enumerate() {
                if i == 13 {
                    let Err(SweepError::Panicked { payload }) = r else {
                        panic!("expected Panicked at 13, got {r:?}");
                    };
                    assert!(payload.contains("boom at 13"), "{payload}");
                } else {
                    assert_eq!(*r, Ok(i as u64 + 1), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn retries_recover_transient_failures_deterministically() {
        silence_expected_panics();
        let fails_first = Mutex::new(std::collections::HashSet::new());
        let items: Vec<u64> = (0..10).collect();
        let policy = SupervisePolicy {
            retries: 2,
            backoff: Duration::ZERO,
            ..SupervisePolicy::default()
        };
        let got = SimPool::new(4).try_map(&items, &policy, |&x| {
            // Every item panics exactly once, then succeeds on retry.
            if fails_first.lock().unwrap().insert(x) {
                panic!("fault-injected: transient {x}");
            }
            Ok(x * 3)
        });
        let expect: Vec<Result<u64, SweepError>> = items.iter().map(|&x| Ok(x * 3)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn retries_exhausted_wraps_the_last_error() {
        silence_expected_panics();
        let policy = SupervisePolicy {
            retries: 2,
            backoff: Duration::ZERO,
            ..SupervisePolicy::default()
        };
        let got = SimPool::new(1).try_map(&[1u64], &policy, |_| -> Result<u64, _> {
            panic!("fault-injected: permanent");
        });
        let Err(SweepError::RetriesExhausted { attempts, last }) = &got[0] else {
            panic!("expected RetriesExhausted, got {got:?}");
        };
        assert_eq!(*attempts, 3);
        assert!(matches!(**last, SweepError::Panicked { .. }));
        assert!(matches!(
            got[0].as_ref().unwrap_err().root(),
            SweepError::Panicked { .. }
        ));
    }

    #[test]
    fn deadline_flags_slow_items_and_spares_fast_ones() {
        let items: Vec<u64> = (0..8).collect();
        let policy = SupervisePolicy {
            retries: 0,
            deadline: Some(Duration::from_millis(40)),
            ..SupervisePolicy::default()
        };
        for jobs in [1usize, 4] {
            let got = SimPool::new(jobs).try_map(&items, &policy, |&x| {
                if x == 5 {
                    thread::sleep(Duration::from_millis(120));
                }
                Ok(x)
            });
            for (i, r) in got.iter().enumerate() {
                if i == 5 {
                    assert!(
                        matches!(r, Err(SweepError::DeadlineExceeded { .. })),
                        "jobs={jobs}: {r:?}"
                    );
                } else {
                    assert_eq!(*r, Ok(i as u64), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn unhealthy_results_surface_as_their_own_variant() {
        let policy = SupervisePolicy {
            retries: 1,
            backoff: Duration::ZERO,
            ..SupervisePolicy::default()
        };
        let got = SimPool::new(1).try_map(&[0u64, 1], &policy, |&x| {
            if x == 1 {
                Err(SweepError::Unhealthy {
                    reason: "NaN at (0, 0, 0)".into(),
                })
            } else {
                Ok(x)
            }
        });
        assert_eq!(got[0], Ok(0));
        assert!(matches!(
            got[1].as_ref().unwrap_err().root(),
            SweepError::Unhealthy { .. }
        ));
    }

    #[test]
    fn fail_fast_aborts_remaining_items() {
        silence_expected_panics();
        let items: Vec<u64> = (0..64).collect();
        let got = SimPool::new(1).try_map(&items, &SupervisePolicy::strict(), |&x| {
            assert!(x != 3, "fault-injected: strict stop");
            Ok(x)
        });
        assert_eq!(got[..3], [Ok(0), Ok(1), Ok(2)]);
        assert!(matches!(got[3], Err(SweepError::Panicked { .. })));
        assert!(got[4..].iter().all(|r| *r == Err(SweepError::Aborted)));
        // Parallel: everything after the failure that was never claimed
        // aborts; claimed items may still finish. The failure itself must
        // be present and typed. (Healthy items sleep so the abort flag
        // lands while most of the sweep is still unclaimed.)
        let got = SimPool::new(4).try_map(&items, &SupervisePolicy::strict(), |&x| {
            assert!(x != 3, "fault-injected: strict stop");
            thread::sleep(Duration::from_millis(2));
            Ok(x)
        });
        assert!(matches!(got[3], Err(SweepError::Panicked { .. })));
        assert!(got.contains(&Err(SweepError::Aborted)));
    }

    #[test]
    fn display_formats_are_stable() {
        let e = SweepError::RetriesExhausted {
            attempts: 3,
            last: Box::new(SweepError::DeadlineExceeded {
                limit: Duration::from_millis(250),
            }),
        };
        assert_eq!(
            e.to_string(),
            "failed after 3 attempts; last: deadline exceeded (250 ms)"
        );
        assert_eq!(SweepError::Aborted.to_string(), "aborted by fail-fast");
    }
}
