//! Deterministic protocol fuzzer for the hardened serving layer
//! (DESIGN.md §18).
//!
//! The same seeded-xorshift idiom as [`crate::fault`]: a [`FuzzPlan`] is a
//! pure function of `(seed, rounds)`, so a failing campaign replays
//! exactly from its seed. Each round drives one **abuse connection**
//! against a live server — malformed JSON, truncated frames (no trailing
//! newline, then disconnect), oversized frames past the configured cap,
//! raw binary garbage, a slow-loris byte-at-a-time writer, and a
//! mid-request disconnect — and then proves the server absorbed it:
//!
//! * the server answers a well-formed **probe** request with exactly the
//!   bytes it served before any abuse (cache integrity);
//! * `{"cmd":"health"}` still answers, and its `conns_active` gauge
//!   returns to the pre-campaign baseline (no leaked admission slots);
//! * every reply the server does send parses as a single JSON object
//!   (typed errors, never a panic message or a half-written frame).
//!
//! The campaign runs in two harnesses: in-process (`tests/serve_fuzz.rs`)
//! and as the `chaos --serve` CLI campaign that CI runs against a real
//! server process.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use tiling3d_grid::Xorshift64;
use tiling3d_obs as obs;
use tiling3d_obs::json::{self, Json};

use crate::serve::ServeLimits;

/// One abuse shape the fuzzer can throw at a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Abuse {
    /// Syntactically broken JSON followed by a newline: the server must
    /// reply with a typed `bad_request` error and keep the connection.
    MalformedJson,
    /// A frame cut off mid-object with no newline, then disconnect: the
    /// server must discard it silently.
    TruncatedFrame,
    /// A frame longer than [`ServeLimits::max_frame_bytes`]: the server
    /// must reply `frame_too_large` and close instead of buffering it.
    OversizedFrame,
    /// Raw non-UTF-8 bytes with a newline: a typed `bad_request` reply,
    /// never a panic.
    BinaryGarbage,
    /// A valid request written one byte at a time with pauses: the
    /// per-frame idle budget must close the connection instead of pinning
    /// a worker.
    SlowLoris,
    /// A valid request whose connection drops before reading the reply:
    /// the server must absorb the broken pipe.
    MidRequestDisconnect,
}

/// All abuse shapes, in the order the generator indexes them.
pub const ABUSES: [Abuse; 6] = [
    Abuse::MalformedJson,
    Abuse::TruncatedFrame,
    Abuse::OversizedFrame,
    Abuse::BinaryGarbage,
    Abuse::SlowLoris,
    Abuse::MidRequestDisconnect,
];

impl Abuse {
    /// Stable lowercase token (campaign reports, logs).
    pub fn name(self) -> &'static str {
        match self {
            Abuse::MalformedJson => "malformed_json",
            Abuse::TruncatedFrame => "truncated_frame",
            Abuse::OversizedFrame => "oversized_frame",
            Abuse::BinaryGarbage => "binary_garbage",
            Abuse::SlowLoris => "slow_loris",
            Abuse::MidRequestDisconnect => "mid_request_disconnect",
        }
    }
}

/// A deterministic fuzz campaign plan: `rounds` abuse rounds derived from
/// `seed`, each pairing an [`Abuse`] with a payload variant index.
#[derive(Clone, Debug)]
pub struct FuzzPlan {
    /// The seed the plan was derived from (for replay).
    pub seed: u64,
    /// One `(abuse, variant)` per round.
    pub rounds: Vec<(Abuse, u64)>,
}

impl FuzzPlan {
    /// Derives the campaign plan. Every abuse shape appears at least once
    /// when `rounds >= ABUSES.len()` (the first `ABUSES.len()` rounds
    /// cycle through all shapes; later rounds are random draws).
    pub fn seeded(seed: u64, rounds: usize) -> FuzzPlan {
        let mut rng = Xorshift64::new(seed);
        let rounds = (0..rounds)
            .map(|i| {
                let abuse = if i < ABUSES.len() {
                    ABUSES[i]
                } else {
                    ABUSES[rng.next_below(ABUSES.len())]
                };
                (abuse, rng.next_u64())
            })
            .collect();
        FuzzPlan { seed, rounds }
    }
}

/// Renders the malformed payload for one round. Pure in
/// `(abuse, variant, limits)` so campaigns replay byte-exactly.
pub fn abuse_bytes(abuse: Abuse, variant: u64, limits: &ServeLimits) -> Vec<u8> {
    let mut rng = Xorshift64::new(variant);
    match abuse {
        Abuse::MalformedJson => {
            let broken = [
                "{\"query\":\"plan\",",
                "{\"query\":plan}",
                "{]",
                "}{",
                "{\"query\":\"plan\"\"stencil\":\"jacobi3d\"}",
                "nul",
                "[{},",
                "{\"a\":1e}",
            ];
            let mut b = broken[rng.next_below(broken.len())].as_bytes().to_vec();
            b.push(b'\n');
            b
        }
        Abuse::TruncatedFrame => {
            let full = "{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":200}";
            let cut = 1 + rng.next_below(full.len() - 1);
            full.as_bytes()[..cut].to_vec()
        }
        Abuse::OversizedFrame => {
            // One byte past the cap is enough; padding inside a syntactically
            // plausible object makes sure rejection happens on size, not shape.
            let n = limits.max_frame_bytes + 1 + rng.next_below(64);
            let mut b = Vec::with_capacity(n + 16);
            b.extend_from_slice(b"{\"pad\":\"");
            while b.len() < n {
                b.push(b'a' + u8::try_from(rng.next_below(26)).expect("26 < 256"));
            }
            b.extend_from_slice(b"\"}\n");
            b
        }
        Abuse::BinaryGarbage => {
            let n = 8 + rng.next_below(120);
            let mut b: Vec<u8> = (0..n)
                .map(|_| {
                    // Any byte but '\n' (0x0a), so the garbage stays one frame.
                    let x = u8::try_from(rng.next_u64() & 0xff).expect("masked to 8 bits");
                    if x == b'\n' {
                        0xff
                    } else {
                        x
                    }
                })
                .collect();
            b.push(b'\n');
            b
        }
        Abuse::SlowLoris | Abuse::MidRequestDisconnect => {
            b"{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":200}\n".to_vec()
        }
    }
}

/// Outcome of one fuzz campaign.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Abuse rounds executed.
    pub rounds: usize,
    /// Per-round `(abuse name, reply or "<closed>")` observations.
    pub observations: Vec<(String, String)>,
    /// Human-readable failures; empty means the campaign passed.
    pub failures: Vec<String>,
}

impl FuzzReport {
    /// True when every round and every post-abuse probe passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("fuzz: connect {addr}: {e}"))?;
    let _ = s.set_nodelay(true);
    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = s.set_write_timeout(Some(Duration::from_secs(10)));
    Ok(s)
}

/// Sends one line and reads one reply line (client-side helper shared by
/// the campaign and its probes).
fn roundtrip(addr: &str, line: &str) -> Result<String, String> {
    let mut s = connect(addr)?;
    s.write_all(line.as_bytes())
        .and_then(|()| s.write_all(b"\n"))
        .map_err(|e| format!("fuzz: write: {e}"))?;
    let mut reply = String::new();
    BufReader::new(&mut s)
        .read_line(&mut reply)
        .map_err(|e| format!("fuzz: read: {e}"))?;
    Ok(reply.trim_end().to_string())
}

fn health(addr: &str) -> Result<Json, String> {
    let reply = roundtrip(addr, "{\"cmd\":\"health\"}")?;
    json::parse(&reply).map_err(|e| format!("fuzz: health reply unparseable ({e}): {reply}"))
}

/// Reads `conns_active` from a health reply.
fn active_conns(h: &Json) -> u64 {
    h.get("conns_active")
        .and_then(Json::as_f64)
        .map_or(0, |v| v as u64)
}

/// Polls health until `conns_active` returns to `baseline` (the abuse
/// connection itself is gone by the time its reply is read, but thread
/// teardown and slot release may trail by a scheduler quantum).
fn settle(addr: &str, baseline: u64, report: &mut FuzzReport, what: &str) {
    for _ in 0..200 {
        match health(addr) {
            Ok(h) if active_conns(&h) <= baseline => return,
            Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                report
                    .failures
                    .push(format!("{what}: health probe failed: {e}"));
                return;
            }
        }
    }
    report.failures.push(format!(
        "{what}: conns_active never settled back to {baseline}"
    ));
}

/// Executes one abuse round against `addr` and returns what the server
/// replied (`"<closed>"` when the connection closed without a reply,
/// which is the correct outcome for several shapes).
fn run_round(
    addr: &str,
    abuse: Abuse,
    variant: u64,
    limits: &ServeLimits,
) -> Result<String, String> {
    let bytes = abuse_bytes(abuse, variant, limits);
    let mut s = connect(addr)?;
    match abuse {
        Abuse::SlowLoris => {
            // Byte-at-a-time with pauses; the per-frame idle budget must
            // cut us off, observed as a write error or an EOF on read.
            let pause = limits.conn_idle / 8;
            for b in &bytes {
                if s.write_all(std::slice::from_ref(b)).is_err() {
                    return Ok("<closed>".to_string());
                }
                std::thread::sleep(pause);
            }
        }
        Abuse::MidRequestDisconnect => {
            let _ = s.write_all(&bytes);
            drop(s); // vanish before the reply
            return Ok("<closed>".to_string());
        }
        _ => {
            if s.write_all(&bytes).is_err() {
                // An oversized write can already hit a server-side close.
                return Ok("<closed>".to_string());
            }
        }
    }
    if abuse == Abuse::TruncatedFrame {
        // Half a frame and gone: correctness is "no reply, no leak".
        drop(s);
        return Ok("<closed>".to_string());
    }
    let mut reply = String::new();
    match BufReader::new(&mut s).read_line(&mut reply) {
        Ok(0) => Ok("<closed>".to_string()),
        Ok(_) => Ok(reply.trim_end().to_string()),
        Err(_) => Ok("<closed>".to_string()),
    }
}

/// Runs a full deterministic abuse campaign against a live server at
/// `addr` (TCP). `limits` must match the server's configuration (the
/// oversized generator and the slow-loris pacing derive from it).
///
/// The campaign: record the baseline (`health` + one well-formed probe
/// request), then for each round throw the abuse, assert the typed reply
/// shape, re-probe (byte-identical cached answer), and wait for the
/// admission gauge to settle back to baseline.
pub fn campaign(addr: &str, limits: &ServeLimits, seed: u64, rounds: usize) -> FuzzReport {
    let plan = FuzzPlan::seeded(seed, rounds);
    let mut report = FuzzReport::default();
    let probe = "{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":333}";
    let baseline_health = match health(addr) {
        Ok(h) => h,
        Err(e) => {
            report.failures.push(format!("baseline health: {e}"));
            return report;
        }
    };
    let baseline_conns = active_conns(&baseline_health);
    let golden_probe = match roundtrip(addr, probe) {
        Ok(r) => r,
        Err(e) => {
            report.failures.push(format!("baseline probe: {e}"));
            return report;
        }
    };
    if json::parse(&golden_probe).is_err() {
        report
            .failures
            .push(format!("baseline probe reply unparseable: {golden_probe}"));
        return report;
    }
    settle(addr, baseline_conns, &mut report, "baseline");
    for (i, &(abuse, variant)) in plan.rounds.iter().enumerate() {
        let what = format!("round {i} ({})", abuse.name());
        let observed = match run_round(addr, abuse, variant, limits) {
            Ok(o) => o,
            Err(e) => {
                report.failures.push(format!("{what}: {e}"));
                continue;
            }
        };
        // Whatever came back must be a single JSON object with the typed
        // error code the shape calls for — or a clean close.
        let expect_code = match abuse {
            Abuse::MalformedJson | Abuse::BinaryGarbage => Some("bad_request"),
            Abuse::OversizedFrame => Some("frame_too_large"),
            Abuse::TruncatedFrame | Abuse::SlowLoris | Abuse::MidRequestDisconnect => None,
        };
        if observed == "<closed>" {
            if let Some(code) = expect_code {
                report.failures.push(format!(
                    "{what}: expected a typed '{code}' reply, got a close"
                ));
            }
        } else {
            match json::parse(&observed) {
                Err(e) => report
                    .failures
                    .push(format!("{what}: reply unparseable ({e}): {observed}")),
                Ok(v) => {
                    let code = v.get("code").and_then(Json::as_str);
                    if let Some(expect) = expect_code {
                        if code != Some(expect) {
                            report
                                .failures
                                .push(format!("{what}: expected code '{expect}', got: {observed}"));
                        }
                    } else if v.get("ev").and_then(Json::as_str) != Some("error") {
                        report
                            .failures
                            .push(format!("{what}: unexpected non-error reply: {observed}"));
                    }
                }
            }
        }
        report
            .observations
            .push((abuse.name().to_string(), observed));
        // The server must still answer, with the exact cached bytes.
        match roundtrip(addr, probe) {
            Ok(r) if r == golden_probe => {}
            Ok(r) => report.failures.push(format!(
                "{what}: probe reply diverged after abuse:\n  golden: {golden_probe}\n  got:    {r}"
            )),
            Err(e) => report.failures.push(format!("{what}: probe failed: {e}")),
        }
        settle(addr, baseline_conns, &mut report, &what);
        report.rounds += 1;
    }
    if report.passed() {
        obs::info(&format!(
            "fuzz campaign passed: {} rounds, seed {}",
            report.rounds, plan.seed
        ));
    } else {
        for f in &report.failures {
            obs::error(&format!("fuzz: {f}"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_cover_every_shape() {
        let a = FuzzPlan::seeded(7, 16);
        let b = FuzzPlan::seeded(7, 16);
        assert_eq!(a.rounds, b.rounds);
        for abuse in ABUSES {
            assert!(
                a.rounds.iter().any(|&(x, _)| x == abuse),
                "{} missing from plan",
                abuse.name()
            );
        }
        let c = FuzzPlan::seeded(8, 16);
        assert_ne!(a.rounds, c.rounds, "seed must matter");
    }

    #[test]
    fn abuse_payloads_are_pure_in_their_inputs() {
        let limits = ServeLimits {
            max_frame_bytes: 256,
            ..ServeLimits::default()
        };
        for abuse in ABUSES {
            let x = abuse_bytes(abuse, 99, &limits);
            let y = abuse_bytes(abuse, 99, &limits);
            assert_eq!(x, y, "{} must be deterministic", abuse.name());
        }
        let big = abuse_bytes(Abuse::OversizedFrame, 1, &limits);
        assert!(big.len() > limits.max_frame_bytes);
        let garbage = abuse_bytes(Abuse::BinaryGarbage, 5, &limits);
        assert_eq!(
            garbage.iter().filter(|&&b| b == b'\n').count(),
            1,
            "garbage must stay one frame"
        );
    }
}
