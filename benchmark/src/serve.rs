//! `serve`: the planning server under a closed loop. `serve::start` runs
//! in-process on 127.0.0.1:0 and one client on one TCP connection sends
//! the seeded request stream, waiting for each reply before sending the
//! next, as every existing caller does. The loop is closed because an
//! open loop on this host queues requests behind 100–300 ms misses and
//! its p99 does not repeat between identical runs. There is one client
//! because two on this two-core host mostly measured four threads
//! contending for two cores: p99 and throughput varied 9% between runs
//! instead of 2%.
//!
//! The stream: every 50th request (2%) carries a first-time key; the
//! others repeat a key already sent, the rank (most recent first) drawn
//! log-uniformly. New keys follow the query mix plan 70 / plan with
//! `steps: 4` 10 / advise 10 / locality (nk 30) 5 / legality 5, with
//! stencils even over jacobi3d, resid and redblack (`steps` only for the
//! two with a temporal form) and `n` over 64..=512, stratified as
//! [`KeyGen`] describes.
//!
//! Every reply must be a response and every repeat byte-identical to its
//! first serving; distinct replies must equal `api::respond` computed
//! in-process. The traced run replays the same stream through a fresh
//! `PlanService::handle_line` with no socket, which splits each round
//! trip into wire, serve overhead and planning.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tiling3d_bench::serve::{self, PlanService, ServeConfig, ServerHandle};
use tiling3d_core::api::{self, PlanRequest};
use tiling3d_grid::Xorshift64;
use tiling3d_obs::json;

use crate::common::Window;
use crate::golden;
use crate::outcome::Outcome;
use crate::stats::{percentile, Fnv};
use crate::trace::{LayerSplit, Tracer};

/// Requests sent during set-up, before timing.
const WARMUP: usize = 2_000;
/// Seed of the warm-up prefix (the rest of the stream follows `--seed`).
const WARMUP_SEED: u64 = 0x5EED;
/// Requests generated (about 30 s of traffic here); a run stops early if
/// it reaches the end. Bounded so no (query, stencil) stratum runs out of
/// sizes: the plan strata get 14/60 of the `STREAM_LEN / NEW_KEY_EVERY`
/// new keys.
const STREAM_LEN: usize = 90_000;
/// One request in this many carries a key not sent before (2%).
const NEW_KEY_EVERY: usize = 50;
/// Set-up repetitions (fresh server each); `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The five query shapes of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Query {
    Plan,
    PlanSteps,
    Advise,
    Locality,
    Legality,
}

impl Query {
    const ALL: [Query; 5] = [
        Query::Plan,
        Query::PlanSteps,
        Query::Advise,
        Query::Locality,
        Query::Legality,
    ];

    fn name(self) -> &'static str {
        match self {
            Query::Plan => "plan",
            Query::PlanSteps => "plan_steps",
            Query::Advise => "advise",
            Query::Locality => "locality",
            Query::Legality => "legality",
        }
    }
}

/// One distinct request.
struct Key {
    query: Query,
    /// The wire line, newline included.
    line: String,
}

/// The seeded request stream: distinct keys in order of first
/// appearance, and the key index of every request.
struct Stream {
    keys: Vec<Key>,
    seq: Vec<u32>,
}

impl Stream {
    /// Every `NEW_KEY_EVERY`-th request carries a new key; the others
    /// repeat a key already sent, the rank (most recent first) drawn
    /// log-uniformly. The warm-up prefix comes from its own fixed-seed
    /// generator, so set-up does the same work on every run and its
    /// replies have one golden.
    fn generate(seed: u64, len: usize) -> Stream {
        let mut warm = KeyGen::new(WARMUP_SEED);
        let mut seeded = KeyGen::new(seed);
        let mut seen: HashSet<(Query, &str, usize)> = HashSet::new();
        let mut keys: Vec<Key> = Vec::new();
        let mut seq = Vec::with_capacity(len);
        for i in 0..len {
            let gen = if i < WARMUP { &mut warm } else { &mut seeded };
            if i % NEW_KEY_EVERY == 0 {
                let (query, stencil, n) = gen.fresh(&mut seen);
                let line = match query {
                    Query::Plan => {
                        format!("{{\"query\":\"plan\",\"stencil\":\"{stencil}\",\"n\":{n}}}\n")
                    }
                    Query::PlanSteps => format!(
                        "{{\"query\":\"plan\",\"stencil\":\"{stencil}\",\"n\":{n},\"steps\":4}}\n"
                    ),
                    Query::Advise => {
                        format!("{{\"query\":\"advise\",\"stencil\":\"{stencil}\",\"n\":{n}}}\n")
                    }
                    Query::Locality => format!(
                        "{{\"query\":\"locality\",\"stencil\":\"{stencil}\",\"n\":{n},\"nk\":30}}\n"
                    ),
                    Query::Legality => {
                        format!("{{\"query\":\"legality\",\"stencil\":\"{stencil}\",\"n\":{n}}}\n")
                    }
                };
                seq.push(keys.len() as u32);
                keys.push(Key { query, line });
            } else {
                let d = keys.len();
                let rank = ((d as f64 + 1.0).powf(gen.rng.next_f64()) as usize).clamp(1, d);
                seq.push((d - rank) as u32);
            }
        }
        Stream { keys, seq }
    }

    fn line(&self, i: usize) -> &str {
        &self.keys[self.seq[i] as usize].line
    }
}

/// One block of the new-key mix: (query, stencil, keys per block). A
/// block of 60 holds plan 70% / plan with `steps` 10% / advise 10% /
/// locality 5% / legality 5%, stencils evenly within each query, and
/// `steps` only for the two stencils with a temporal form.
const MIX: [(Query, &str, usize); 14] = [
    (Query::Plan, "jacobi3d", 14),
    (Query::Plan, "resid", 14),
    (Query::Plan, "redblack", 14),
    (Query::PlanSteps, "jacobi3d", 3),
    (Query::PlanSteps, "redblack", 3),
    (Query::Advise, "jacobi3d", 2),
    (Query::Advise, "resid", 2),
    (Query::Advise, "redblack", 2),
    (Query::Locality, "jacobi3d", 1),
    (Query::Locality, "resid", 1),
    (Query::Locality, "redblack", 1),
    (Query::Legality, "jacobi3d", 1),
    (Query::Legality, "resid", 1),
    (Query::Legality, "redblack", 1),
];

/// New keys, stratified so that every run plans nearly the same work:
/// each block of 60 holds the exact mix in a seeded order, and each
/// (query, stencil) stratum walks `n` over 64..=512 by golden-ratio
/// steps from a seeded start, covering the range evenly at any length.
/// Planning cost depends mostly on the query and `n`, so unstratified
/// draws made the planning work, and with it throughput, vary by seed.
struct KeyGen {
    rng: Xorshift64,
    block: Vec<usize>,
    phase: [f64; MIX.len()],
}

impl KeyGen {
    fn new(seed: u64) -> KeyGen {
        let mut rng = Xorshift64::new(seed);
        let phase = std::array::from_fn(|_| rng.next_f64());
        KeyGen {
            rng,
            block: Vec::new(),
            phase,
        }
    }

    /// The next key not in `seen` (which it joins).
    fn fresh(
        &mut self,
        seen: &mut HashSet<(Query, &'static str, usize)>,
    ) -> (Query, &'static str, usize) {
        if self.block.is_empty() {
            self.block = MIX
                .iter()
                .enumerate()
                .flat_map(|(s, &(_, _, count))| std::iter::repeat_n(s, count))
                .collect();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.next_below(i + 1));
            }
        }
        let s = self.block.pop().expect("refilled above");
        let (query, stencil, _) = MIX[s];
        // A stratum holds 449 sizes and `STREAM_LEN` sends at most ~430
        // keys from the largest, so a free size is always found.
        (0..100_000)
            .find_map(|_| {
                self.phase[s] = (self.phase[s] + GOLDEN).fract();
                let n = 64 + (self.phase[s] * 449.0) as usize;
                seen.insert((query, stencil, n))
                    .then_some((query, stencil, n))
            })
            .expect("STREAM_LEN keeps every stratum below its 449 sizes")
    }
}

/// The fractional golden ratio: the step of the even-coverage sequence.
const GOLDEN: f64 = 0.618_033_988_749_895;

/// The client connection and what it has seen.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// First reply per key index.
    first: HashMap<u32, String>,
    /// `(request index, sent at, round trip)` of the timed requests.
    rtt: Vec<(usize, Instant, Duration)>,
    /// Replies that were errors or differed from the key's first serving.
    bad: Vec<String>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            first: HashMap::new(),
            rtt: Vec::new(),
            bad: Vec::new(),
        })
    }

    /// Sends requests `from..end` in order, each after the previous
    /// reply, until `end` or until the window closes; returns the index
    /// of the first request not sent.
    fn drive(
        &mut self,
        stream: &Stream,
        from: usize,
        end: usize,
        window: Option<Window>,
    ) -> std::io::Result<usize> {
        let mut reply = String::new();
        for i in from..end {
            if window.is_some_and(|w| !w.fits(0.0)) {
                return Ok(i);
            }
            reply.clear();
            let t0 = Instant::now();
            self.writer.write_all(stream.line(i).as_bytes())?;
            self.reader.read_line(&mut reply)?;
            if window.is_some() {
                self.rtt.push((i, t0, t0.elapsed()));
            }
            let key = stream.seq[i];
            let body = reply.trim_end();
            if !body.starts_with("{\"ev\":\"response\"") {
                self.bad.push(format!("request {i}: {body}"));
            } else if let Some(prev) = self.first.get(&key) {
                if prev != body {
                    self.bad.push(format!(
                        "request {i}: reply differs from the key's first serving"
                    ));
                }
            } else {
                self.first.insert(key, body.to_string());
            }
        }
        Ok(end)
    }
}

/// Starts a server, connects the client and sends the warm-up prefix.
fn start(stream: &Stream, tracer: &Tracer, parent: u64) -> Result<(ServerHandle, Client), String> {
    let (handle, mut client) = {
        let _s = tracer.span("serve.start", parent);
        let handle = serve::start(ServeConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        })?;
        let addr = handle.tcp_addr().ok_or("server has no TCP address")?;
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        (handle, client)
    };
    let _s = tracer.span("serve.warmup", parent);
    match client.drive(stream, 0, WARMUP, None) {
        Ok(_) => Ok((handle, client)),
        Err(e) => {
            stop(handle, client);
            Err(format!("warm-up: {e}"))
        }
    }
}

/// Moves the client's bad replies into `out` as failures (the first five
/// of them as problem lines).
fn count_bad(out: &mut Outcome, client: &mut Client) {
    out.failed += client.bad.len() as u64;
    out.problems.extend(client.bad.drain(..).take(5));
}

fn stop(handle: ServerHandle, client: Client) {
    drop(client);
    handle.request_shutdown();
    handle.wait();
}

/// Runs the workload for about `seconds` of closed-loop traffic.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        tail_pct: 99.0,
        ..Outcome::default()
    };
    let stream = Stream::generate(seed, STREAM_LEN);

    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some((handle, mut client)) = server.take() {
            count_bad(&mut out, &mut client);
            stop(handle, client);
        }
        let t0 = Instant::now();
        let root = tracer.span("bench.setup", 0);
        let started = start(&stream, tracer, root.id());
        drop(root);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += WARMUP as u64;
        match started {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.fail(WARMUP as u64, format!("serve set-up: {e}"));
                return out;
            }
        }
    }
    let setup_spans = tracer.spans();
    let (handle, mut client) = server.expect("at least one set-up repetition ran");

    let window = Window::open(seconds);
    let driven = client.drive(&stream, WARMUP, stream.seq.len(), Some(window));
    out.wall_s = window.elapsed();
    let end = match driven {
        Ok(end) => end,
        Err(e) => {
            out.fail(1, format!("serve: {e}"));
            stop(handle, client);
            return out;
        }
    };
    out.attempted += (end - WARMUP) as u64;
    count_bad(&mut out, &mut client);
    let served = std::mem::take(&mut client.first);
    let rtt = std::mem::take(&mut client.rtt);
    out.op_s = rtt.iter().map(|r| r.2.as_secs_f64()).collect();
    stop(handle, client);

    let warm_keys = stream.seq[..WARMUP].iter().max().map_or(0, |&m| m + 1);
    let mut digest = Fnv::default();
    for k in 0..warm_keys {
        digest.write(served.get(&k).map_or(&b""[..], |r| r.as_bytes()));
    }
    let checks = golden::expect(golden::SERVE, "distinct", &warm_keys.to_string())
        .and_then(|()| golden::expect(golden::SERVE, "digest", &golden::hex(digest.finish())));
    if let Err(e) = checks {
        out.fail(1, format!("serve: {e}"));
    }

    // Reference: distinct replies equal `api::respond` in-process. A
    // traced run needs every key's planning time, so it checks them all;
    // an untraced run checks every eighth key, since re-planning all of
    // them costs as long as the timed window.
    let mut respond_s: HashMap<u32, f64> = HashMap::new();
    let mut keys: Vec<u32> = served
        .keys()
        .copied()
        .filter(|k| tracer.on() || k % 8 == 0)
        .collect();
    keys.sort_unstable();
    for k in keys {
        let key = &stream.keys[k as usize];
        let req = json::parse(key.line.trim_end()).and_then(|v| PlanRequest::from_json(&v));
        let t0 = Instant::now();
        let reply = {
            let _s = tracer.span(&format!("core.respond:{}", key.query.name()), 0);
            req.and_then(|r| api::respond_enveloped(&r))
        };
        respond_s.insert(k, t0.elapsed().as_secs_f64());
        match reply {
            Ok(r) if r == served[&k] => {}
            Ok(_) => out.fail(
                1,
                format!("key {k}: served reply differs from api::respond"),
            ),
            Err(e) => out.fail(1, format!("key {k}: {e}")),
        }
    }

    if tracer.on() {
        for &(_, sent, d) in &rtt {
            tracer.record("wire.rtt", 0, sent, d);
        }
        attribute(&mut out, &stream, &served, &respond_s, &rtt, end);
        let spans = tracer.spans();
        out.setup_split = Some(LayerSplit::from_spans(
            out.setup_s.iter().sum(),
            &setup_spans,
        ));
        out.spans = spans;
    }
    out
}

/// Replays requests `[0, end)` through a fresh in-process service and
/// splits the timed round trips into planning (`core`), serve overhead
/// (`serve`) and everything between client and handler (`wire`).
fn attribute(
    out: &mut Outcome,
    stream: &Stream,
    served: &HashMap<u32, String>,
    respond_s: &HashMap<u32, f64>,
    rtt: &[(usize, Instant, Duration)],
    end: usize,
) {
    let service = match PlanService::open(0, None, false) {
        Ok(s) => s,
        Err(e) => {
            out.fail(1, format!("serve replay: {e}"));
            return;
        }
    };
    let mut handle_s = vec![0.0; end];
    let mut miss = vec![false; end];
    let mut seen: HashSet<u32> = HashSet::new();
    for i in 0..end {
        let key = stream.seq[i];
        miss[i] = seen.insert(key);
        let t0 = Instant::now();
        let h = service.handle_line(stream.line(i).trim_end());
        handle_s[i] = t0.elapsed().as_secs_f64();
        if served.get(&key).is_some_and(|r| r != h.reply()) {
            out.fail(
                1,
                format!("request {i}: replay reply differs from the served one"),
            );
        }
    }

    let (mut core, mut serve, mut wire) = (0.0, 0.0, 0.0);
    let (mut hit_us, mut miss_ms, mut over_us, mut wire_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(i, _, d) in rtt {
        let rt = d.as_secs_f64();
        let respond = respond_s.get(&stream.seq[i]).copied().unwrap_or(0.0);
        // Each round trip splits exactly into its three parts. The
        // in-process handle and respond times are separate measurements
        // of the same work, so each is clamped to the part it splits.
        let handle = handle_s[i].min(rt);
        let plan = if miss[i] { respond.min(handle) } else { 0.0 };
        core += plan;
        serve += handle - plan;
        wire += rt - handle;
        if miss[i] {
            miss_ms.push(handle_s[i] * 1e3);
            over_us.push((handle_s[i] - respond) * 1e6);
        } else {
            hit_us.push(handle_s[i] * 1e6);
            wire_us.push((rt - handle_s[i]) * 1e6);
        }
    }
    let mut split = LayerSplit {
        end_to_end_s: out.wall_s,
        ..LayerSplit::default()
    };
    split.add("core", core);
    split.add("serve", serve);
    split.add("wire", wire);
    out.split = Some(split);

    let hits = hit_us.len() as f64;
    out.layer_values = vec![("serve_hit_ratio", hits / rtt.len() as f64)];
    out.detail.extend([
        (
            "serve.handle_us_p50.hit".to_string(),
            percentile(&hit_us, 50.0),
            "us",
        ),
        (
            "serve.handle_us_p99.hit".to_string(),
            percentile(&hit_us, 99.0),
            "us",
        ),
        (
            "serve.handle_ms_p50.miss".to_string(),
            percentile(&miss_ms, 50.0),
            "ms",
        ),
        (
            "serve.handle_ms_p99.miss".to_string(),
            percentile(&miss_ms, 99.0),
            "ms",
        ),
        (
            "serve.overhead_us_p50.miss".to_string(),
            percentile(&over_us, 50.0),
            "us",
        ),
        (
            "serve.wire_us_p50".to_string(),
            percentile(&wire_us, 50.0),
            "us",
        ),
        (
            "serve.hit_ratio".to_string(),
            hits / rtt.len() as f64,
            "fraction",
        ),
        ("serve.errors".to_string(), out.failed as f64, "count"),
    ]);
    for q in Query::ALL {
        let ms: Vec<f64> = respond_s
            .iter()
            .filter(|(k, _)| stream.keys[**k as usize].query == q)
            .map(|(_, s)| s * 1e3)
            .collect();
        out.detail.extend([
            (
                format!("core.respond_ms_p50.{}", q.name()),
                percentile(&ms, 50.0),
                "ms",
            ),
            (
                format!("core.respond_ms_p99.{}", q.name()),
                percentile(&ms, 99.0),
                "ms",
            ),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_after_a_fixed_warm_up_and_repeats_only_sent_keys() {
        let a = Stream::generate(7, 5_000);
        let b = Stream::generate(7, 5_000);
        assert_eq!(a.seq, b.seq);
        let c = Stream::generate(8, 5_000);
        assert_eq!(a.seq[..WARMUP], c.seq[..WARMUP]);
        assert_ne!(a.seq, c.seq);
        let mut next_new = 0u32;
        for &k in &a.seq {
            assert!(k <= next_new, "key {k} repeated before it was sent");
            if k == next_new {
                next_new += 1;
            }
        }
        assert_eq!(a.keys.len(), a.seq.len() / NEW_KEY_EVERY);
        // resid has no temporal form, so it never carries `steps`.
        assert!(a
            .keys
            .iter()
            .all(|k| !(k.query == Query::PlanSteps && k.line.contains("resid"))));
    }

    #[test]
    fn every_block_of_new_keys_holds_the_exact_mix() {
        let s = Stream::generate(11, STREAM_LEN);
        // The seeded generator's blocks start after the warm-up keys.
        let first = WARMUP / NEW_KEY_EVERY;
        for block in s.keys[first..].chunks_exact(60) {
            for q in Query::ALL {
                let want: usize = MIX.iter().filter(|m| m.0 == q).map(|m| m.2).sum();
                assert_eq!(block.iter().filter(|k| k.query == q).count(), want);
            }
        }
    }

    #[test]
    fn every_generated_line_is_a_valid_request() {
        let s = Stream::generate(3, 3_000);
        for k in &s.keys {
            let v = json::parse(k.line.trim_end()).unwrap();
            PlanRequest::from_json(&v).unwrap();
        }
    }
}
