//! Integration tests for the planning server (DESIGN.md §16/§18):
//! concurrent bit-identity, warm-start persistence across a
//! kill-and-restart, corruption quarantine, the batch endpoint, the
//! unix-socket transport, admission control, and graceful drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use tiling3d_bench::serve::{self, PlanService, ServeConfig, ServeLimits};
use tiling3d_grid::Xorshift64;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tiling3d-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// One round trip on an already-connected stream.
fn roundtrip<S: std::io::Read + Write>(stream: &mut S, line: &str) -> String {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reply = String::new();
    // A fresh BufReader per call would swallow buffered bytes; callers in
    // these tests send one line per call, so read_line directly.
    let mut reader = BufReader::new(stream);
    reader.read_line(&mut reply).unwrap();
    assert!(reply.ends_with('\n'), "reply not newline-terminated");
    reply.trim_end().to_string()
}

/// A spread of distinct requests across query kinds and sizes.
fn request_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for n in [48usize, 96, 200] {
        lines.push(format!(
            "{{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":{n}}}"
        ));
        lines.push(format!(
            "{{\"query\":\"advise\",\"stencil\":\"jacobi3d\",\"n\":{n}}}"
        ));
        lines.push(format!(
            "{{\"query\":\"legality\",\"kernel\":\"redblack\",\"n\":{n}}}"
        ));
    }
    lines.push("{\"query\":\"euc3d\",\"stencil\":\"jacobi3d\",\"n\":341}".to_string());
    lines.push("{\"query\":\"temporal-legality\",\"kernel\":\"jacobi\"}".to_string());
    lines.push("{\"query\":\"locality\",\"kernel\":\"jacobi\",\"n\":48,\"nk\":6}".to_string());
    lines
}

/// Ground truth: a fresh single-threaded cold-cache service answering the
/// same lines.
fn cold_answers(lines: &[String]) -> Vec<String> {
    let svc = PlanService::open(1, None, false).unwrap();
    lines
        .iter()
        .map(|l| svc.handle_line(l).reply().to_string())
        .collect()
}

#[test]
fn eight_concurrent_clients_get_bit_identical_answers() {
    let lines = request_lines();
    let expected = cold_answers(&lines);
    let handle = serve::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.tcp_addr().unwrap();

    // 8 clients, each sending every request in a different rotation so
    // hits and misses interleave across threads and shards.
    let workers: Vec<_> = (0..8)
        .map(|w| {
            let lines = lines.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                for i in 0..lines.len() {
                    let idx = (i + w * 3) % lines.len();
                    let reply = roundtrip(&mut stream, &lines[idx]);
                    assert_eq!(
                        reply, expected[idx],
                        "concurrent serving of {} diverged from the cold answer",
                        lines[idx]
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let stats = &handle.service().stats;
    let hits = stats.hits.load(std::sync::atomic::Ordering::Relaxed);
    let misses = stats.misses.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(hits + misses, 8 * lines.len() as u64);
    // Benign same-key races may plan twice, but memoization must absorb
    // the vast majority of the 8x duplication.
    assert!(hits > misses, "hits {hits} <= misses {misses}");
    handle.request_shutdown();
    handle.wait();
}

#[test]
fn warm_start_survives_a_kill_and_restart_byte_exactly() {
    let warm = tmp("warm.jsonl");
    std::fs::remove_file(&warm).ok();
    let lines = request_lines();

    // First life: cold server, every answer misses and is persisted.
    let first: Vec<String> = {
        let svc = PlanService::open(2, Some(&warm), false).unwrap();
        lines
            .iter()
            .map(|l| svc.handle_line(l).reply().to_string())
            .collect()
        // Dropped without any orderly shutdown: the log is flushed per
        // line, so this models a kill.
    };
    let file_after_first = std::fs::read(&warm).unwrap();

    // Second life: resume. Every request must hit and serve the exact
    // stored bytes without re-planning.
    let svc = PlanService::open(2, Some(&warm), true).unwrap();
    assert_eq!(svc.entries(), lines.len());
    for (line, expected) in lines.iter().zip(&first) {
        assert_eq!(svc.handle_line(line).reply(), expected);
    }
    assert_eq!(
        svc.stats.misses.load(std::sync::atomic::Ordering::Relaxed),
        0,
        "warm-started service must not re-plan"
    );
    assert_eq!(
        svc.stats.hits.load(std::sync::atomic::Ordering::Relaxed),
        lines.len() as u64
    );
    drop(svc);

    // Serving hits appends nothing: the file round-trips byte-exactly.
    assert_eq!(std::fs::read(&warm).unwrap(), file_after_first);
    std::fs::remove_file(&warm).ok();
}

/// A zero cache and a locality query with no interior plane (`nk < 3`)
/// are client errors: typed `bad_request` replies, neither memoized nor
/// appended to the warm-start file.
#[test]
fn unusable_cache_and_thin_locality_requests_are_rejected_uncached() {
    let warm = tmp("reject-warm.jsonl");
    std::fs::remove_file(&warm).ok();
    let svc = PlanService::open(2, Some(&warm), false).unwrap();
    for line in [
        r#"{"query":"plan","stencil":"jacobi3d","n":200,"cache_kb":0}"#,
        r#"{"query":"locality","kernel":"jacobi","n":48,"nk":2}"#,
    ] {
        let reply = svc.handle_line(line).reply().to_string();
        assert!(
            reply.starts_with(r#"{"ev":"error","code":"bad_request""#),
            "{line}: {reply}"
        );
        assert_eq!(svc.entries(), 0, "{line}: the reply was memoized");
    }
    drop(svc);
    let resumed = PlanService::open(2, Some(&warm), true).unwrap();
    assert_eq!(resumed.entries(), 0, "a rejected reply was persisted");
    std::fs::remove_file(&warm).ok();
}

#[test]
fn warm_start_tolerates_a_torn_tail() {
    let warm = tmp("torn.jsonl");
    std::fs::remove_file(&warm).ok();
    let line = "{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":128}";
    let expected = {
        let svc = PlanService::open(1, Some(&warm), false).unwrap();
        svc.handle_line(line).reply().to_string()
    };
    // A kill mid-append leaves a torn trailing line.
    let mut bytes = std::fs::read(&warm).unwrap();
    bytes.extend_from_slice(b"{\"ev\":\"cached_pl");
    std::fs::write(&warm, &bytes).unwrap();

    let svc = PlanService::open(1, Some(&warm), true).unwrap();
    assert_eq!(svc.entries(), 1, "intact record survives the torn tail");
    assert_eq!(svc.handle_line(line).reply(), expected);
    assert_eq!(svc.stats.hits.load(std::sync::atomic::Ordering::Relaxed), 1);
    std::fs::remove_file(&warm).ok();
}

#[test]
fn batch_members_are_byte_identical_to_single_servings_over_tcp() {
    let handle = serve::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(handle.tcp_addr().unwrap()).unwrap();
    stream.set_nodelay(true).unwrap();

    let a = "{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":96}";
    let b = "{\"query\":\"advise\",\"stencil\":\"jacobi3d\",\"n\":300}";
    let single_a = roundtrip(&mut stream, a);
    let single_b = roundtrip(&mut stream, b);
    let batch = roundtrip(&mut stream, &format!("[{a},{b}]"));
    assert_eq!(
        batch,
        format!("{{\"ev\":\"batch_response\",\"count\":2,\"results\":[{single_a},{single_b}]}}")
    );
    handle.request_shutdown();
    handle.wait();
}

#[test]
fn unix_socket_serves_the_same_bytes_as_tcp() {
    let sock = tmp("serve.sock");
    std::fs::remove_file(&sock).ok();
    let handle = serve::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        unix: Some(sock.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let line = "{\"query\":\"plan\",\"stencil\":\"redblack\",\"n\":200}";

    let mut tcp = TcpStream::connect(handle.tcp_addr().unwrap()).unwrap();
    tcp.set_nodelay(true).unwrap();
    let via_tcp = roundtrip(&mut tcp, line);

    let mut unix = UnixStream::connect(handle.unix_path().unwrap()).unwrap();
    let via_unix = roundtrip(&mut unix, line);
    assert_eq!(via_tcp, via_unix);

    // A client shutdown command stops the server; wait() must return and
    // remove the socket file.
    let _ = roundtrip(&mut unix, "{\"cmd\":\"shutdown\"}");
    handle.wait();
    assert!(!sock.exists(), "socket file removed on shutdown");
}

#[test]
fn overload_sheds_exactly_the_connections_past_the_budget() {
    let handle = serve::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        limits: ServeLimits {
            max_conns: 2,
            ..ServeLimits::default()
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.tcp_addr().unwrap();
    let line = "{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":96}";

    // Fill the budget: a completed roundtrip proves each was admitted.
    let mut a = TcpStream::connect(addr).unwrap();
    let mut b = TcpStream::connect(addr).unwrap();
    let expected = roundtrip(&mut a, line);
    assert_eq!(roundtrip(&mut b, line), expected);

    // The max_conns+1'th client gets exactly one typed overloaded reply
    // and then EOF — no hang, no silent drop.
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(&mut c);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.contains("\"code\":\"overloaded\""),
        "expected a typed overloaded reply, got: {reply}"
    );
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap(),
        0,
        "shed connection must close after the reply"
    );

    // Releasing one admitted connection frees its slot; a new client is
    // admitted and served the byte-identical cached answer.
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let served = loop {
        let mut d = TcpStream::connect(addr).unwrap();
        d.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reply = roundtrip(&mut d, line);
        if reply == expected {
            break true;
        }
        assert!(
            reply.contains("\"code\":\"overloaded\""),
            "unexpected reply while slot released: {reply}"
        );
        assert!(
            std::time::Instant::now() < deadline,
            "slot never released after client disconnect"
        );
        thread::sleep(Duration::from_millis(10));
    };
    assert!(served);
    let shed = handle
        .service()
        .gauges()
        .shed
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(shed >= 1, "shed counter must record the rejection");
    handle.request_shutdown();
    handle.wait();
}

#[test]
fn drain_flushes_in_flight_replies_byte_identically() {
    let lines = request_lines();
    let expected = cold_answers(&lines);
    let n = lines.len();
    let handle = serve::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.tcp_addr().unwrap();

    // N clients, one request each, all written before shutdown.
    let workers: Vec<_> = lines
        .iter()
        .cloned()
        .zip(expected.iter().cloned())
        .map(|(line, want)| {
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                let reply = roundtrip(&mut stream, &line);
                assert_eq!(reply, want, "drained reply for {line} diverged");
            })
        })
        .collect();

    // Gate on the request counter (incremented when processing *starts*,
    // after the draining check): once it reads N, every request above was
    // admitted into compute before the drain flips, so all N replies must
    // flush byte-identically.
    let stats = &handle.service().stats;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while stats.requests.load(std::sync::atomic::Ordering::Relaxed) < n as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "requests never started"
        );
        thread::sleep(Duration::from_millis(1));
    }
    handle.request_shutdown();
    for w in workers {
        w.join().expect("drained client thread");
    }

    // A request arriving after the drain began gets a typed reply (either
    // `draining` from an admitted connection or a connection refused once
    // the listener is gone), never a hang.
    if let Ok(mut late) = TcpStream::connect(addr) {
        late.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        late.write_all(b"{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":48}\n")
            .and_then(|()| late.flush())
            .ok();
        let mut reply = String::new();
        let _ = BufReader::new(&mut late).read_line(&mut reply);
        if !reply.is_empty() {
            assert!(
                reply.contains("\"code\":\"draining\""),
                "late request must observe draining, got: {reply}"
            );
        }
    }
    handle.wait();
}

#[test]
fn warm_start_quarantines_corruption_and_always_boots() {
    let lines = request_lines();
    let pristine_path = tmp("corrupt-src.jsonl");
    std::fs::remove_file(&pristine_path).ok();
    let expected: Vec<String> = {
        let svc = PlanService::open(2, Some(&pristine_path), false).unwrap();
        lines
            .iter()
            .map(|l| svc.handle_line(l).reply().to_string())
            .collect()
    };
    let pristine = std::fs::read(&pristine_path).unwrap();
    std::fs::remove_file(&pristine_path).ok();
    assert!(pristine.len() > 256, "warm file too small to corrupt");

    // Corrupt one byte at several offsets: inside the header, early,
    // mid-file, and late, then five seeded ones (never the final
    // newline). Every case must boot, quarantine (or shed a torn tail),
    // and then re-serve every request byte-identically.
    let mut offsets = vec![
        8,
        pristine.len() / 4,
        pristine.len() / 2,
        (pristine.len() * 3) / 4,
        pristine.len() - 2,
    ];
    let mut rng = Xorshift64::new(42 | 1);
    offsets.extend((0..5).map(|_| 1 + rng.next_below(pristine.len() - 2)));
    for (case, &k) in offsets.iter().enumerate() {
        let path = tmp(&format!("corrupt-{case}.jsonl"));
        std::fs::remove_file(&path).ok();
        let mut bytes = pristine.clone();
        bytes[k] ^= 0x5a; // flip bits, never produce the same byte
        std::fs::write(&path, &bytes).unwrap();

        let svc = PlanService::open(2, Some(&path), true)
            .unwrap_or_else(|e| panic!("case {case} (byte {k}): boot failed: {e}"));
        assert!(
            svc.entries() < lines.len() || svc.quarantined().is_some(),
            "case {case}: corruption at byte {k} went entirely unnoticed"
        );
        for (line, want) in lines.iter().zip(&expected) {
            assert_eq!(
                svc.handle_line(line).reply(),
                want,
                "case {case}: reply diverged after corruption at byte {k}"
            );
        }
        drop(svc);
        // Clean up this case's warm file and any quarantine snapshots.
        std::fs::remove_file(&path).ok();
        for n in 1..4 {
            std::fs::remove_file(format!("{}.corrupt-{n}", path.display())).ok();
        }
    }
}

#[test]
fn failed_start_leaves_no_stale_socket_and_rebinds_cleanly() {
    let sock = tmp("stale.sock");
    std::fs::remove_file(&sock).ok();

    // Occupy a TCP port so the second bind in start() fails *after* the
    // unix socket has been bound.
    let blocker = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let blocked_addr = blocker.local_addr().unwrap().to_string();

    let err = serve::start(ServeConfig {
        tcp: Some(blocked_addr),
        unix: Some(sock.clone()),
        ..ServeConfig::default()
    });
    assert!(err.is_err(), "bind to an occupied port must fail");
    assert!(
        !sock.exists(),
        "failed start must not leave a stale socket file behind"
    );

    // Regression: the same path must bind cleanly on the next attempt.
    let handle = serve::start(ServeConfig {
        unix: Some(sock.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut unix = UnixStream::connect(handle.unix_path().unwrap()).unwrap();
    let reply = roundtrip(&mut unix, "{\"cmd\":\"ping\"}");
    assert_eq!(reply, "{\"ev\":\"pong\"}");
    let _ = roundtrip(&mut unix, "{\"cmd\":\"shutdown\"}");
    handle.wait();
    assert!(!sock.exists(), "socket file removed on shutdown");
}
