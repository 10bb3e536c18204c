//! Protocol-fuzzer integration tests (DESIGN.md §18): the deterministic
//! abuse campaign against a live TCP server, direct frame-cap checks, and
//! a golden-schema gate over every wire reply shape the hardened layer
//! can produce.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use tiling3d_bench::fuzz::{self, abuse_bytes, Abuse, ABUSES};
use tiling3d_bench::serve::{self, PlanService, ServeConfig, ServeLimits};
use tiling3d_obs::json;
use tiling3d_obs::validate::{check_trace_str, parse_schema};

/// Small limits so slow-loris and oversized rounds finish in test time.
fn fuzz_limits() -> ServeLimits {
    ServeLimits {
        max_conns: 32,
        conn_idle: Duration::from_millis(400),
        max_frame_bytes: 4096,
        drain_deadline: Duration::from_millis(2_000),
        compute_deadline: None,
    }
}

#[test]
fn handle_line_never_panics_on_generated_garbage() {
    let svc = PlanService::open(2, None, false).unwrap();
    let limits = fuzz_limits();
    for abuse in ABUSES {
        for variant in 0..64u64 {
            let bytes = abuse_bytes(abuse, variant, &limits);
            let line = String::from_utf8_lossy(&bytes);
            for frame in line.split('\n').filter(|f| !f.is_empty()) {
                // Every reply must be one parseable JSON object — a typed
                // error or a real response — never a panic.
                let reply = svc.handle_line(frame).reply().to_string();
                assert!(
                    json::parse(&reply).is_ok(),
                    "unparseable reply to {abuse:?} variant {variant}: {reply}"
                );
            }
        }
    }
}

#[test]
fn tcp_fuzz_campaign_passes_and_leaks_no_slots() {
    let limits = fuzz_limits();
    let handle = serve::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        limits,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.tcp_addr().unwrap().to_string();

    // Seeds pinned for replay. 8 rounds cover all six abuse shapes (the
    // first six cycle through them) plus two random draws; seed 42 over
    // 12 rounds runs every shape again with other variants, plus six
    // random draws.
    for (seed, rounds) in [(0xF0CC_5EED, 8), (42, 12)] {
        let report = fuzz::campaign(&addr, &limits, seed, rounds);
        assert!(
            report.passed(),
            "fuzz campaign (seed {seed}) failed:\n{}",
            report.failures.join("\n")
        );
        assert_eq!(report.rounds, rounds);

        // After the whole campaign the slot gauge is back to zero once
        // the probes disconnect.
        let gauges = handle.service().gauges();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while gauges
            .conns_active
            .load(std::sync::atomic::Ordering::SeqCst)
            > 0
        {
            assert!(
                std::time::Instant::now() < deadline,
                "admission slots leaked after the campaign (seed {seed})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    handle.request_shutdown();
    handle.wait();
}

#[test]
fn oversized_frame_gets_a_typed_reject_and_releases_its_slot() {
    let limits = fuzz_limits();
    let handle = serve::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        limits,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.tcp_addr().unwrap();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frame = abuse_bytes(Abuse::OversizedFrame, 3, &limits);
    assert!(frame.len() > limits.max_frame_bytes);
    // The server may close mid-write once the cap trips; both outcomes
    // (reply then EOF, or just EOF) must leave the slot released.
    let wrote = s.write_all(&frame).and_then(|()| s.flush()).is_ok();
    let mut reply = String::new();
    let _ = BufReader::new(&mut s).read_line(&mut reply);
    if wrote && !reply.is_empty() {
        assert!(
            reply.contains("\"code\":\"frame_too_large\""),
            "expected typed frame_too_large, got: {reply}"
        );
    }
    drop(s);

    let gauges = handle.service().gauges();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while gauges
        .conns_active
        .load(std::sync::atomic::Ordering::SeqCst)
        > 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "oversized-frame connection leaked its slot"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        gauges
            .frame_rejects
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    // The server still serves the cached answer after the abuse.
    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .write_all(b"{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":64}\n")
        .unwrap();
    let mut ok = String::new();
    BufReader::new(&mut probe).read_line(&mut ok).unwrap();
    assert!(ok.contains("\"ev\":\"response\""), "probe failed: {ok}");
    handle.request_shutdown();
    handle.wait();
}

#[test]
fn every_hardened_wire_reply_matches_the_golden_schema() {
    let limits = ServeLimits {
        compute_deadline: Some(Duration::from_nanos(1)),
        ..ServeLimits::default()
    };
    let svc = PlanService::open_with(2, None, false, limits).unwrap();
    let mut trace = String::new();
    let mut push = |reply: &str| {
        trace.push_str(reply);
        trace.push('\n');
    };
    push(svc.handle_line("{\"cmd\":\"ping\"}").reply());
    push(svc.handle_line("{\"cmd\":\"health\"}").reply());
    push(svc.handle_line("not json").reply()); // bad_request
    push(svc.handle_line("{\"cmd\":\"nope\"}").reply()); // unknown_cmd
    push(
        svc.handle_line("{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":96}")
            .reply(),
    ); // deadline (1 ns compute budget)
    push(svc.handle_line("{\"cmd\":\"stats\"}").reply());
    // The shed/frame-reject replies are written by the transport layer,
    // not handle_line; render them via the same `wire_error` path the
    // transports use so the schema gate covers their shapes too.
    push(&serve::wire_error(
        "overloaded",
        "connection budget exhausted (2 active); retry later",
    ));
    push(&serve::wire_error(
        "frame_too_large",
        "request frame exceeds 4096 bytes",
    ));
    push(svc.handle_line("{\"cmd\":\"shutdown\"}").reply());
    push(svc.handle_line("{\"cmd\":\"health\"}").reply()); // draining state
    push(
        svc.handle_line("{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":96}")
            .reply(),
    ); // draining error

    // A no-deadline service contributes the success shapes.
    let ok = PlanService::open(1, None, false).unwrap();
    push(
        ok.handle_line("{\"query\":\"plan\",\"stencil\":\"jacobi3d\",\"n\":96}")
            .reply(),
    );
    push(
        ok.handle_line("[{\"query\":\"advise\",\"stencil\":\"jacobi3d\",\"n\":300}]")
            .reply(),
    );

    let golden = parse_schema(tiling3d_core::api::GOLDEN_SCHEMA).expect("api golden schema parses");
    let report = check_trace_str(&trace, &golden);
    assert!(report.is_ok(), "{}", report.summary());
    for kind in ["health", "error", "stats", "response", "batch_response"] {
        assert!(
            report.events_by_kind.contains_key(kind),
            "missing wire kind {kind}: {:?}",
            report.events_by_kind
        );
    }
}

#[test]
fn fuzz_campaign_is_deterministic_across_runs() {
    let a = fuzz::FuzzPlan::seeded(42, 12);
    let b = fuzz::FuzzPlan::seeded(42, 12);
    assert_eq!(a.rounds, b.rounds);
    let limits = fuzz_limits();
    for &(abuse, variant) in &a.rounds {
        assert_eq!(
            abuse_bytes(abuse, variant, &limits),
            abuse_bytes(abuse, variant, &limits)
        );
    }
}
