//! A minimal self-calibrating micro-benchmark harness for the
//! `benches/*.rs` targets (all `harness = false`), with no external
//! dependencies.
//!
//! Each measurement warms up once, calibrates an iteration count to a
//! ~100ms sample, takes the best of a few samples (minimum wall time is
//! the standard low-noise estimator for micro-benchmarks), and reports
//! ns/iter plus an optional element-throughput rate. Results can be
//! serialized to a small JSON file so CI and successive PRs can diff
//! engine throughput (see `BENCH_cachesim.json` at the repo root).

use std::time::{Duration, Instant};

/// One completed measurement.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark label.
    pub name: String,
    /// Iterations per timed sample (after calibration).
    pub iters: u32,
    /// Best per-iteration time across samples.
    pub best: Duration,
    /// Elements (accesses, flops, ...) processed per iteration, if the
    /// benchmark has a natural throughput unit.
    pub elements: Option<u64>,
}

impl Measurement {
    /// Elements per second at the best sample, when elements were given.
    pub fn per_sec(&self) -> Option<f64> {
        let s = self.best.as_secs_f64();
        self.elements.filter(|_| s > 0.0).map(|e| e as f64 / s)
    }

    /// One aligned human-readable report line.
    pub fn report(&self) -> String {
        let per_iter = self.best.as_nanos();
        match self.per_sec() {
            Some(rate) => format!(
                "{:<44}{:>14} ns/iter{:>12.1}M elem/s",
                self.name,
                per_iter,
                rate / 1e6
            ),
            None => format!("{:<44}{:>14} ns/iter", self.name, per_iter),
        }
    }
}

/// Runs one benchmark: warm-up, calibration to ~100ms samples, best of 5.
pub fn run<F: FnMut()>(name: &str, elements: Option<u64>, mut f: F) -> Measurement {
    // Warm-up doubles as the calibration probe.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let target = Duration::from_millis(100);
    let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed() / iters);
    }
    let m = Measurement {
        name: name.to_string(),
        iters,
        best,
        elements,
    };
    println!("{}", m.report());
    m
}

/// Runs two benchmarks as an interleaved A/B pair and returns both
/// measurements.
///
/// On busy hosts the background load drifts on a seconds timescale, so two
/// independent [`run`] calls can disagree by far more than the effect being
/// measured. Alternating A and B samples within one window exposes both
/// arms to the same drift; the best-of-samples ratio is then a stable
/// speedup estimate even when absolute rates wobble.
pub fn run_pair<A: FnMut(), B: FnMut()>(
    name_a: &str,
    name_b: &str,
    elements: Option<u64>,
    mut a: A,
    mut b: B,
) -> (Measurement, Measurement) {
    // Warm up and calibrate each arm on its own cost.
    let calibrate = |once: Duration| {
        let target = Duration::from_millis(100);
        (target.as_nanos() / once.max(Duration::from_nanos(1)).as_nanos()).clamp(1, 1_000_000)
            as u32
    };
    let t0 = Instant::now();
    a();
    let iters_a = calibrate(t0.elapsed());
    let t0 = Instant::now();
    b();
    let iters_b = calibrate(t0.elapsed());

    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters_a {
            a();
        }
        best_a = best_a.min(t.elapsed() / iters_a);
        let t = Instant::now();
        for _ in 0..iters_b {
            b();
        }
        best_b = best_b.min(t.elapsed() / iters_b);
    }
    let make = |name: &str, iters, best| Measurement {
        name: name.to_string(),
        iters,
        best,
        elements,
    };
    let ma = make(name_a, iters_a, best_a);
    let mb = make(name_b, iters_b, best_b);
    println!("{}", ma.report());
    println!("{}", mb.report());
    (ma, mb)
}

/// Serializes measurements as a JSON array of
/// `{name, ns_per_iter, elements, per_sec}` objects (no external JSON
/// dependency; names are known identifiers, so plain escaping of `"` and
/// `\` suffices).
pub fn to_json(label: &str, results: &[Measurement], extra: &[(String, f64)]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = format!("{{\n  \"bench\": \"{}\",\n  \"results\": [\n", esc(label));
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {}, \"elements\": {}, \"per_sec\": {}}}{}\n",
            esc(&m.name),
            m.best.as_nanos(),
            m.elements.map_or("null".to_string(), |e| e.to_string()),
            m.per_sec()
                .map_or("null".to_string(), |r| format!("{r:.1}")),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"derived\": {");
    for (i, (k, v)) in extra.iter().enumerate() {
        out.push_str(&format!(
            "{}\n    \"{}\": {v:.3}",
            if i > 0 { "," } else { "" },
            esc(k)
        ));
    }
    out.push_str(if extra.is_empty() {
        "}\n}\n"
    } else {
        "\n  }\n}\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_reports_rate() {
        let m = Measurement {
            name: "x".into(),
            iters: 10,
            best: Duration::from_micros(1),
            elements: Some(1000),
        };
        assert_eq!(m.per_sec(), Some(1e9));
        assert!(m.report().contains("elem/s"));
    }

    /// A workload the optimizer cannot collapse across iterations (a
    /// counter-increment loop folds to one add, making samples ~0ns).
    fn work() {
        for i in 0..64u64 {
            std::hint::black_box(i);
        }
    }

    #[test]
    fn run_executes_and_calibrates() {
        let mut count = 0u64;
        let m = run("noop", None, || {
            count += 1;
            work();
        });
        assert!(count as u32 >= m.iters, "warm-up + samples ran");
        assert!(m.best > Duration::ZERO);
    }

    #[test]
    fn run_pair_measures_both_arms() {
        let (mut na, mut nb) = (0u64, 0u64);
        let (a, b) = run_pair(
            "a",
            "b",
            Some(10),
            || {
                na += 1;
                work();
            },
            || {
                nb += 1;
                work();
            },
        );
        assert!(na > 0 && nb > 0);
        assert_eq!(a.name, "a");
        assert_eq!(b.name, "b");
        assert!(a.per_sec().is_some());
    }

    #[test]
    fn json_shape() {
        let ms = [Measurement {
            name: "a".into(),
            iters: 1,
            best: Duration::from_nanos(50),
            elements: None,
        }];
        let j = to_json("t", &ms, &[("speedup".into(), 2.5)]);
        assert!(j.contains("\"bench\": \"t\""));
        assert!(j.contains("\"ns_per_iter\": 50"));
        assert!(j.contains("\"elements\": null"));
        assert!(j.contains("\"speedup\": 2.500"));
    }
}
