//! End-to-end benchmark of tiling3d. Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 1 --out benchmark/out/run.json
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --workload serve --seed 3 --trace 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare --base base/ --head head/
//! ```
//!
//! `run --workload W --seed N --seconds S --trace 0|1` — the benchmark's
//! `command` in `BENCHMARK.json` followed by these four flags, with S its
//! `run_seconds` — measures one workload in this process and prints, as
//! its last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without `--workload` it runs every workload, each in its
//! own child process, and writes one run file. See README.md.

mod common;
mod compare;
mod figure;
mod fingerprint;
mod golden;
mod outcome;
mod serve;
mod solve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use tiling3d_obs::flags::{FlagSet, FlagSpec, ParsedFlags};
use tiling3d_obs::json::{self, Json};

use outcome::{metrics_json, Metric, Outcome};
use trace::Tracer;

/// A workload: runs for about `seconds` from `seed`, traced or not.
type Workload = fn(u64, f64, &Tracer) -> Outcome;

/// The workloads, in the order a full run measures them.
const WORKLOADS: &[(&str, Workload)] = &[
    ("figure", figure::run),
    ("sweep", sweep::run),
    ("serve", serve::run),
    ("solve", solve::run),
];

/// Where traces, part files and the default run file go.
const OUT_DIR: &str = "benchmark/out";

fn run_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d-benchmark run",
        "measure one workload, or all of them in child processes",
        None,
        &[
            FlagSpec::str(
                "--workload",
                None,
                "figure | sweep | serve | solve (default: all, one child process each)",
            ),
            FlagSpec::usize(
                "--seed",
                Some("1"),
                "seed for the sweep state and the serve stream",
            ),
            FlagSpec::usize(
                "--seconds",
                Some("20"),
                "length of each workload's timed window",
            ),
            FlagSpec::usize(
                "--trace",
                Some("0"),
                "1 = also run traced and report per-layer metrics",
            ),
            FlagSpec::str("--out", None, "write the run file here"),
        ],
    )
}

fn compare_flags() -> FlagSet {
    FlagSet::new(
        "tiling3d-benchmark compare",
        "compare the run files of two commits, paired by name order",
        None,
        &[
            FlagSpec::str(
                "--base",
                None,
                "directory (or file) of the base commit's runs",
            ),
            FlagSpec::str(
                "--head",
                None,
                "directory (or file) of the head commit's runs",
            ),
        ],
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_flags().parse(&args[1..]).and_then(|f| cmd_run(&f)),
        Some("compare") => compare_flags()
            .parse(&args[1..])
            .and_then(|f| cmd_compare(&f)),
        _ => Err(format!(
            "usage: tiling3d-benchmark run|compare [flags]\n\n{}\n{}",
            run_flags().usage(),
            compare_flags().usage()
        )),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_run(flags: &ParsedFlags) -> Result<ExitCode, String> {
    let seed = flags.usize("--seed") as u64;
    let seconds = flags.usize("--seconds");
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let traced = match flags.usize("--trace") {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let out = flags.opt_str("--out").map(PathBuf::from);
    match flags.opt_str("--workload") {
        Some(name) => {
            let (_, f) = WORKLOADS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
                format!("unknown workload '{name}' (figure, sweep, serve, solve)")
            })?;
            run_one(name, *f, seed, seconds, traced, out.as_deref())
        }
        None => {
            let out = out.unwrap_or_else(|| Path::new(OUT_DIR).join("run.json"));
            run_all(seed, seconds, traced, &out)
        }
    }
}

/// Measures one workload in this process, traced or not. A traced run
/// reports the per-layer metrics and writes its spans to
/// `benchmark/out/trace-<name>.jsonl`.
fn run_one(
    name: &str,
    f: Workload,
    seed: u64,
    seconds: usize,
    traced: bool,
    out: Option<&Path>,
) -> Result<ExitCode, String> {
    let o = f(seed, seconds as f64, &Tracer::new(traced));
    let mut record = Vec::new();
    let metrics = if traced {
        let layers = o.per_layer(o.trace_overhead_pct(trace::span_cost_ns()));
        for (title, split) in [("timed phase", &o.split), ("set-up", &o.setup_split)] {
            if let Some(s) = split {
                println!("{}", s.render(&format!("{name} {title}")));
            }
        }
        print_metrics(name, "per layer", &layers);
        print_metrics(name, "detail", &o.detail);
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.jsonl"));
        trace::write_jsonl(&path, &o.spans)?;
        println!(
            "{name}: {} spans written to {}",
            o.spans.len(),
            path.display()
        );
        record.push(("layers", metrics_json(&layers)));
        record.push(("detail", metrics_json(&o.detail)));
        layers
    } else {
        let e2e = o.end_to_end();
        print_metrics(name, "end to end", &e2e);
        record.push(("metrics", metrics_json(&e2e)));
        e2e
    };
    for p in &o.problems {
        eprintln!("{name}: FAILED: {p}");
    }
    let correct = o.failed == 0 && o.problems.is_empty();
    let counts = [
        ("correct", Json::Bool(correct)),
        ("attempted", Json::uint(o.attempted)),
        ("failed", Json::uint(o.failed)),
    ];
    if let Some(path) = out {
        let mut fields: Vec<(&str, Json)> = counts.to_vec();
        fields.extend(record);
        fields.push((
            "problems",
            Json::Arr(o.problems.iter().map(|p| Json::str(p.as_str())).collect()),
        ));
        let run = Json::obj(vec![
            ("schema", Json::str("tiling3d-benchmark-run/1")),
            ("fingerprint", fingerprint::collect(seed, seconds as u64)),
            ("workloads", Json::obj(vec![(name, Json::obj(fields))])),
        ]);
        write_file(path, &run.render())?;
    }
    let mut line: Vec<(&str, Json)> = counts.to_vec();
    line.push(("metrics", metrics_json(&metrics)));
    println!("{}", Json::obj(line).render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in its own child process — untraced, then traced
/// too when `traced` — and merges their run files into `out`. A child
/// that fails, even one that writes no run file, does not stop the
/// others.
fn run_all(seed: u64, seconds: usize, traced: bool, out: &Path) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let passes: &[&str] = if traced { &["0", "1"] } else { &["0"] };
    let mut workloads = Vec::new();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let mut merged = Part::default();
        for trace in passes {
            let part = Path::new(OUT_DIR).join(format!("part-{name}-{trace}.json"));
            let _ = std::fs::remove_file(&part);
            let status = Command::new(&exe)
                .args(["run", "--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", trace])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("spawn {name}: {e}"))?;
            ok &= status.success();
            merged.add(read_part(name, &part, &status.to_string()));
            let _ = std::fs::remove_file(&part);
        }
        workloads.push((*name, merged.into_record()));
    }
    let run = Json::obj(vec![
        ("schema", Json::str("tiling3d-benchmark-run/1")),
        ("fingerprint", fingerprint::collect(seed, seconds as u64)),
        ("workloads", Json::obj(workloads)),
    ]);
    write_file(out, &run.render())?;
    println!("run file: {}", out.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A workload's record, merged from the run files of its child processes.
#[derive(Debug, Default)]
struct Part {
    attempted: f64,
    failed: f64,
    problems: Vec<Json>,
    fields: Vec<(String, Json)>,
}

impl Part {
    fn add(&mut self, other: Part) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.fields.extend(other.fields);
    }

    fn into_record(self) -> Json {
        let mut record = vec![
            (
                "correct".to_string(),
                Json::Bool(self.failed == 0.0 && self.problems.is_empty()),
            ),
            ("attempted".to_string(), Json::Num(self.attempted)),
            ("failed".to_string(), Json::Num(self.failed)),
        ];
        record.extend(self.fields);
        record.push(("problems".to_string(), Json::Arr(self.problems)));
        Json::Obj(record)
    }
}

/// Reads the run file that workload `name`'s child wrote to `path`. A
/// child that wrote none, or an unreadable one — it panicked or was
/// killed — counts as one failed operation, with its exit `status` as
/// the problem.
fn read_part(name: &str, path: &Path, status: &str) -> Part {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| format!("no run file: {e}"))
        .and_then(|text| json::parse(&text))
        .and_then(|run| match run.get("workloads").and_then(|w| w.get(name)) {
            Some(Json::Obj(w)) => Ok(w.clone()),
            _ => Err(format!("no '{name}' record")),
        });
    let w = match parsed {
        Ok(w) => w,
        Err(e) => {
            return Part {
                attempted: 1.0,
                failed: 1.0,
                problems: vec![Json::str(format!(
                    "{name} child exited with {status}: {}: {e}",
                    path.display()
                ))],
                fields: Vec::new(),
            }
        }
    };
    let mut part = Part::default();
    for (k, v) in w {
        match k.as_str() {
            "attempted" => part.attempted += v.as_f64().unwrap_or(f64::NAN),
            "failed" => part.failed += v.as_f64().unwrap_or(f64::NAN),
            "problems" => {
                if let Json::Arr(p) = v {
                    part.problems.extend(p);
                }
            }
            "correct" => {}
            _ => part.fields.push((k, v)),
        }
    }
    part
}

/// `BENCHMARK.json`, read from the repository root above this package.
fn benchmark_file() -> Result<Json, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|t| json::parse(&t))
}

fn cmd_compare(flags: &ParsedFlags) -> Result<ExitCode, String> {
    let need = |k: &str| flags.opt_str(k).ok_or_else(|| format!("compare needs {k}"));
    let bench = benchmark_file()?;
    let rules = compare::rules(&bench)?;
    let base = compare::load_side(Path::new(need("--base")?))?;
    let head = compare::load_side(Path::new(need("--head")?))?;
    let report = compare::compare(&rules, &base, &head)?;
    print!("{}", report.text);
    Ok(if report.regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn print_metrics(workload: &str, kind: &str, metrics: &[Metric]) {
    println!("{workload} ({kind}):");
    for (name, v, unit) in metrics {
        println!("  {name:<36} {v:>16.6} {unit}");
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units the code reports are the ones the benchmark
    /// file declares, in both lists.
    #[test]
    fn benchmark_file_matches_the_reported_metrics() {
        let bench = benchmark_file().unwrap();
        let window = run_flags().parse(&[]).unwrap().usize("--seconds");
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(window as f64),
            "the default window is BENCHMARK.json's run_seconds"
        );
        for (key, code) in [
            ("end_to_end", outcome::END_TO_END),
            ("per_layer", outcome::PER_LAYER),
        ] {
            let Some(Json::Arr(items)) = bench.get(key) else {
                panic!("no {key}");
            };
            let declared: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap(),
                        m.get("unit").and_then(Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(declared, code.to_vec(), "{key}");
        }
        let Some(Json::Arr(ws)) = bench.get("workloads") else {
            panic!("no workloads");
        };
        let names: Vec<&str> = ws
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let code: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, code);
    }

    /// A child that dies before writing its run file (a panic) leaves a
    /// failed operation in the merged record, not an error that stops
    /// the remaining workloads.
    #[test]
    fn a_child_without_a_run_file_counts_as_failed() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-parts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("part-sweep-0.json");
        std::fs::write(
            &good,
            r#"{"workloads":{"sweep":{"correct":true,"attempted":40,"failed":0,
               "metrics":{"op_p50_ms":{"value":200.5,"unit":"ms"}},"problems":[]}}}"#,
        )
        .unwrap();
        let mut merged = Part::default();
        merged.add(read_part("sweep", &good, "exit status: 0"));
        merged.add(read_part(
            "sweep",
            &dir.join("part-sweep-1.json"),
            "exit status: 101",
        ));
        std::fs::remove_dir_all(&dir).unwrap();

        let record = merged.into_record();
        assert_eq!(record.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(record.get("attempted").and_then(Json::as_f64), Some(41.0));
        assert_eq!(record.get("failed").and_then(Json::as_f64), Some(1.0));
        assert!(record.get("metrics").is_some());
        let Some(Json::Arr(problems)) = record.get("problems") else {
            panic!("no problems list");
        };
        assert_eq!(problems.len(), 1);
        assert!(problems[0].as_str().unwrap().contains("exit status: 101"));
    }
}
