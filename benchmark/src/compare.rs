//! `compare`: the bench-diff between two commits. It reads the run files
//! of each side — made as alternating pairs, base and head runs with the
//! same index forming a pair — and gives every (workload, end-to-end
//! metric) a verdict under that pair's bound ([`WORKLOAD_BOUNDS`]):
//!
//! * **better** — at least [`MIN_PAIRS`] pairs, the head wins at least 9
//!   of every 10 of them, and the medians differ by more than the base's
//!   own spread (Q3 − Q1) and by more than [`MIN_GAIN`];
//! * **unresolved** — the same gain over fewer pairs, or the base's
//!   spread (as a share of its median) is wider than the bound, unless
//!   every head run beats every base run;
//! * **worse** — the head median is worse than the base median by more
//!   than the bound;
//! * **within-bound** — otherwise.

use std::path::{Path, PathBuf};

use tiling3d_obs::json::{self, Json};

use crate::fingerprint;
use crate::stats::quartiles;

/// One end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Unit, for the report.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Worsening allowed, as a share of the base median.
    pub bound: f64,
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json` document.
pub fn rules(bench: &Json) -> Result<Vec<Rule>, String> {
    let Some(Json::Arr(items)) = bench.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("end_to_end entry lacks '{k}'"))
            };
            Ok(Rule {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks 'bound'")?,
            })
        })
        .collect()
}

/// A comparison verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Resolved improvement.
    Better,
    /// Worse than the bound allows.
    Worse,
    /// No worse than the bound allows.
    WithinBound,
    /// The base's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest pairs on which a gain resolves to `better`.
pub const MIN_PAIRS: usize = 10;

/// Smallest gain, as a share of the base median, that reads `better`.
/// Without it a near-constant metric resolves noise as a gain: two sets
/// of one commit gave sweep's peak memory (spread 0.01%) a 0.01% "gain"
/// that won 9 of 10 pairs.
pub const MIN_GAIN: f64 = 0.01;

/// The bound of each (workload, metric), as a share of the base median.
/// `BENCHMARK.json` holds one bound per metric for all four workloads,
/// so it has to cover the noisiest of them; these are sized per
/// workload, at three times the widest spread (Q3 − Q1 over the median,
/// ten runs with distinct seeds) measured for that pair, rounded up to a
/// hundredth, at least 0.02 and at most the metric's `BENCHMARK.json`
/// bound (a test checks the last).
pub const WORKLOAD_BOUNDS: &[(&str, &str, f64)] = &[
    ("figure", "setup_s", 0.22),
    ("figure", "op_p50_ms", 0.24),
    ("figure", "op_tail_ms", 0.24),
    ("figure", "ops_per_s", 0.24),
    ("figure", "rss_peak_mb", 0.10),
    ("sweep", "setup_s", 0.20),
    ("sweep", "op_p50_ms", 0.13),
    ("sweep", "op_tail_ms", 0.24),
    ("sweep", "ops_per_s", 0.20),
    ("sweep", "rss_peak_mb", 0.02),
    ("serve", "setup_s", 0.25),
    ("serve", "op_p50_ms", 0.21),
    ("serve", "op_tail_ms", 0.24),
    ("serve", "ops_per_s", 0.24),
    ("serve", "rss_peak_mb", 0.15),
    ("solve", "setup_s", 0.25),
    ("solve", "op_p50_ms", 0.24),
    ("solve", "op_tail_ms", 0.24),
    ("solve", "ops_per_s", 0.24),
    ("solve", "rss_peak_mb", 0.02),
];

/// The bound `compare` applies to `metric` of `workload`: its entry in
/// [`WORKLOAD_BOUNDS`], else the `BENCHMARK.json` one.
pub fn bound_for(workload: &str, rule: &Rule) -> f64 {
    WORKLOAD_BOUNDS
        .iter()
        .find(|(w, m, _)| *w == workload && *m == rule.name)
        .map_or(rule.bound, |&(_, _, b)| b)
}

/// The verdict on paired samples, plus the share of pairs the head won.
pub fn verdict(base: &[f64], head: &[f64], rule: &Rule) -> (Verdict, f64) {
    let better = |h: f64, b: f64| if rule.lower_is_better { h < b } else { h > b };
    let pairs = base.len().min(head.len());
    let wins = (0..pairs).filter(|&i| better(head[i], base[i])).count();
    let win_frac = wins as f64 / pairs.max(1) as f64;
    let [bq1, bmed, bq3] = quartiles(base);
    let hmed = quartiles(head)[1];
    let worse_by = if rule.lower_is_better {
        (hmed - bmed) / bmed
    } else {
        (bmed - hmed) / bmed
    };
    let spread = (bq3 - bq1) / bmed;
    let all_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
    let gain = win_frac >= 0.9 && worse_by < -MIN_GAIN && (hmed - bmed).abs() > bq3 - bq1;
    let v = if gain && pairs >= MIN_PAIRS {
        Verdict::Better
    } else if gain || (spread > rule.bound && !all_better) {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (v, win_frac)
}

/// One workload's numbers from a run file.
#[derive(Clone, Debug)]
pub struct WorkloadRun {
    attempted: f64,
    failed: f64,
    metrics: Json,
}

/// One run file.
#[derive(Clone, Debug)]
pub struct Run {
    path: PathBuf,
    fingerprint: Json,
    workloads: Vec<(String, WorkloadRun)>,
}

impl Run {
    /// Parses a run file written by `run --out`.
    pub fn parse(path: &Path, text: &str) -> Result<Run, String> {
        let v = json::parse(text).map_err(|e| format!("{}: {e}", path.display()))?;
        let fingerprint = v
            .get("fingerprint")
            .cloned()
            .ok_or_else(|| format!("{}: no fingerprint", path.display()))?;
        let Some(Json::Obj(ws)) = v.get("workloads") else {
            return Err(format!("{}: no workloads", path.display()));
        };
        let workloads = ws
            .iter()
            .map(|(name, w)| {
                let num = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                (
                    name.clone(),
                    WorkloadRun {
                        attempted: num("attempted"),
                        failed: num("failed"),
                        metrics: w.get("metrics").cloned().unwrap_or(Json::Null),
                    },
                )
            })
            .collect();
        Ok(Run {
            path: path.to_path_buf(),
            fingerprint,
            workloads,
        })
    }

    fn workload(&self, name: &str) -> Option<&WorkloadRun> {
        self.workloads
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w)
    }
}

/// Result of a comparison: the report text and whether it must fail.
#[derive(Debug)]
pub struct Report {
    /// Human table.
    pub text: String,
    /// Some metric was worse, or the head failed more often.
    pub regressed: bool,
}

/// Compares two sides. Refuses (returns `Err`) when the runs cannot be
/// paired: unequal counts, a workload missing from a run, or
/// fingerprints that differ in more than the git revision.
pub fn compare(rules: &[Rule], base: &[Run], head: &[Run]) -> Result<Report, String> {
    if base.is_empty() || base.len() != head.len() {
        return Err(format!(
            "need the same number of base and head runs (got {} and {})",
            base.len(),
            head.len()
        ));
    }
    let first = &base[0];
    for run in base.iter().chain(head) {
        let diff = fingerprint::differences(&first.fingerprint, &run.fingerprint);
        if !diff.is_empty() {
            return Err(format!(
                "{} and {} were measured differently: {}",
                first.path.display(),
                run.path.display(),
                diff.join("; ")
            ));
        }
    }
    let mut text = String::new();
    if base.len() < MIN_PAIRS {
        text.push_str(&format!(
            "note: {} pairs; a gain reads unresolved below {MIN_PAIRS}\n",
            base.len()
        ));
    }
    text.push_str(&format!(
        "{:<8} {:<12} {:>34} {:>34} {:>6} {:>6}  verdict\n",
        "workload", "metric", "base median [Q1, Q3]", "head median [Q1, Q3]", "won", "bound"
    ));
    let mut regressed = false;
    for (name, _) in &first.workloads {
        let (b, h) = (side(base, name)?, side(head, name)?);
        for rule in rules {
            let rule = Rule {
                bound: bound_for(name, rule),
                ..rule.clone()
            };
            let values = |ws: &[&WorkloadRun]| -> Vec<f64> {
                ws.iter()
                    .filter_map(|w| {
                        w.metrics
                            .get(&rule.name)
                            .and_then(|m| m.get("value"))
                            .and_then(Json::as_f64)
                    })
                    .collect()
            };
            let (bv, hv) = (values(&b), values(&h));
            if bv.len() != b.len() || hv.len() != h.len() {
                // A run whose workload died has no metrics; its failure
                // is judged below. A head that lacks values cannot pass.
                let lacking = hv.len() < h.len();
                regressed |= lacking;
                text.push_str(&format!(
                    "{name:<8} {:<12} {:>34} {:>34} {:>6} {:>6}  {}\n",
                    rule.name,
                    format!("{} of {} runs", bv.len(), b.len()),
                    format!("{} of {} runs", hv.len(), h.len()),
                    "",
                    "",
                    if lacking { "worse" } else { "missing-in-base" }
                ));
                continue;
            }
            let (v, won) = verdict(&bv, &hv, &rule);
            regressed |= v == Verdict::Worse;
            let q = |x: &[f64]| {
                let [q1, m, q3] = quartiles(x);
                format!("{} [{}, {}] {}", sig(m), sig(q1), sig(q3), rule.unit)
            };
            text.push_str(&format!(
                "{name:<8} {:<12} {:>34} {:>34} {:>5.0}% {:>6.2}  {}\n",
                rule.name,
                q(&bv),
                q(&hv),
                won * 100.0,
                rule.bound,
                v.name()
            ));
        }
        let frac = |ws: &[&WorkloadRun]| {
            let failed: f64 = ws.iter().map(|w| w.failed).sum();
            let attempted: f64 = ws.iter().map(|w| w.attempted).sum();
            failed / attempted
        };
        let (bf, hf) = (frac(&b), frac(&h));
        // NaN (unreadable counts) must fail too, hence the negation.
        let ok = hf <= bf;
        regressed |= !ok;
        text.push_str(&format!(
            "{name:<8} {:<12} {bf:>34} {hf:>34} {:>6} {:>6}  {}\n",
            "failed_frac",
            "",
            "",
            if ok { "no-more-failures" } else { "worse" }
        ));
    }
    Ok(Report { text, regressed })
}

/// `v` to five significant digits.
fn sig(v: f64) -> String {
    let decimals = if v == 0.0 || !v.is_finite() {
        0
    } else {
        (4 - v.abs().log10().floor() as i32).clamp(0, 12) as usize
    };
    format!("{v:.decimals$}")
}

/// Workload `name` of every run, or an error naming a run that lacks it.
fn side<'a>(runs: &'a [Run], name: &str) -> Result<Vec<&'a WorkloadRun>, String> {
    runs.iter()
        .map(|r| {
            r.workload(name)
                .ok_or_else(|| format!("{} has no '{name}' workload", r.path.display()))
        })
        .collect()
}

/// Loads every `*.json` run file in `dir` (sorted by name), or `dir`
/// itself when it is a file.
pub fn load_side(dir: &Path) -> Result<Vec<Run>, String> {
    let mut files: Vec<PathBuf> = if dir.is_dir() {
        std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![dir.to_path_buf()]
    };
    files.sort();
    files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Run::parse(p, &text)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(bound: f64) -> Rule {
        Rule {
            name: "op_p50_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    /// Ten runs around `center` with a ±1% wobble.
    fn runs(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + 0.002 * (i % 5) as f64 - 0.004))
            .collect()
    }

    #[test]
    fn same_commit_is_within_bound() {
        let base = runs(100.0);
        let mut head = base.clone();
        head.reverse();
        assert_eq!(verdict(&base, &head, &rule(0.1)).0, Verdict::WithinBound);
    }

    #[test]
    fn a_consistent_gain_is_better() {
        let base = runs(100.0);
        let head: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let (v, won) = verdict(&base, &head, &rule(0.1));
        assert_eq!(v, Verdict::Better);
        assert_eq!(won, 1.0);
    }

    #[test]
    fn a_loss_past_the_bound_is_worse() {
        let base = runs(100.0);
        let head: Vec<f64> = base.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(&base, &head, &rule(0.1)).0, Verdict::Worse);
        // The same loss inside a wider bound is tolerated.
        assert_eq!(verdict(&base, &head, &rule(0.35)).0, Verdict::WithinBound);
    }

    #[test]
    fn a_base_noisier_than_the_bound_is_unresolved() {
        let base = vec![
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let mut head = base.clone();
        head.rotate_left(3);
        assert_eq!(verdict(&base, &head, &rule(0.1)).0, Verdict::Unresolved);
    }

    #[test]
    fn a_gain_over_too_few_pairs_is_unresolved() {
        let base: Vec<f64> = runs(100.0)[..5].to_vec();
        let head: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let (v, won) = verdict(&base, &head, &rule(0.1));
        assert_eq!(won, 1.0);
        assert_eq!(v, Verdict::Unresolved);
        // A loss needs no minimum: five pairs are enough to call it.
        let slow: Vec<f64> = base.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(&base, &slow, &rule(0.1)).0, Verdict::Worse);
    }

    #[test]
    fn a_consistent_gain_below_the_minimum_is_within_bound() {
        // Page-granular peak memory: spread 0.002%, every head run 0.01%
        // lower. It wins every pair and beats the spread, yet is no gain.
        let base: Vec<f64> = (0..10).map(|i| 665.92 + 0.004 * (i % 3) as f64).collect();
        let head: Vec<f64> = base.iter().map(|v| v - 0.06).collect();
        let (v, won) = verdict(&base, &head, &rule(0.02));
        assert_eq!(won, 1.0);
        assert_eq!(v, Verdict::WithinBound);
    }

    #[test]
    fn higher_is_better_metrics_flip_the_direction() {
        let r = Rule {
            lower_is_better: false,
            ..rule(0.1)
        };
        let base = runs(100.0);
        let up: Vec<f64> = base.iter().map(|v| v * 1.3).collect();
        let down: Vec<f64> = base.iter().map(|v| v * 0.7).collect();
        assert_eq!(verdict(&base, &up, &r).0, Verdict::Better);
        assert_eq!(verdict(&base, &down, &r).0, Verdict::Worse);
    }

    fn run_file(rev: &str, seed: u64, op_ms: f64, failed: u64) -> Run {
        let text = format!(
            "{{\"fingerprint\":{{\"cpu_model\":\"x\",\"git_rev\":\"{rev}\",\"seed\":{seed}}},\
             \"workloads\":{{\"synthetic\":{{\"correct\":true,\"attempted\":10,\"failed\":{failed},\
             \"metrics\":{{\"op_p50_ms\":{{\"value\":{op_ms},\"unit\":\"ms\"}}}}}}}}}}"
        );
        Run::parse(Path::new("synthetic.json"), &text).unwrap()
    }

    /// A run whose workload child died: one failed operation, no metrics.
    fn dead_run_file(rev: &str) -> Run {
        let text = format!(
            "{{\"fingerprint\":{{\"cpu_model\":\"x\",\"git_rev\":\"{rev}\",\"seed\":1}},\
             \"workloads\":{{\"synthetic\":{{\"correct\":false,\"attempted\":1,\"failed\":1}}}}}}"
        );
        Run::parse(Path::new("dead.json"), &text).unwrap()
    }

    #[test]
    fn a_head_run_without_metrics_is_worse_not_an_error() {
        let rules = [rule(0.1)];
        let base: Vec<Run> = runs(100.0)
            .iter()
            .map(|&v| run_file("a", 1, v, 0))
            .collect();
        let mut head: Vec<Run> = runs(100.0)
            .iter()
            .map(|&v| run_file("b", 1, v, 0))
            .collect();
        head[3] = dead_run_file("b");
        let r = compare(&rules, &base, &head).unwrap();
        assert!(r.regressed, "{}", r.text);
        assert!(r.text.contains("9 of 10 runs"), "{}", r.text);
    }

    #[test]
    fn workload_bounds_are_used_and_never_looser_than_the_benchmark_file() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let rules = rules(&json::parse(&text).unwrap()).unwrap();
        for w in ["figure", "sweep", "serve", "solve"] {
            for r in &rules {
                let listed = WORKLOAD_BOUNDS
                    .iter()
                    .filter(|(lw, lm, _)| *lw == w && *lm == r.name)
                    .count();
                assert_eq!(listed, 1, "{w} {} listed {listed} times", r.name);
                let b = bound_for(w, r);
                assert!(
                    b >= 0.02 && b <= r.bound,
                    "{w} {}: {b} vs {}",
                    r.name,
                    r.bound
                );
            }
        }
        assert_eq!(WORKLOAD_BOUNDS.len(), 4 * rules.len());
        assert_eq!(bound_for("synthetic", &rule(0.1)), 0.1);
    }

    #[test]
    fn compare_reports_and_exits_on_regressions() {
        let rules = [rule(0.1)];
        let base: Vec<Run> = runs(100.0)
            .iter()
            .map(|&v| run_file("a", 1, v, 0))
            .collect();
        let same: Vec<Run> = runs(100.0)
            .iter()
            .map(|&v| run_file("b", 1, v, 0))
            .collect();
        let r = compare(&rules, &base, &same).unwrap();
        assert!(!r.regressed, "{}", r.text);
        assert!(r.text.contains("within-bound"));

        let slow: Vec<Run> = runs(130.0)
            .iter()
            .map(|&v| run_file("b", 1, v, 0))
            .collect();
        let r = compare(&rules, &base, &slow).unwrap();
        assert!(r.regressed && r.text.contains("worse"), "{}", r.text);

        let failing: Vec<Run> = runs(100.0)
            .iter()
            .map(|&v| run_file("b", 1, v, 1))
            .collect();
        assert!(compare(&rules, &base, &failing).unwrap().regressed);
    }

    #[test]
    fn compare_refuses_runs_measured_differently() {
        let rules = [rule(0.1)];
        let base = vec![run_file("a", 1, 100.0, 0)];
        assert!(compare(&rules, &base, &[run_file("b", 2, 100.0, 0)]).is_err());
        assert!(compare(&rules, &base, &[]).is_err());
        assert!(compare(&rules, &base, &[run_file("b", 1, 100.0, 0)]).is_ok());
    }

    #[test]
    fn values_print_with_five_significant_digits() {
        assert_eq!(sig(0.026_891_2), "0.026891");
        assert_eq!(sig(2691.842), "2691.8");
        assert_eq!(sig(123_456.7), "123457");
        assert_eq!(sig(0.0), "0");
    }

    #[test]
    fn rules_come_from_the_benchmark_file() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let r = rules(&json::parse(&text).unwrap()).unwrap();
        assert!(r.iter().any(|r| r.name == "setup_s" && r.lower_is_better));
        assert!(r.iter().all(|r| r.bound > 0.0 && r.bound <= 0.25));
    }
}
