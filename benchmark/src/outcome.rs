//! What one workload run produces, and how it becomes the named metrics
//! `BENCHMARK.json` declares.

use tiling3d_obs::json::Json;

use crate::stats::{percentile, quartiles, rss_peak_mb, tail_mean};
use crate::trace::{LayerSplit, SpanRec};

/// The end-to-end metrics every workload reports with tracing off, as
/// `(name, unit)`. Names and units match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
];

/// The per-layer metrics every workload reports from its traced run, as
/// `(name, unit)`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cachesim_pct", "%"),
    ("core_pct", "%"),
    ("loopnest_pct", "%"),
    ("stencil_pct", "%"),
    ("multigrid_pct", "%"),
    ("serve_pct", "%"),
    ("wire_pct", "%"),
    ("unattributed_pct", "%"),
    ("setup_core_pct", "%"),
    ("setup_loopnest_pct", "%"),
    ("setup_grid_pct", "%"),
    ("setup_stencil_pct", "%"),
    ("setup_serve_pct", "%"),
    ("setup_unattributed_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("core_call_p50_us", "us"),
    ("core_call_p99_us", "us"),
    ("cachesim_accesses", "count"),
    ("cachesim_macc_per_s", "Macc/s"),
    ("stencil_gflops", "GFLOP/s"),
    ("stencil_computed_gbps", "GB/s"),
    ("stencil_model_gbps", "GB/s"),
    ("stencil_floor_gbps", "GB/s"),
    ("stencil_flops_per_byte", "flop/B"),
    ("serve_hit_ratio", "fraction"),
    ("multigrid_iters", "count"),
];

/// Layers whose measured-phase share is a `<layer>_pct` metric.
const PHASE_LAYERS: &[&str] = &[
    "cachesim",
    "core",
    "loopnest",
    "stencil",
    "multigrid",
    "serve",
    "wire",
];

/// Layers whose set-up share is a `setup_<layer>_pct` metric.
const SETUP_LAYERS: &[&str] = &["core", "loopnest", "grid", "stencil", "serve"];

/// One named value with its unit.
pub type Metric = (String, f64, &'static str);

/// Everything one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed operations plus up-front checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// One line per failure, for the human report.
    pub problems: Vec<String>,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of each timed operation.
    pub op_s: Vec<f64>,
    /// `op_tail_ms` averages the operations slower than this percentile
    /// (per quarter of the run; see `quartered_tail`).
    pub tail_pct: f64,
    /// Wall-clock seconds of the timed phase.
    pub wall_s: f64,
    /// Layer split of the timed phase (traced runs only).
    pub split: Option<LayerSplit>,
    /// Layer split of the set-up repetitions (traced runs only).
    pub setup_split: Option<LayerSplit>,
    /// Workload-specific per-layer values, by `PER_LAYER` name.
    pub layer_values: Vec<(&'static str, f64)>,
    /// Finer per-layer numbers for the report and the run file.
    pub detail: Vec<Metric>,
    /// Every span recorded (traced runs only).
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    /// Records `count` failed operations with a reason.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.problems.push(why);
    }

    /// Timed operations per wall-clock second of the timed phase.
    pub fn ops_per_s(&self) -> f64 {
        self.op_s.len() as f64 / self.wall_s
    }

    /// The `END_TO_END` metrics of this run.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let ms: Vec<f64> = self.op_s.iter().map(|s| s * 1e3).collect();
        let values = [
            quartiles(&self.setup_s)[1],
            quartiles(&ms)[1],
            quartered_tail(&ms, self.tail_pct),
            self.ops_per_s(),
            rss_peak_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    }

    /// An upper bound on what tracing cost this run, in percent: every
    /// span recorded times the cost of recording one, over the set-up
    /// and timed time. Differencing an untraced and a traced run instead
    /// measures which ran first and host drift: it read −2% to −10%.
    pub fn trace_overhead_pct(&self, span_cost_ns: f64) -> f64 {
        let traced_s = self.wall_s + self.setup_s.iter().sum::<f64>();
        100.0 * self.spans.len() as f64 * span_cost_ns * 1e-9 / traced_s
    }

    /// The `PER_LAYER` metrics of this (traced) run, given its tracing
    /// overhead.
    pub fn per_layer(&self, trace_overhead_pct: f64) -> Vec<Metric> {
        let split = self.split.clone().unwrap_or_default();
        let setup = self.setup_split.clone().unwrap_or_default();
        let core_us: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.layer() == "core")
            .map(|s| s.dur_ns as f64 * 1e-3)
            .collect();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = if let Some(v) = self.layer_values.iter().find(|(n, _)| *n == name) {
                    v.1
                } else if name == "unattributed_pct" {
                    split.unattributed_pct()
                } else if name == "setup_unattributed_pct" {
                    setup.unattributed_pct()
                } else if name == "trace_overhead_pct" {
                    trace_overhead_pct
                } else if name == "core_call_p50_us" {
                    percentile(&core_us, 50.0)
                } else if name == "core_call_p99_us" {
                    percentile(&core_us, 99.0)
                } else if let Some(l) = name
                    .strip_prefix("setup_")
                    .and_then(|n| n.strip_suffix("_pct"))
                    .filter(|l| SETUP_LAYERS.contains(l))
                {
                    setup.pct(l)
                } else if let Some(l) = name
                    .strip_suffix("_pct")
                    .filter(|l| PHASE_LAYERS.contains(l))
                {
                    split.pct(l)
                } else {
                    0.0
                };
                (name.to_string(), v, unit)
            })
            .collect()
    }
}

/// The median, over the four quarters of the operations in the order they
/// ran, of each quarter's tail mean. A burst of host noise lasting part
/// of the window lands in one quarter and drops out; a slower tail from
/// the code shows in every quarter.
fn quartered_tail(ms: &[f64], p: f64) -> f64 {
    let quarter = ms.len().div_ceil(4).max(1);
    let tails: Vec<f64> = ms.chunks(quarter).map(|c| tail_mean(c, p)).collect();
    quartiles(&tails)[1]
}

/// Renders metrics as the `{"name": {"value": v, "unit": u}, ...}` object
/// of the result line.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, v, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_are_named_and_positive() {
        let o = Outcome {
            setup_s: vec![0.3, 0.1, 0.2],
            op_s: vec![0.01, 0.02, 0.03, 0.04],
            tail_pct: 90.0,
            wall_s: 0.1,
            ..Outcome::default()
        };
        let m = o.end_to_end();
        let names: Vec<&str> = m.iter().map(|(n, _, _)| n.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert!((m[0].1 - 0.2).abs() < 1e-12);
        assert!((m[1].1 - 25.0).abs() < 1e-9);
        // One op per quarter: the median of the four quarter tails.
        assert!((m[2].1 - 25.0).abs() < 1e-9);
        assert!((m[3].1 - 40.0).abs() < 1e-9);
        assert!(m.iter().all(|(_, v, _)| *v > 0.0));
    }

    #[test]
    fn a_burst_in_one_quarter_leaves_the_tail_alone() {
        let steady: Vec<f64> = (0..400).map(|i| 10.0 + f64::from(i % 10)).collect();
        let mut burst = steady.clone();
        for v in &mut burst[..100] {
            *v *= 3.0;
        }
        assert_eq!(quartered_tail(&burst, 90.0), quartered_tail(&steady, 90.0));
        // A slower tail everywhere moves it.
        let slower: Vec<f64> = steady
            .iter()
            .map(|v| if *v >= 19.0 { 40.0 } else { *v })
            .collect();
        assert!(quartered_tail(&slower, 90.0) > quartered_tail(&steady, 90.0));
    }

    #[test]
    fn per_layer_covers_every_declared_name() {
        let mut split = LayerSplit {
            end_to_end_s: 2.0,
            ..LayerSplit::default()
        };
        split.add("stencil", 1.5);
        let o = Outcome {
            split: Some(split),
            layer_values: vec![("multigrid_iters", 6.0)],
            ..Outcome::default()
        };
        let m = o.per_layer(1.5);
        assert_eq!(m.len(), PER_LAYER.len());
        let get = |n: &str| m.iter().find(|(k, _, _)| k == n).unwrap().1;
        assert_eq!(get("stencil_pct"), 75.0);
        assert_eq!(get("unattributed_pct"), 25.0);
        assert_eq!(get("trace_overhead_pct"), 1.5);
        assert_eq!(get("multigrid_iters"), 6.0);
        assert_eq!(get("cachesim_pct"), 0.0);
    }
}
