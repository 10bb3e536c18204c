//! In-memory spans around the benchmark's own calls into each crate, and
//! the self-time attribution that turns them into per-layer numbers.
//!
//! A span's name starts with the layer it measures (`cachesim.trace`,
//! `core.plan`, ...); `bench.*` spans are the benchmark's own frames. A
//! layer's self time is the duration of its spans minus the part their
//! child spans cover. The program's own `obs` collection stays off: only
//! these spans run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tiling3d_obs::json::Json;

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// `<layer>.<what>[:<detail>]`.
    pub name: String,
    /// Start, relative to the tracer's creation.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
}

impl SpanRec {
    /// The layer this span is charged to: the name up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Span recorder. A disabled tracer hands out inert guards, so workload
/// code runs the same calls whether or not it is traced.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// RAII guard of an open span; records it when dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    open: Option<(u64, u64, String, Instant)>,
}

impl Span<'_> {
    /// This span's id, to parent child spans (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |o| o.0)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.open.take() {
            self.tracer.push(id, parent, name, start, start.elapsed());
        }
    }
}

impl Tracer {
    /// A tracer that records (`on`) or hands out inert guards.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span under `parent` (0 = root).
    pub fn span(&self, name: &str, parent: u64) -> Span<'_> {
        let open = self.on.then(|| {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            (id, parent, name.to_string(), Instant::now())
        });
        Span { tracer: self, open }
    }

    /// Records an already-measured interval as a span (for splits the
    /// program reports itself, such as `MgSolver::stats`); returns its id.
    pub fn record(&self, name: &str, parent: u64, start: Instant, dur: Duration) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name.to_string(), start, dur);
        id
    }

    fn push(&self, id: u64, parent: u64, name: String, start: Instant, dur: Duration) {
        let rec = SpanRec {
            id,
            parent,
            name,
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            dur_ns: nanos(dur),
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking worker")
            .push(rec);
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking worker")
            .clone()
    }
}

/// Nanoseconds one span costs to open, name and record, measured on a
/// scratch tracer: the unit of the tracing-overhead estimate.
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let t = Tracer::new(true);
    let t0 = Instant::now();
    for i in 0..SPANS {
        let s = t.span(&format!("bench.calibrate:{}", i % 8), 0);
        std::hint::black_box(s.id());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time per layer, in seconds, over `spans`.
pub fn self_seconds(spans: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer().to_string()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Durations in seconds of the spans named `name` (or, with a trailing
/// `:`, of every span whose name starts with it).
pub fn durations(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| {
            if name.ends_with(':') {
                s.name.starts_with(name)
            } else {
                s.name == name
            }
        })
        .map(|s| s.dur_ns as f64 * 1e-9)
        .collect()
}

/// A phase's wall time split into layers; whatever the layers do not
/// cover is the unattributed remainder.
#[derive(Clone, Debug, Default)]
pub struct LayerSplit {
    /// The time the layers must add up to.
    pub end_to_end_s: f64,
    /// Seconds per layer (never includes the benchmark's own `bench`).
    pub layers: BTreeMap<String, f64>,
}

impl LayerSplit {
    /// Builds a split from span self times, dropping the benchmark's own
    /// frames (which is what "unattributed" means).
    pub fn from_spans(end_to_end_s: f64, spans: &[SpanRec]) -> Self {
        let mut layers = self_seconds(spans);
        layers.remove("bench");
        LayerSplit {
            end_to_end_s,
            layers,
        }
    }

    /// Adds `s` seconds to `layer`.
    pub fn add(&mut self, layer: &str, s: f64) {
        *self.layers.entry(layer.to_string()).or_default() += s;
    }

    /// Seconds in `layer` (0 when absent).
    pub fn get(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0.0)
    }

    /// Share of the end-to-end time in `layer`, in percent.
    pub fn pct(&self, layer: &str) -> f64 {
        pct_of(self.get(layer), self.end_to_end_s)
    }

    /// The part of the end-to-end time no layer covers, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        let covered: f64 = self.layers.values().sum();
        pct_of(self.end_to_end_s - covered, self.end_to_end_s)
    }

    /// Human table: one row per layer plus the remainder.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title}: {:.3} s end to end\n", self.end_to_end_s);
        for (layer, s) in &self.layers {
            out.push_str(&format!(
                "  {layer:<14}{:>12.3} ms{:>8.1} %\n",
                s * 1e3,
                self.pct(layer)
            ));
        }
        out.push_str(&format!(
            "  {:<14}{:>12} {:>10.1} %\n",
            "unattributed",
            "",
            self.unattributed_pct()
        ));
        out
    }
}

fn pct_of(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Writes `spans` as JSONL (`{id, parent, name, start_ns, dur_ns}` per
/// line), creating the parent directory.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        let line = Json::obj(vec![
            ("id", Json::uint(s.id)),
            ("parent", Json::uint(s.parent)),
            ("name", Json::str(s.name.as_str())),
            ("start_ns", Json::uint(s.start_ns)),
            ("dur_ns", Json::uint(s.dur_ns)),
        ])
        .render();
        writeln!(w, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    w.flush().map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &str, dur_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: name.to_string(),
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            rec(1, 0, "bench.op", 1_000),
            rec(2, 1, "core.plan", 300),
            rec(3, 1, "cachesim.trace", 600),
            rec(4, 3, "core.plan", 100),
        ];
        let s = self_seconds(&spans);
        assert!((s["bench"] - 100e-9).abs() < 1e-15);
        assert!((s["core"] - 400e-9).abs() < 1e-15);
        assert!((s["cachesim"] - 500e-9).abs() < 1e-15);
        let split = LayerSplit::from_spans(1e-6, &spans);
        assert!(!split.layers.contains_key("bench"));
        assert!((split.unattributed_pct() - 10.0).abs() < 1e-9);
        assert!((split.pct("core") - 40.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.span("core.plan", 0);
        assert_eq!(s.id(), 0);
        drop(s);
        assert_eq!(t.record("x.y", 0, Instant::now(), Duration::ZERO), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_by_explicit_parent() {
        let t = Tracer::new(true);
        let root = t.span("bench.op", 0);
        let child = t.span("core.plan", root.id());
        let child_id = child.id();
        drop(child);
        let root_id = root.id();
        drop(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let c = spans.iter().find(|s| s.id == child_id).unwrap();
        assert_eq!(c.parent, root_id);
        assert_eq!(c.layer(), "core");
        assert_eq!(durations(&spans, "core.plan").len(), 1);
        assert_eq!(durations(&spans, "bench.").len(), 0);
        assert_eq!(durations(&spans, "bench.op").len(), 1);
    }
}
