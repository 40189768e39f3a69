//! Process-wide telemetry: a metrics registry, latency histograms and
//! distributed job spans.
//!
//! The per-run observability layer ([`crate::observe`]) answers "what did
//! *this* estimation do"; this module answers the fleet-level questions —
//! how fast are simulator batches, where does wall-clock go, how many
//! runs has this process completed — in a form scrapers can consume:
//!
//! * [`MetricsRegistry`] — a named collection of [`Counter`]s,
//!   [`Gauge`]s and [`Histogram`]s with get-or-create registration and a
//!   [Prometheus text exposition](MetricsRegistry::render_prometheus)
//!   renderer;
//! * [`Histogram`] — lock-free log-linear-bucket latency histogram with
//!   p50/p90/p99 [quantile estimates](Histogram::quantile);
//! * [`TraceContext`] / [`SpanRecord`] / [`SpanStore`] — distributed
//!   trace propagation: a deterministic (FNV-derived) trace id carried
//!   across process boundaries, completed job spans buffered in a
//!   bounded per-process ring for `GET /v1/jobs/{id}/trace`;
//! * [`SpanCollector`] — an [`Observer`] that folds pipeline stage
//!   events into [`SpanRecord`]s under one job root span. It is the one
//!   span system: `serve` stores its spans per job, the coordinator
//!   merges them into a cluster waterfall, and `ecripse-cli
//!   --trace-log` writes them as JSONL, one record per line;
//! * [`TelemetryObserver`] — the bridge from the [`Observer`] event
//!   stream into registry metrics.
//!
//! # Determinism contract
//!
//! Telemetry is **observation-only**. Every metric is derived either
//! from wall-clock time (which is excluded from the determinism contract
//! anyway) or from counters the deterministic pipeline already produces;
//! nothing here feeds back into any estimate. Attaching a
//! [`TelemetryObserver`] to a run changes no report field:
//! `tests/observability.rs` asserts that stripped [`RunReport`]s stay
//! bit-identical across thread counts with telemetry enabled.
//!
//! [`RunReport`]: crate::observe::RunReport
//!
//! # Example
//!
//! ```
//! use ecripse_core::telemetry::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter("requests_total", "Requests served.");
//! let latency = registry.histogram("latency_seconds", "Request latency.");
//! requests.inc();
//! latency.record(0.012);
//! let exposition = registry.render_prometheus();
//! assert!(exposition.contains("# TYPE requests_total counter"));
//! assert!(exposition.contains("latency_seconds_bucket"));
//! ```

use crate::observe::{
    ChunkStats, IterationStats, Observer, PrefetchStats, RunSummary, SimBatchStats, Stage,
    StageTiming,
};
use ecripse_stats::{fnv1a, FNV_OFFSET};
use parking_lot::{Mutex, RwLock};
use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Instant, SystemTime};

// ---------------------------------------------------------------------
// Atomic f64 helpers (the registry is lock-free on the hot path).
// ---------------------------------------------------------------------

fn atomic_f64_add(bits: &AtomicU64, delta: f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + delta).to_bits();
        match bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

fn atomic_f64_min(bits: &AtomicU64, value: f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(current) <= value {
            return;
        }
        match bits.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

fn atomic_f64_max(bits: &AtomicU64, value: f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(current) >= value {
            return;
        }
        match bits.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

// ---------------------------------------------------------------------
// Counter & Gauge
// ---------------------------------------------------------------------

/// A monotonically increasing `u64` metric. Cloning shares the value.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable `f64` metric. Cloning shares the value.
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0.0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (negative values decrement).
    pub fn add(&self, delta: f64) {
        atomic_f64_add(&self.bits, delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Log-linear bucket upper bounds: four linear sub-buckets per power of
/// two, covering ~1 µs to ~4096 s — a fixed layout, so histograms from
/// different processes aggregate bucket-by-bucket.
fn default_bounds() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(32 * 4);
    for exp in -20..=11_i32 {
        let base = 2.0f64.powi(exp);
        let width = base / 4.0;
        for sub in 1..=4_i32 {
            bounds.push(base + width * f64::from(sub));
        }
    }
    bounds
}

#[derive(Debug)]
struct HistogramCore {
    /// Strictly increasing bucket upper bounds; `counts` has one extra
    /// slot for the overflow (`+Inf`) bucket.
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// A lock-free latency histogram with log-linear buckets.
///
/// Values are seconds by convention. Negative values clamp to zero and
/// non-finite values are dropped — a histogram observation must never
/// poison the aggregate. Cloning shares the underlying buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh histogram with the default log-linear bucket layout.
    pub fn new() -> Self {
        let bounds = default_bounds();
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            core: Arc::new(HistogramCore {
                bounds,
                counts,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0.0f64.to_bits()),
                min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
                max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            }),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let v = value.max(0.0);
        // First bucket whose upper bound covers `v` (`le` semantics).
        let idx = self.core.bounds.partition_point(|&b| b < v);
        self.core.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.core.sum_bits, v);
        atomic_f64_min(&self.core.min_bits, v);
        atomic_f64_max(&self.core.max_bits, v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest recorded observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        if self.count() == 0 {
            None
        } else {
            Some(f64::from_bits(self.core.min_bits.load(Ordering::Relaxed)))
        }
    }

    /// Largest recorded observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        if self.count() == 0 {
            None
        } else {
            Some(f64::from_bits(self.core.max_bits.load(Ordering::Relaxed)))
        }
    }

    /// Estimates the `q`-quantile (`q` clamps to `[0, 1]`) from the
    /// bucket counts: it finds the bucket holding the rank-`q`
    /// observation and interpolates linearly by rank between the
    /// bucket's lower and upper bound, each clamped into `[min, max]`
    /// (so one bucket holding every observation spreads them over the
    /// recorded range). The estimate is monotone in `q` and always
    /// bounded by the recorded extremes — the invariants
    /// `tests/telemetry_props.rs` property-tests.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let (min, max) = match (self.min(), self.max()) {
            (Some(min), Some(max)) => (min, max),
            _ => return None,
        };
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, bucket) in self.core.counts.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if cumulative + n >= target {
                // Bucket `i` spans `(bounds[i − 1], bounds[i]]`, the first
                // from 0 and the overflow bucket to +∞.
                let bounds = &self.core.bounds;
                let lower = i.checked_sub(1).map_or(0.0, |j| bounds[j]).clamp(min, max);
                let upper = bounds
                    .get(i)
                    .copied()
                    .unwrap_or(f64::INFINITY)
                    .clamp(min, max);
                let share = (target - cumulative) as f64 / n as f64;
                return Some((lower + (upper - lower) * share).min(upper));
            }
            cumulative += n;
        }
        Some(max)
    }

    /// Convenience accessor: the (p50, p90, p99) quantile estimates.
    pub fn percentiles(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.quantile(0.50)?,
            self.quantile(0.90)?,
            self.quantile(0.99)?,
        ))
    }

    /// Renders this histogram's Prometheus series (`_bucket`, `_sum`,
    /// `_count`) into `out`. Empty buckets are skipped — cumulative `le`
    /// counts stay correct — and the mandatory `+Inf` bucket is always
    /// emitted.
    fn render_prometheus_into(&self, name: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, bucket) in self.core.counts.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            cumulative += n;
            let last = i == self.core.counts.len() - 1;
            if n == 0 && !last {
                continue;
            }
            let le = if last {
                "+Inf".to_string()
            } else {
                fmt_prom_f64(self.core.bounds[i])
            };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_sum {}", fmt_prom_f64(self.sum()));
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double quote and newline must be escaped so a hostile
/// value (say, a worker name containing quotes) cannot break the
/// exposition out of its `label="value"` framing.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Appends one `# HELP`/`# TYPE`/sample triple of Prometheus text
/// exposition for an unlabelled scalar of type `kind` (`gauge` or
/// `counter`). Non-finite values render as `+Inf`/`-Inf`/`NaN`.
pub fn prom_scalar(out: &mut String, name: &str, kind: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {}", fmt_prom_f64(value));
}

/// Prometheus-style float rendering (`+Inf`/`-Inf`/`NaN` for the
/// non-finite values the text format defines).
fn fmt_prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Clone, Debug)]
struct Registered {
    help: String,
    metric: Metric,
}

/// A named collection of metrics with get-or-create registration.
///
/// Handles returned by [`counter`](Self::counter) /
/// [`gauge`](Self::gauge) / [`histogram`](Self::histogram) share state
/// with the registry, so recording is lock-free; the registry lock is
/// only taken at registration and render time. Names should follow
/// Prometheus conventions (`[a-zA-Z_:][a-zA-Z0-9_:]*`). Re-registering
/// a name with a *different* metric kind returns a fresh detached
/// instance instead of panicking — the original keeps the name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Registered>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        help: &str,
        wrap: impl Fn(T) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<T>,
        fresh: impl Fn() -> T,
    ) -> T {
        if let Some(existing) = self.metrics.read().get(name) {
            if let Some(metric) = unwrap(&existing.metric) {
                return metric;
            }
            return fresh(); // kind mismatch: detached instance
        }
        let mut map = self.metrics.write();
        if let Some(existing) = map.get(name) {
            return unwrap(&existing.metric).unwrap_or_else(&fresh);
        }
        let metric = fresh();
        map.insert(
            name.to_string(),
            Registered {
                help: help.to_string(),
                metric: wrap(metric.clone()),
            },
        );
        metric
    }

    /// Gets or creates a counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.register(
            name,
            help,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Counter::new,
        )
    }

    /// Gets or creates a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.register(
            name,
            help,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Gauge::new,
        )
    }

    /// Gets or creates a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.register(
            name,
            help,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Histogram::new,
        )
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.read().len()
    }

    /// Whether no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.read().is_empty()
    }

    /// Renders every registered metric in the
    /// [Prometheus text exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/):
    /// `# HELP`/`# TYPE` headers plus one sample line per series, in
    /// stable (sorted-by-name) order.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, reg) in self.metrics.read().iter() {
            let help = reg.help.replace('\\', "\\\\").replace('\n', "\\n");
            match &reg.metric {
                Metric::Counter(c) => prom_scalar(&mut out, name, "counter", &help, c.get() as f64),
                Metric::Gauge(g) => prom_scalar(&mut out, name, "gauge", &help, g.get()),
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} histogram");
                    h.render_prometheus_into(name, &mut out);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Distributed trace context & span records
// ---------------------------------------------------------------------

/// Renders a trace/span id as the 16-hex-digit form it crosses the wire
/// in (JSON numbers are `f64`-backed, so raw `u64` ids would lose bits).
pub fn fmt_hex_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a hex trace/span id (1–16 digits accepted).
pub fn parse_hex_id(text: &str) -> Option<u64> {
    if text.is_empty() || text.len() > 16 {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// The trace identity a request carries across process boundaries.
///
/// Derived with FNV-1a from deterministic inputs (job id + RNG seed),
/// so a journal replay of the same job reconstructs the same trace —
/// trace ids are part of the reproducibility story, not random. The
/// context travels two ways: a `traceparent`-style HTTP header
/// ([`traceparent`](Self::traceparent)) and an optional serde-defaulted
/// body field on the serve wire types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the whole distributed job; every span anywhere in the
    /// cluster that belongs to the job shares this id.
    pub trace_id: u64,
    /// The span this process's work nests under (`0` = the trace root).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// The root context for a job: a deterministic trace id from the
    /// job id and RNG seed, with no parent span.
    pub fn for_job(job_id: u64, seed: u64) -> Self {
        let mut bytes = Vec::with_capacity(29);
        bytes.extend_from_slice(b"ecripse-trace");
        bytes.extend_from_slice(&job_id.to_le_bytes());
        bytes.extend_from_slice(&seed.to_le_bytes());
        Self {
            trace_id: fnv1a(FNV_OFFSET, &bytes).max(1),
            parent_span_id: 0,
        }
    }

    /// A deterministic span id scoped to this trace: the same label in
    /// the same trace always maps to the same id.
    pub fn span_id(&self, label: &str) -> u64 {
        let mut bytes = Vec::with_capacity(8 + label.len());
        bytes.extend_from_slice(&self.trace_id.to_le_bytes());
        bytes.extend_from_slice(label.as_bytes());
        fnv1a(FNV_OFFSET, &bytes).max(1)
    }

    /// The id of the `job` root span `node` records in this trace —
    /// node-qualified, so the roots of a coordinator and its workers
    /// never collide.
    pub fn job_span_id(&self, node: &str) -> u64 {
        self.span_id(&format!("{node}/job"))
    }

    /// The context a downstream process should continue under: same
    /// trace, parented to the span named `label` here.
    #[must_use]
    pub fn child(&self, label: &str) -> Self {
        Self {
            trace_id: self.trace_id,
            parent_span_id: self.span_id(label),
        }
    }

    /// Renders the W3C-`traceparent`-style header value
    /// (`00-{trace_id}-{parent_span_id}-01`; the 64-bit trace id is
    /// zero-extended to the 128-bit field).
    pub fn traceparent(&self) -> String {
        format!(
            "00-{:032x}-{:016x}-01",
            u128::from(self.trace_id),
            self.parent_span_id
        )
    }

    /// Parses a `traceparent`-style header value; `None` on anything
    /// that is not the version-00 shape.
    pub fn parse_traceparent(header: &str) -> Option<Self> {
        let parts: Vec<&str> = header.trim().split('-').collect();
        if parts.len() != 4 || parts[0] != "00" || parts[1].len() != 32 || parts[2].len() != 16 {
            return None;
        }
        let trace = u128::from_str_radix(parts[1], 16).ok()?;
        let span = u64::from_str_radix(parts[2], 16).ok()?;
        #[allow(clippy::cast_possible_truncation)]
        let trace_id = trace as u64;
        if trace_id == 0 {
            return None;
        }
        Some(Self {
            trace_id,
            parent_span_id: span,
        })
    }
}

impl Serialize for TraceContext {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "trace_id".to_string(),
                Value::String(fmt_hex_id(self.trace_id)),
            ),
            (
                "parent_span_id".to_string(),
                Value::String(fmt_hex_id(self.parent_span_id)),
            ),
        ])
    }
}

impl Deserialize for TraceContext {
    fn from_value(value: &Value) -> Option<Self> {
        Some(Self {
            trace_id: parse_hex_id(value.get("trace_id")?.as_str()?)?,
            parent_span_id: parse_hex_id(value.get("parent_span_id")?.as_str()?)?,
        })
    }
}

/// One completed span in a job's distributed timeline. Ids are carried
/// as 16-hex-digit strings (the wire is f64-backed JSON); timestamps
/// are unix seconds from a per-process monotonic anchor, so spans from
/// one process never go backwards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace this span belongs to (16 hex digits).
    pub trace_id: String,
    /// This span's id (16 hex digits).
    pub span_id: String,
    /// The span this one nests under (16 hex digits; all-zero = root).
    pub parent_span_id: String,
    /// Human-readable span name (`job`, `shard-3`, a stage name, …).
    pub name: String,
    /// Which process recorded the span (worker name, `coordinator`, …).
    pub node: String,
    /// Start time, unix seconds.
    pub start_ts: f64,
    /// Wall-clock duration in seconds.
    pub duration_s: f64,
}

impl SpanRecord {
    /// End time (`start_ts + duration_s`), unix seconds.
    pub fn end_ts(&self) -> f64 {
        self.start_ts + self.duration_s
    }
}

/// A bounded ring of per-job span lists: the per-process buffer behind
/// `GET /v1/jobs/{id}/trace`. When the ring is full, inserting a new
/// job evicts the oldest one; re-inserting an existing job replaces its
/// spans in place.
#[derive(Debug)]
pub struct SpanStore {
    capacity: usize,
    jobs: Mutex<VecDeque<(u64, Vec<SpanRecord>)>>,
}

impl SpanStore {
    /// A store retaining at most `capacity` jobs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            jobs: Mutex::new(VecDeque::new()),
        }
    }

    /// Stores (or replaces) the spans of `job_id`, evicting the oldest
    /// job when the ring is full.
    pub fn insert(&self, job_id: u64, spans: Vec<SpanRecord>) {
        let mut jobs = self.jobs.lock();
        if let Some(entry) = jobs.iter_mut().find(|(id, _)| *id == job_id) {
            entry.1 = spans;
            return;
        }
        while jobs.len() >= self.capacity {
            jobs.pop_front();
        }
        jobs.push_back((job_id, spans));
    }

    /// The spans recorded for `job_id`, if the ring still holds them.
    pub fn get(&self, job_id: u64) -> Option<Vec<SpanRecord>> {
        self.jobs
            .lock()
            .iter()
            .find(|(id, _)| *id == job_id)
            .map(|(_, spans)| spans.clone())
    }

    /// Number of jobs currently buffered.
    pub fn len(&self) -> usize {
        self.jobs.lock().len()
    }

    /// Whether the ring holds no job.
    pub fn is_empty(&self) -> bool {
        self.jobs.lock().is_empty()
    }
}

struct CollectorState {
    /// Stage-start offsets (seconds since the collector's epoch), one
    /// slot per open stage, keyed by the thread that opened it and the
    /// stage name: a stage opens and closes on the thread that runs it,
    /// so concurrent sweep points never pair with each other's starts.
    open: Vec<(ThreadId, &'static str, f64)>,
    spans: Vec<SpanRecord>,
    /// Disambiguates repeated stage names (a sweep re-runs the pipeline
    /// per point) in the deterministic span-id derivation.
    sequence: u64,
}

/// An [`Observer`] that folds pipeline stage events into
/// [`SpanRecord`]s: one root span covering the collector's lifetime
/// plus one child span per completed stage, all under the job's
/// [`TraceContext`]. Observation-only, like every other observer —
/// attach/detach never changes a report.
pub struct SpanCollector {
    context: TraceContext,
    node: String,
    root_span_id: u64,
    anchor_unix_s: f64,
    epoch: Instant,
    state: Mutex<CollectorState>,
}

impl std::fmt::Debug for SpanCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanCollector")
            .field("trace_id", &fmt_hex_id(self.context.trace_id))
            .field("node", &self.node)
            .finish()
    }
}

impl SpanCollector {
    /// A collector for one job on `node`. The root span (named `job`)
    /// starts now and parents to `context.parent_span_id`; its id is
    /// deterministic ([`TraceContext::job_span_id`]).
    pub fn new(context: TraceContext, node: impl Into<String>) -> Self {
        let node = node.into();
        let root_span_id = context.job_span_id(&node);
        Self {
            context,
            node,
            root_span_id,
            anchor_unix_s: unix_now_seconds(),
            epoch: Instant::now(),
            state: Mutex::new(CollectorState {
                open: Vec::new(),
                spans: Vec::new(),
                sequence: 0,
            }),
        }
    }

    /// The root span's id — what a downstream context should parent to.
    pub fn root_span_id(&self) -> u64 {
        self.root_span_id
    }

    /// Closes the root span and returns every recorded span, root
    /// first, stage spans in completion order.
    pub fn finish(self) -> Vec<SpanRecord> {
        let duration = self.epoch.elapsed().as_secs_f64();
        let state = self.state.into_inner();
        let trace_id = fmt_hex_id(self.context.trace_id);
        let mut spans = vec![SpanRecord {
            trace_id,
            span_id: fmt_hex_id(self.root_span_id),
            parent_span_id: fmt_hex_id(self.context.parent_span_id),
            name: "job".to_string(),
            node: self.node,
            start_ts: self.anchor_unix_s,
            duration_s: duration,
        }];
        spans.extend(state.spans);
        spans
    }

    fn offset(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

impl Observer for SpanCollector {
    fn stage_started(&self, stage: Stage) {
        let offset = self.offset();
        let thread = std::thread::current().id();
        self.state.lock().open.push((thread, stage.name(), offset));
    }

    fn stage_finished(&self, stage: Stage, _timing: &StageTiming) {
        let end = self.offset();
        let thread = std::thread::current().id();
        let mut state = self.state.lock();
        let start = match state
            .open
            .iter()
            .rposition(|&(t, name, _)| t == thread && name == stage.name())
        {
            Some(index) => state.open.remove(index).2,
            // Unmatched finish (no start observed): zero-length span.
            None => end,
        };
        let sequence = state.sequence;
        state.sequence += 1;
        let label = format!("{}/{}/{sequence}", self.node, stage.name());
        state.spans.push(SpanRecord {
            trace_id: fmt_hex_id(self.context.trace_id),
            span_id: fmt_hex_id(self.context.span_id(&label)),
            parent_span_id: fmt_hex_id(self.root_span_id),
            name: stage.name().to_string(),
            node: self.node.clone(),
            start_ts: self.anchor_unix_s + start,
            duration_s: (end - start).max(0.0),
        });
    }
}

/// Unix seconds right now (0 when the clock predates the epoch — a
/// broken clock must not panic telemetry).
fn unix_now_seconds() -> f64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// Observer → registry bridge
// ---------------------------------------------------------------------

/// Bridges the [`Observer`] event stream into a [`MetricsRegistry`].
///
/// Registered metrics:
///
/// | metric | kind | source |
/// |---|---|---|
/// | `ecripse_runs_started_total` | counter | `run_started` |
/// | `ecripse_runs_finished_total` | counter | `run_finished` |
/// | `ecripse_filter_iterations_total` | counter | `iteration_finished` |
/// | `ecripse_stage2_chunks_total` | counter | `chunk_finished` |
/// | `ecripse_simulations_total` | counter | `sim_batch_finished`, plus `prefetch_finished` consumed |
/// | `ecripse_prefetch_evaluated_total` | counter | `prefetch_finished` |
/// | `ecripse_prefetch_consumed_total` | counter | `prefetch_finished` |
/// | `ecripse_cache_hits_total` | counter | `run_finished` |
/// | `ecripse_cache_misses_total` | counter | `run_finished` |
/// | `ecripse_classified_total` | counter | `run_finished` |
/// | `ecripse_sim_batch_seconds` | histogram | `sim_batch_finished` |
/// | `ecripse_stage_seconds` | histogram | `stage_finished` |
/// | `ecripse_last_estimate` | gauge | `run_finished` |
///
/// The three oracle counters take a whole run's totals from its
/// [`RunSummary`], stage-2 answers included, so they agree with the
/// run's report; a run that does not finish adds nothing to them.
///
/// All state is atomic, so one bridge may observe concurrently running
/// sweep points. Everything recorded is wall-clock or derived from the
/// deterministic counters — attaching the bridge never changes a result
/// or a report (see the module-level determinism notes).
#[derive(Debug)]
pub struct TelemetryObserver {
    runs_started: Counter,
    runs_finished: Counter,
    iterations: Counter,
    chunks: Counter,
    simulations: Counter,
    prefetch_evaluated: Counter,
    prefetch_consumed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    classified: Counter,
    sim_batch_seconds: Histogram,
    stage_seconds: Histogram,
    last_estimate: Gauge,
}

impl TelemetryObserver {
    /// A bridge registering its metrics in `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            runs_started: registry
                .counter("ecripse_runs_started_total", "Estimation runs started."),
            runs_finished: registry
                .counter("ecripse_runs_finished_total", "Estimation runs completed."),
            iterations: registry.counter(
                "ecripse_filter_iterations_total",
                "Particle-filter iterations completed.",
            ),
            chunks: registry.counter(
                "ecripse_stage2_chunks_total",
                "Stage-2 importance-sampling chunks completed.",
            ),
            simulations: registry.counter(
                "ecripse_simulations_total",
                "Transistor-level simulations evaluated.",
            ),
            prefetch_evaluated: registry.counter(
                "ecripse_prefetch_evaluated_total",
                "Stage-2 simulations run ahead of need while the classifier retrained.",
            ),
            prefetch_consumed: registry.counter(
                "ecripse_prefetch_consumed_total",
                "Simulations run ahead of need that a routed chunk consumed.",
            ),
            cache_hits: registry.counter(
                "ecripse_cache_hits_total",
                "Simulator queries served from the memo-cache.",
            ),
            cache_misses: registry.counter(
                "ecripse_cache_misses_total",
                "Simulator queries that missed the memo-cache.",
            ),
            classified: registry.counter(
                "ecripse_classified_total",
                "Indicator queries answered by the classifier.",
            ),
            sim_batch_seconds: registry.histogram(
                "ecripse_sim_batch_seconds",
                "Wall-clock latency of raw simulator batches.",
            ),
            stage_seconds: registry.histogram(
                "ecripse_stage_seconds",
                "Wall-clock latency of completed pipeline stages.",
            ),
            last_estimate: registry.gauge(
                "ecripse_last_estimate",
                "Most recent failure-probability estimate.",
            ),
        }
    }
}

impl Observer for TelemetryObserver {
    fn run_started(&self, _seed: u64, _threads: usize) {
        self.runs_started.inc();
    }

    fn stage_finished(&self, _stage: Stage, timing: &StageTiming) {
        self.stage_seconds.record(timing.wall_seconds);
    }

    fn iteration_finished(&self, _stats: &IterationStats) {
        self.iterations.inc();
    }

    fn chunk_finished(&self, _chunk: &ChunkStats) {
        self.chunks.inc();
    }

    fn sim_batch_finished(&self, stats: &SimBatchStats) {
        self.simulations.add(stats.batch);
        self.sim_batch_seconds.record(stats.wall_seconds);
    }

    fn prefetch_finished(&self, stats: &PrefetchStats) {
        self.prefetch_evaluated.add(stats.evaluated);
        self.prefetch_consumed.add(stats.consumed);
        // A consumed evaluation is a counted simulation that no timed
        // batch carried.
        self.simulations.add(stats.consumed);
    }

    fn run_finished(&self, summary: &RunSummary) {
        self.runs_finished.inc();
        self.cache_hits.add(summary.oracle.cache_hits);
        self.cache_misses.add(summary.oracle.cache_misses);
        self.classified.add(summary.oracle.classified);
        self.last_estimate.set(summary.p_fail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_state_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        let g2 = g.clone();
        g.set(2.5);
        g2.add(-0.5);
        assert_eq!(g.get(), 2.0);
    }

    #[test]
    fn histogram_bounds_are_strictly_increasing() {
        let bounds = default_bounds();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(bounds[0] < 2e-6, "covers microseconds: {}", bounds[0]);
        assert!(
            *bounds.last().unwrap() >= 4000.0,
            "covers over an hour: {}",
            bounds.last().unwrap()
        );
    }

    #[test]
    fn histogram_basic_accounting() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_none());
        for v in [0.001, 0.002, 0.004, 0.008, 0.016] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 0.031).abs() < 1e-12);
        assert_eq!(h.min(), Some(0.001));
        assert_eq!(h.max(), Some(0.016));
        // Non-finite records are dropped; negatives clamp to zero.
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 5);
        h.record(-3.0);
        assert_eq!(h.min(), Some(0.0));
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0);
        }
        let (p50, p90, p99) = h.percentiles().expect("recorded");
        assert!(p50 <= p90 && p90 <= p99);
        assert!((0.4..=0.6).contains(&p50), "p50 = {p50}");
        assert!((0.9..=1.0).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(0.0).expect("min side") >= h.min().unwrap());
        assert!(h.quantile(1.0).expect("max side") <= h.max().unwrap());
    }

    #[test]
    fn quantiles_interpolate_inside_a_bucket() {
        // 1,000 observations spread evenly over (1.0, 1.25], one bucket
        // of the default layout; the exact median is 1.125.
        let h = Histogram::new();
        for k in 0..1000 {
            h.record(1.0 + 0.25 * (f64::from(k) + 0.5) / 1000.0);
        }
        let p50 = h.quantile(0.5).expect("recorded");
        assert!(
            (p50 - 1.125).abs() < 0.01 * 1.125,
            "p50 = {p50}, exact median 1.125"
        );
        let p90 = h.quantile(0.9).expect("recorded");
        assert!((p90 - 1.225).abs() < 0.01 * 1.225, "p90 = {p90}");
    }

    #[test]
    fn registry_get_or_create_returns_shared_handles() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.len(), 1);
        // Kind mismatch: detached instance, registry untouched.
        let g = r.gauge("x_total", "not a counter");
        g.set(9.0);
        assert_eq!(a.get(), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn prometheus_exposition_contains_all_series() {
        let r = MetricsRegistry::new();
        r.counter("jobs_total", "Jobs.").add(3);
        r.gauge("queue_depth", "Depth.").set(1.5);
        let h = r.histogram("latency_seconds", "Latency.");
        h.record(0.125);
        h.record(0.250);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP jobs_total Jobs.\n"));
        assert!(text.contains("# TYPE jobs_total counter\njobs_total 3\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth 1.5\n"));
        assert!(text.contains("# TYPE latency_seconds histogram\n"));
        assert!(text.contains("latency_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("latency_seconds_sum 0.375\n"));
        assert!(text.contains("latency_seconds_count 2\n"));
        // Cumulative bucket counts are non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "cumulative counts must not decrease: {line}");
            last = n;
        }
    }

    #[test]
    fn telemetry_observer_bridges_events_into_metrics() {
        let registry = MetricsRegistry::new();
        let bridge = TelemetryObserver::new(&registry);
        bridge.run_started(7, 2);
        bridge.sim_batch_finished(&SimBatchStats {
            batch: 32,
            wall_seconds: 0.004,
        });
        bridge.prefetch_finished(&PrefetchStats {
            evaluated: 5,
            consumed: 3,
            wall_seconds: 0.002,
        });
        bridge.stage_finished(
            Stage::ParticleFilter,
            &StageTiming {
                wall_seconds: 0.5,
                simulations: 32,
            },
        );
        // An iteration's oracle delta is part of the run's totals; only
        // `run_finished` adds them, or stage 1 would count twice.
        bridge.iteration_finished(&IterationStats {
            iteration: 0,
            candidates: 64,
            zero_weight_candidates: 0,
            ess: vec![8.0],
            filters_resampled: 1,
            filters_reseeded: 0,
            filters_total: 1,
            spread: 1.0,
            oracle: crate::observe::OracleDelta {
                classified: 32,
                cache_hits: 2,
                cache_misses: 30,
                ..Default::default()
            },
        });
        bridge.run_finished(&RunSummary {
            p_fail: 1.25e-4,
            ci95_half_width: 1e-5,
            simulations: 32,
            is_samples: 100,
            effective_sample_size: 10.0,
            oracle: crate::oracle::OracleStats {
                classified: 90,
                cache_hits: 4,
                cache_misses: 31,
                ..Default::default()
            },
            margins: crate::oracle::MarginStats::default(),
            bank_labels: 0,
            bank_rows: 0,
        });
        let text = registry.render_prometheus();
        assert!(text.contains("ecripse_runs_started_total 1"));
        assert!(text.contains("ecripse_runs_finished_total 1"));
        assert!(text.contains("ecripse_simulations_total 35"));
        assert!(text.contains("ecripse_prefetch_evaluated_total 5"));
        assert!(text.contains("ecripse_prefetch_consumed_total 3"));
        assert!(text.contains("ecripse_sim_batch_seconds_count 1"));
        assert!(text.contains("ecripse_stage_seconds_count 1"));
        assert!(text.contains("ecripse_last_estimate 0.000125"));
        assert!(text.contains("ecripse_filter_iterations_total 1"));
        assert!(text.contains("ecripse_classified_total 90\n"));
        assert!(text.contains("ecripse_cache_hits_total 4\n"));
        assert!(text.contains("ecripse_cache_misses_total 31\n"));
    }

    #[test]
    fn trace_context_is_deterministic_and_replay_stable() {
        let a = TraceContext::for_job(7, 42);
        let b = TraceContext::for_job(7, 42);
        assert_eq!(a, b, "same job + seed must derive the same trace");
        assert_ne!(a, TraceContext::for_job(8, 42));
        assert_ne!(a, TraceContext::for_job(7, 43));
        assert_ne!(a.trace_id, 0);
        assert_eq!(a.parent_span_id, 0);
        // Span ids: deterministic per label, distinct across labels.
        assert_eq!(a.span_id("w1/job"), b.span_id("w1/job"));
        assert_ne!(a.span_id("w1/job"), a.span_id("w2/job"));
        let child = a.child("shard-0");
        assert_eq!(child.trace_id, a.trace_id);
        assert_eq!(child.parent_span_id, a.span_id("shard-0"));
    }

    #[test]
    fn traceparent_header_round_trips() {
        let ctx = TraceContext {
            trace_id: 0x1234_5678_9abc_def0,
            parent_span_id: 0x0fed_cba9_8765_4321,
        };
        let header = ctx.traceparent();
        assert_eq!(
            header,
            "00-0000000000000000123456789abcdef0-0fedcba987654321-01"
        );
        assert_eq!(TraceContext::parse_traceparent(&header), Some(ctx));
        for bad in [
            "",
            "01-0000000000000000123456789abcdef0-0fedcba987654321-01",
            "00-123-0fedcba987654321-01",
            "00-0000000000000000123456789abcdef0-0fedcba987654321",
            "00-00000000000000000000000000000000-0fedcba987654321-01",
        ] {
            assert_eq!(TraceContext::parse_traceparent(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn trace_context_serialises_ids_as_hex_strings() {
        let ctx = TraceContext::for_job(3, 9).child("w1/job");
        let json = serde_json::to_string(&ctx).expect("serialise");
        assert!(json.contains(&format!("\"{}\"", fmt_hex_id(ctx.trace_id))));
        let back: TraceContext = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, ctx);
    }

    #[test]
    fn label_escaping_neutralises_hostile_values() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_label_value("ünïcode"), "ünïcode");
    }

    #[test]
    fn span_store_ring_evicts_oldest_and_replaces_in_place() {
        let store = SpanStore::new(2);
        let span = |id: u64| SpanRecord {
            trace_id: fmt_hex_id(id),
            span_id: fmt_hex_id(id + 1),
            parent_span_id: fmt_hex_id(0),
            name: "job".into(),
            node: "test".into(),
            start_ts: 1.0,
            duration_s: 0.5,
        };
        store.insert(1, vec![span(1)]);
        store.insert(2, vec![span(2)]);
        store.insert(3, vec![span(3)]);
        assert_eq!(store.len(), 2);
        assert!(store.get(1).is_none(), "oldest job must be evicted");
        assert!(store.get(2).is_some() && store.get(3).is_some());
        // Re-inserting an existing job replaces without evicting.
        store.insert(2, vec![span(2), span(20)]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(2).expect("kept").len(), 2);
        assert!(store.get(3).is_some());
    }

    #[test]
    fn span_collector_builds_a_rooted_timeline() {
        let ctx = TraceContext::for_job(5, 11).child("shard-0");
        let collector = SpanCollector::new(ctx, "w1");
        collector.stage_started(Stage::BoundarySearch);
        collector.stage_finished(
            Stage::BoundarySearch,
            &StageTiming {
                wall_seconds: 0.0,
                simulations: 1,
            },
        );
        collector.stage_started(Stage::ImportanceSampling);
        collector.stage_finished(
            Stage::ImportanceSampling,
            &StageTiming {
                wall_seconds: 0.0,
                simulations: 2,
            },
        );
        let root_id = fmt_hex_id(collector.root_span_id());
        let spans = collector.finish();
        assert_eq!(spans.len(), 3);
        let root = &spans[0];
        assert_eq!(root.name, "job");
        assert_eq!(root.span_id, root_id);
        assert_eq!(root.parent_span_id, fmt_hex_id(ctx.parent_span_id));
        for span in &spans {
            assert_eq!(span.trace_id, fmt_hex_id(ctx.trace_id));
            assert_eq!(span.node, "w1");
            assert!(span.duration_s >= 0.0);
            assert!(span.start_ts >= root.start_ts);
            assert!(span.end_ts() <= root.end_ts() + 1e-6);
        }
        // Stage spans parent to the root and carry distinct ids.
        assert_eq!(spans[1].parent_span_id, root_id);
        assert_eq!(spans[2].parent_span_id, root_id);
        assert_ne!(spans[1].span_id, spans[2].span_id);
        assert_eq!(spans[1].name, "boundary_search");
        assert_eq!(spans[2].name, "importance_sampling");
    }

    #[test]
    fn span_collector_pairs_stages_per_thread() {
        // Two sweep points run the same stage on two threads at once:
        // A starts, B starts, A finishes, B finishes. Each span must
        // start where its own thread opened the stage.
        use std::sync::Barrier;
        use std::thread::sleep;
        use std::time::Duration;

        let collector = SpanCollector::new(TraceContext::for_job(1, 2), "cli");
        let step = Barrier::new(2);
        let pause = Duration::from_millis(50);
        let timing = StageTiming {
            wall_seconds: 0.0,
            simulations: 0,
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                collector.stage_started(Stage::ParticleFilter);
                step.wait();
                step.wait();
                sleep(pause);
                collector.stage_finished(Stage::ParticleFilter, &timing);
                step.wait();
            });
            scope.spawn(|| {
                step.wait();
                sleep(pause);
                collector.stage_started(Stage::ParticleFilter);
                step.wait();
                step.wait();
                sleep(pause);
                collector.stage_finished(Stage::ParticleFilter, &timing);
            });
        });
        let spans = collector.finish();
        assert_eq!(spans.len(), 3);
        // Completion order: A's span first, then B's.
        let (a, b) = (&spans[1], &spans[2]);
        assert!(
            a.start_ts + 0.04 < b.start_ts,
            "A's span must start at A's start, before B's: {} vs {}",
            a.start_ts,
            b.start_ts
        );
        for span in [a, b] {
            assert!(span.duration_s >= 0.09, "span too short: {span:?}");
        }
    }
}
