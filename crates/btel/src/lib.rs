//! # btel — BinTuner's unified telemetry plane.
//!
//! The engine, the evaluation farm and the daemon all instrument
//! through this crate instead of rolling their own rate math (one EWMA,
//! one hit-rate ratio), and the daemon keeps its counters here and
//! nowhere else. The substrate:
//!
//! * **Metrics core** — [`Counter`] and [`Gauge`] are single relaxed
//!   atomics; [`Histogram`] is a fixed array of log2 buckets over
//!   microseconds (deterministic bucketing, no allocation on the hot
//!   path); [`Ewma`] is the one exponentially-weighted moving average,
//!   with the zero/NaN/negative sample guards both former copies
//!   needed. All live behind a [`Registry`] of named metric families
//!   with optional single-label children (per-tenant, per-client,
//!   per-tier).
//! * **Trace spans** — [`Tracer`] records [`SpanRecord`]s
//!   (`id`/`parent`, monotonic-clock offsets and durations) into a
//!   bounded ring buffer. Span ids are plain `u64`s, so a span context
//!   crosses process boundaries as one integer: a farm worker's stage
//!   spans parent to the dispatching server's shard span by carrying
//!   the server-issued id in their `parent` field.
//! * **Exposition** — [`Registry::render_text`] produces a
//!   Prometheus-style text page; [`spans_to_jsonl`] serializes a trace
//!   for offline profiling.
//!
//! ## The Off-mode purity contract
//!
//! Telemetry defaults to [`TelemetryMode::Off`] everywhere it is
//! threaded. In Off mode instrumented code takes *no* clock readings
//! and touches *no* telemetry state — the instrumented hot paths are
//! bit-identical to their pre-instrumentation selves, which is what
//! keeps the reproduction's trajectory differentials (in-process ≡
//! service ≡ process farm) meaningful.
//!
//! Monotonic-clock discipline: every duration in this crate comes from
//! [`std::time::Instant`]. The non-monotonic system wall clock never
//! appears on a hot path (CI grep-gates the identifier).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Whether a component records telemetry.
///
/// `Off` (the default) is a hard purity contract, not a filter: code
/// holding `Off` must not read clocks or touch telemetry state at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// No telemetry: bit-identical to pre-instrumentation behavior.
    #[default]
    Off,
    /// Record counters, histograms and trace spans.
    On,
}

impl TelemetryMode {
    /// Whether telemetry is enabled.
    pub fn is_on(self) -> bool {
        self == TelemetryMode::On
    }
}

/// The one shared ratio: `part / total`, defined as `0` when `total`
/// is zero. Replaces the three hand-rolled copies of hit-rate math
/// (engine stats, iteration database, bench output).
pub fn ratio(part: f64, total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        part / total
    }
}

/// A monotonically increasing counter (one relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (one relaxed atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value outright.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: values up to `2^31` µs (~36 minutes) get
/// their own bucket; everything larger lands in the last one.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket log2 histogram over microseconds.
///
/// Bucket `i` counts observations with `2^(i-1) ≤ µs < 2^i` (bucket 0
/// holds sub-microsecond observations). Bucketing is a pure function
/// of the observed duration — deterministic across runs — and
/// observation is a handful of relaxed atomic adds: no allocation, no
/// locks, no floating point on the hot path beyond the seconds→µs
/// conversion.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index a duration in microseconds falls into.
    pub fn bucket_index(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Record one duration, given in seconds. Negative or non-finite
    /// measurements are dropped (a histogram of wall times must never
    /// be poisoned by a clock anomaly).
    pub fn observe_seconds(&self, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        self.observe_us((seconds * 1e6) as u64);
    }

    /// Record one duration in microseconds.
    pub fn observe_us(&self, us: u64) {
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative), in bucket order.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// The exponentially-weighted moving average — the estimator behind
/// the evaluation server's per-client dispatch-time model.
///
/// The update is the *convex-combination* form
/// `v' = (1 − α)·v + α·x` (not the algebraically equal
/// `v + α·(x − v)`): the scheduler's cost-model tests pin exact
/// floating-point trajectories, so the unified estimator keeps the
/// form those bits were produced by.
///
/// Non-finite or negative samples are rejected (`observe` returns
/// `false`) instead of poisoning the average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// An empty estimator with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Ewma {
        Ewma { alpha, value: None }
    }

    /// Fold one sample in. The first accepted sample seeds the average
    /// outright. Returns whether the sample was accepted (non-finite
    /// and negative samples are dropped).
    pub fn observe(&mut self, x: f64) -> bool {
        if !x.is_finite() || x < 0.0 {
            return false;
        }
        self.value = Some(match self.value {
            None => x,
            Some(v) => (1.0 - self.alpha) * v + self.alpha * x,
        });
        true
    }

    /// The current average, `None` before the first accepted sample.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// What kind of metric a registry family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Log2 duration histogram.
    Histogram,
}

#[derive(Debug)]
enum Child {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: MetricKind,
    /// Label key shared by every labeled child (single-label model:
    /// `tenant`, `client`, `tier`, `stage` — all this repo needs).
    label: Option<&'static str>,
    /// Children by label value; the unlabeled child keys on `""`.
    children: BTreeMap<String, Child>,
}

/// A registry of statically-declared metric families.
///
/// Declaration (`counter`/`gauge`/`histogram` and their `_with`
/// labeled variants) is lock-per-call and returns an `Arc` handle;
/// instrumented code resolves its handles **once** at construction and
/// then updates plain atomics — the registry lock is never on a hot
/// path. Re-declaring a family returns the existing child, so any
/// layer can ask for a handle without coordinating who was first.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn child(
        &self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        label: Option<(&'static str, &str)>,
    ) -> Child {
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            label: label.map(|(k, _)| k),
            children: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric family {name} redeclared as a different kind"
        );
        let value = label.map(|(_, v)| v).unwrap_or("");
        let child = family
            .children
            .entry(value.to_string())
            .or_insert_with(|| match kind {
                MetricKind::Counter => Child::Counter(Arc::new(Counter::new())),
                MetricKind::Gauge => Child::Gauge(Arc::new(Gauge::new())),
                MetricKind::Histogram => Child::Histogram(Arc::new(Histogram::new())),
            });
        match child {
            Child::Counter(c) => Child::Counter(Arc::clone(c)),
            Child::Gauge(g) => Child::Gauge(Arc::clone(g)),
            Child::Histogram(h) => Child::Histogram(Arc::clone(h)),
        }
    }

    /// Declare (or fetch) an unlabeled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        match self.child(name, help, MetricKind::Counter, None) {
            Child::Counter(c) => c,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Declare (or fetch) a labeled counter child.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        value: &str,
    ) -> Arc<Counter> {
        match self.child(name, help, MetricKind::Counter, Some((label, value))) {
            Child::Counter(c) => c,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Declare (or fetch) an unlabeled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        match self.child(name, help, MetricKind::Gauge, None) {
            Child::Gauge(g) => g,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Declare (or fetch) an unlabeled histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        match self.child(name, help, MetricKind::Histogram, None) {
            Child::Histogram(h) => h,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Declare (or fetch) a labeled histogram child.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
        value: &str,
    ) -> Arc<Histogram> {
        match self.child(name, help, MetricKind::Histogram, Some((label, value))) {
            Child::Histogram(h) => h,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Read a counter child's value without keeping a handle (`None`
    /// when the family or child does not exist) — the introspection
    /// seam tests and benches use.
    pub fn counter_value(&self, name: &str, label_value: Option<&str>) -> Option<u64> {
        let families = self.families.lock().unwrap();
        match families
            .get(name)?
            .children
            .get(label_value.unwrap_or(""))?
        {
            Child::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Sorted label values of a family's children (the empty string is
    /// the unlabeled child).
    pub fn label_values(&self, name: &str) -> Vec<String> {
        self.families
            .lock()
            .unwrap()
            .get(name)
            .map(|f| f.children.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Render the whole registry as a Prometheus-style text page:
    /// `# HELP` / `# TYPE` headers per family, one sample line per
    /// child, `_bucket`/`_sum`/`_count` expansion for histograms.
    /// Families and children render in sorted order, so the page is
    /// deterministic given the metric values. Label values are escaped
    /// as the Prometheus text format requires (`\\`, `\"`, `\n`), so a
    /// value taken from a client — a daemon tenant name — cannot end
    /// its sample line or forge another.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().unwrap();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            let kind = match family.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (value, child) in &family.children {
                let labels = |extra: Option<(&str, String)>| -> String {
                    let mut parts = Vec::new();
                    if let (Some(key), false) = (family.label, value.is_empty()) {
                        parts.push(format!("{key}=\"{}\"", escape_label(value)));
                    }
                    if let Some((k, v)) = extra {
                        parts.push(format!("{k}=\"{v}\""));
                    }
                    if parts.is_empty() {
                        String::new()
                    } else {
                        format!("{{{}}}", parts.join(","))
                    }
                };
                match child {
                    Child::Counter(c) => {
                        out.push_str(&format!("{name}{} {}\n", labels(None), c.get()));
                    }
                    Child::Gauge(g) => {
                        out.push_str(&format!("{name}{} {}\n", labels(None), g.get()));
                    }
                    Child::Histogram(h) => {
                        let buckets = h.buckets();
                        let mut cumulative = 0u64;
                        for (i, b) in buckets.iter().enumerate() {
                            cumulative += b;
                            let le = if i == HISTOGRAM_BUCKETS - 1 {
                                "+Inf".to_string()
                            } else {
                                // Upper bound of bucket i is 2^i µs.
                                format!("{}", (1u64 << i) as f64 / 1e6)
                            };
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                labels(Some(("le", le))),
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            labels(None),
                            h.sum_us() as f64 / 1e6
                        ));
                        out.push_str(&format!("{name}_count{} {}\n", labels(None), h.count()));
                    }
                }
            }
        }
        out
    }
}

/// A label value escaped for the text page: backslash, double quote
/// and newline become `\\`, `\"` and `\n`.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One recorded trace span. Offsets and durations are microseconds on
/// the recording tracer's monotonic clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within (at least) the issuing tracer.
    pub id: u64,
    /// Parent span id; `0` means root.
    pub parent: u64,
    /// Stage or operation name (`ast`, `lower`, `mir`, `dispatch`, …).
    pub name: String,
    /// Start offset from the recording tracer's epoch, µs.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Client id of the process that recorded the span (`0` for the
    /// server / in-process tracer; farm workers stamp their client id
    /// when spans are stitched in).
    pub client: u32,
}

struct TracerInner {
    epoch: Instant,
    next_id: AtomicU64,
    ring: Mutex<std::collections::VecDeque<SpanRecord>>,
    capacity: usize,
}

/// A trace-span recorder over a bounded ring buffer.
///
/// Cloning shares the buffer. A disabled tracer ([`Tracer::disabled`])
/// is a true no-op: `record` returns `0` without reading any clock, so
/// Off-mode code paths can hold one unconditionally.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A no-op tracer (the Off-mode default).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer with a ring of `capacity` spans; ids start at
    /// 1.
    pub fn enabled(capacity: usize) -> Tracer {
        Tracer::with_id_base(capacity, 0)
    }

    /// An enabled tracer whose span ids start at `id_base + 1` — farm
    /// workers use `(client_id + 1) << 48` so ids never collide with
    /// the server tracer's when traces are stitched.
    pub fn with_id_base(capacity: usize, id_base: u64) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(id_base + 1),
                ring: Mutex::new(std::collections::VecDeque::new()),
                capacity: capacity.max(1),
            })),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Reserve a span id without recording yet (for spans whose end is
    /// observed elsewhere, like a dispatch span closed by its result
    /// frame). Returns `0` when disabled.
    pub fn alloc_id(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.next_id.fetch_add(1, Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Record a completed span that started at `start`, allocating a
    /// fresh id. Returns the id (`0` when disabled).
    pub fn record(&self, name: &str, parent: u64, start: Instant) -> u64 {
        let id = self.alloc_id();
        if id != 0 {
            self.record_with_id(id, name, parent, start);
        }
        id
    }

    /// Record a completed span under a pre-allocated id.
    pub fn record_with_id(&self, id: u64, name: &str, parent: u64, start: Instant) {
        let Some(inner) = &self.inner else { return };
        let start_us = start
            .checked_duration_since(inner.epoch)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let dur_us = start.elapsed().as_micros() as u64;
        self.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_us,
            dur_us,
            client: 0,
        });
    }

    /// Append pre-built spans (e.g. stitched in off the wire from a
    /// farm worker). No-op when disabled.
    pub fn import(&self, spans: impl IntoIterator<Item = SpanRecord>) {
        if self.inner.is_none() {
            return;
        }
        for s in spans {
            self.push(s);
        }
    }

    fn push(&self, span: SpanRecord) {
        let Some(inner) = &self.inner else { return };
        let mut ring = inner.ring.lock().unwrap();
        while ring.len() >= inner.capacity {
            ring.pop_front();
        }
        ring.push_back(span);
    }

    /// Copy the buffered spans out, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map(|i| i.ring.lock().unwrap().iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Drain the buffered spans, oldest first (the farm worker's
    /// per-shard flush).
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map(|i| i.ring.lock().unwrap().drain(..).collect())
            .unwrap_or_default()
    }
}

/// Serialize spans as JSON Lines (one object per line) for offline
/// profiling — the format of a daemon's `TraceDump` and of any trace
/// file a caller writes from a run's or a farm's spans. Names are
/// stage/operation identifiers from this codebase (no escaping needed
/// beyond quotes and backslashes, which are escaped anyway).
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        let name = s.name.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"client\":{}}}\n",
            s.id, s.parent, name, s.start_us, s.dur_us, s.client
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_are_log2_and_deterministic() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = Histogram::new();
        h.observe_us(0);
        h.observe_us(3);
        h.observe_seconds(1e-6 * 3.0);
        h.observe_seconds(f64::NAN); // dropped
        h.observe_seconds(-1.0); // dropped
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.sum_us(), 6);
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        // The pinned values the daemon's former private copy carried:
        // α = 0.5, samples 10 → 10, 20 → 15, 15 → 15. All exact in
        // binary floating point, so they survive the unified
        // convex-combination form.
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert!(e.observe(10.0));
        assert_eq!(e.value(), Some(10.0));
        assert!(e.observe(20.0));
        assert_eq!(e.value(), Some(15.0));
        assert!(e.observe(15.0));
        assert_eq!(e.value(), Some(15.0));
    }

    #[test]
    fn ewma_guards_reject_poison_samples() {
        let mut e = Ewma::new(0.3);
        assert!(!e.observe(f64::NAN));
        assert!(!e.observe(f64::INFINITY));
        assert!(!e.observe(-0.5));
        assert_eq!(e.value(), None);
        assert!(e.observe(2.0));
        assert!(!e.observe(f64::NEG_INFINITY));
        assert_eq!(e.value(), Some(2.0));
    }

    #[test]
    fn ewma_matches_the_cost_model_update_bit_for_bit() {
        // The scheduler's former inline update, reproduced literally;
        // the unified estimator must track it to the last bit (its
        // cost-model tests pin exact values).
        const ALPHA: f64 = 0.3;
        let samples = [0.05, 0.2, 0.125, 1.75, 0.33, 0.05, 0.0001];
        let mut inline: Option<f64> = None;
        let mut unified = Ewma::new(ALPHA);
        for &per in &samples {
            inline = Some(match inline {
                None => per,
                Some(e) => (1.0 - ALPHA) * e + ALPHA * per,
            });
            assert!(unified.observe(per));
            assert_eq!(
                unified.value().unwrap().to_bits(),
                inline.unwrap().to_bits(),
                "EWMA form diverged at sample {per}"
            );
        }
    }

    #[test]
    fn registry_handles_are_shared_and_render_deterministically() {
        let reg = Registry::new();
        let a = reg.counter("bt_alpha_total", "first");
        let a2 = reg.counter("bt_alpha_total", "first");
        a.add(3);
        assert_eq!(a2.get(), 3, "re-declaration returns the same child");
        let t1 = reg.counter_with("bt_tier_hits", "per-tier", "tier", "1");
        let t0 = reg.counter_with("bt_tier_hits", "per-tier", "tier", "0");
        t1.add(2);
        t0.inc();
        let g = reg.gauge("bt_depth", "queue depth");
        g.set(5);
        assert_eq!(reg.counter_value("bt_alpha_total", None), Some(3));
        assert_eq!(reg.counter_value("bt_tier_hits", Some("1")), Some(2));
        assert_eq!(reg.counter_value("bt_tier_hits", Some("9")), None);
        assert_eq!(reg.label_values("bt_tier_hits"), vec!["0", "1"]);
        // A label value from a client that tries to close its sample
        // line and forge another must render escaped, on one line.
        reg.counter_with(
            "bt_tier_hits",
            "per-tier",
            "tier",
            "evil\"} 1\nbintuner_daemon_compiles_total{tenant=\"victim",
        )
        .inc();

        // Pinned golden exposition (counters + gauge; histogram page
        // pinned separately below).
        let expected = "\
# HELP bt_alpha_total first
# TYPE bt_alpha_total counter
bt_alpha_total 3
# HELP bt_depth queue depth
# TYPE bt_depth gauge
bt_depth 5
# HELP bt_tier_hits per-tier
# TYPE bt_tier_hits counter
bt_tier_hits{tier=\"0\"} 1
bt_tier_hits{tier=\"1\"} 2
bt_tier_hits{tier=\"evil\\\"} 1\\nbintuner_daemon_compiles_total{tenant=\\\"victim\"} 1
";
        assert_eq!(reg.render_text(), expected);
    }

    #[test]
    fn histogram_exposition_is_cumulative_with_inf_tail() {
        let reg = Registry::new();
        let h = reg.histogram("bt_wall_seconds", "stage wall");
        h.observe_us(0); // bucket 0
        h.observe_us(3); // bucket 2
        let text = reg.render_text();
        assert!(text.contains("# TYPE bt_wall_seconds histogram"));
        assert!(text.contains("bt_wall_seconds_bucket{le=\"0.000001\"} 1"));
        // Bucket 2's upper bound is 4 µs; cumulative count reaches 2.
        assert!(text.contains("bt_wall_seconds_bucket{le=\"0.000004\"} 2"));
        assert!(text.contains("bt_wall_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("bt_wall_seconds_sum 0.000003"));
        assert!(text.contains("bt_wall_seconds_count 2"));
    }

    #[test]
    fn disabled_tracer_is_a_true_noop() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.alloc_id(), 0);
        assert_eq!(t.record("x", 0, Instant::now()), 0);
        t.import(vec![SpanRecord {
            id: 1,
            parent: 0,
            name: "x".into(),
            start_us: 0,
            dur_us: 0,
            client: 0,
        }]);
        assert!(t.snapshot().is_empty());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn tracer_records_parents_and_bounds_the_ring() {
        let t = Tracer::enabled(3);
        let root = t.record("root", 0, Instant::now());
        assert_eq!(root, 1);
        for i in 0..5 {
            t.record(&format!("s{i}"), root, Instant::now());
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 3, "ring capacity bounds the buffer");
        assert!(spans.iter().all(|s| s.parent == root));
        assert_eq!(spans.last().unwrap().name, "s4");
        // Ids are unique and increasing.
        assert!(spans.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(t.drain().len(), 3);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn id_bases_partition_the_id_space() {
        let server = Tracer::enabled(8);
        let worker = Tracer::with_id_base(8, 3u64 << 48);
        let s = server.record("dispatch", 0, Instant::now());
        let w = worker.record("mir", s, Instant::now());
        assert_eq!(s, 1);
        assert_eq!(w, (3u64 << 48) + 1);
        assert_ne!(s, w);
    }

    #[test]
    fn jsonl_roundtrips_structure() {
        let spans = vec![
            SpanRecord {
                id: 2,
                parent: 1,
                name: "lower".into(),
                start_us: 10,
                dur_us: 25,
                client: 4,
            },
            SpanRecord {
                id: 3,
                parent: 0,
                name: "odd\"name\\".into(),
                start_us: 0,
                dur_us: 0,
                client: 0,
            },
        ];
        let jsonl = spans_to_jsonl(&spans);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\":2,\"parent\":1,\"name\":\"lower\",\"start_us\":10,\"dur_us\":25,\"client\":4}"
        );
        assert!(lines[1].contains("odd\\\"name\\\\"));
    }

    #[test]
    fn ratio_guards_zero_totals() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(0.0, 9.0), 0.0);
    }
}
