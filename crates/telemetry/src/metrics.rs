//! Live service metrics: registries of monotonic counters, gauges, and
//! latency histograms, cheap enough to leave in the request path of a
//! long-running server. One registry is process-global ([`registry`]);
//! each advisor server keeps another of its own.
//!
//! The event/span layer in this crate answers *post-hoc* questions —
//! what did a sweep do, where did the time go. This module answers the
//! *live* ones: how many requests per second is `padtool serve`
//! answering right now, at what p99, with how deep a queue. It follows
//! the same discipline as the event layer:
//!
//! * the disabled state costs one relaxed atomic load per
//!   instrumentation site ([`metrics_enabled`]). No environment
//!   variable sets it: the program calls [`set_metrics_enabled`]
//!   (`padtool serve` turns it on; sweeps leave it off);
//! * hot counters are single relaxed `fetch_add`s; latency histograms
//!   are **sharded** ([`HIST_SHARDS`] cache-line-aligned shards, one
//!   picked per recording thread) so concurrent workers never contend
//!   on one cache line;
//! * registration takes a mutex, but every call site registers once
//!   through a `OnceLock` handle and then touches only its own atomics.
//!
//! Histograms reuse the crate's log2-bucketed [`Histogram`] for
//! percentile math: a snapshot folds the shards element-wise into one
//! `Histogram`, whose [`Histogram::percentile`] gives exact (to bucket
//! resolution) p50/p95/p99 over everything recorded since process
//! start.
//!
//! Snapshots ([`MetricsRegistry::snapshot`]) are deterministic: metrics
//! are keyed in a `BTreeMap` by (family, labels), so two snapshots of
//! an unchanged registry render byte-identically — the property the
//! Prometheus exposition in `pad_report` and the advisor's `metrics`
//! op both build on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::histogram::Histogram;

/// Environment variable setting the request-latency SLO threshold in
/// milliseconds (default [`DEFAULT_SLO_MS`]; `0` disables SLO
/// accounting). Requests answered within the threshold count as SLO
/// *good*, everything else — including sheds and errors — as *bad*.
pub const SLO_ENV: &str = "RIVERA_SLO_MS";

/// Default SLO latency threshold, in milliseconds.
pub const DEFAULT_SLO_MS: u64 = 250;

/// Shards per latency histogram. Each recording thread picks the shard
/// `thread_id % HIST_SHARDS`, so up to this many threads record
/// without sharing a cache line.
pub const HIST_SHARDS: usize = 8;

/// The single branch every metrics site takes while the layer is off.
static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// True when live metrics are being recorded. `#[inline]` + relaxed
/// load: the whole cost of a disabled site.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Turns the metrics layer on or off process-wide.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// The SLO latency threshold in microseconds (`None` when disabled via
/// `RIVERA_SLO_MS=0`). Unparseable values warn and fall back to the
/// default.
pub fn slo_threshold_us() -> Option<u64> {
    let ms = match std::env::var(SLO_ENV) {
        Err(_) => DEFAULT_SLO_MS,
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) => ms,
            Err(_) => {
                eprintln!("warning: ignoring {SLO_ENV}={raw:?} (want milliseconds; 0 disables)");
                DEFAULT_SLO_MS
            }
        },
    };
    (ms > 0).then(|| ms.saturating_mul(1000))
}

/// A monotonic counter. Cloned `Arc` handles all update the same
/// value; reads are relaxed snapshots.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous value (queue depth, in-flight requests). Signed so
/// transient dips below a racing zero never wrap.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds one ([`Gauge::dec`] subtracts one).
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One cache-line-aligned shard of a latency histogram.
#[repr(align(64))]
struct HistShard {
    buckets: [AtomicU64; Histogram::BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A sharded log2-bucketed histogram of `u64` samples (latencies in
/// microseconds, by convention). Recording is three relaxed
/// `fetch_add`s on the calling thread's shard plus one `fetch_max`;
/// snapshots fold the shards into a [`Histogram`] for percentile math.
pub struct LatencyHistogram {
    shards: Vec<HistShard>,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            shards: (0..HIST_SHARDS).map(|_| HistShard::new()).collect(),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &s.histogram.count())
            .field("max", &s.histogram.max())
            .finish()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample on the calling thread's shard.
    #[inline]
    pub fn record(&self, value: u64) {
        let shard = &self.shards[crate::thread_id() as usize % HIST_SHARDS];
        shard.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Folds the shards into one immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; Histogram::BUCKETS];
        let mut sum = 0u64;
        for shard in &self.shards {
            for (acc, b) in buckets.iter_mut().zip(shard.buckets.iter()) {
                *acc += b.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
        }
        HistogramSnapshot {
            histogram: Histogram::from_buckets(buckets, self.max.load(Ordering::Relaxed)),
            sum,
        }
    }
}

/// An immutable fold of a [`LatencyHistogram`]: the merged log2
/// histogram (for [`Histogram::percentile`]) plus the exact sample
/// sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Merged bucket counts and maximum.
    pub histogram: Histogram,
    /// Exact sum of every recorded sample.
    pub sum: u64,
}

/// A metric's identity: family name plus a (sorted-at-registration,
/// rendered-verbatim) label list. Ordering is the registry's snapshot
/// order, hence the exposition order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

fn key_of(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    MetricKey {
        name: name.to_string(),
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    }
}

/// The value kinds a snapshot carries.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// A monotonic counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A latency histogram's folded shards (boxed: the bucket array
    /// dwarfs the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// One metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMetric {
    /// Family name (e.g. `pad_advisor_requests_total`).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Help text registered with the family.
    pub help: String,
    /// The value.
    pub value: SnapshotValue,
}

impl SnapshotMetric {
    /// The `name{k="v",...}` form used as a stable flat key in the
    /// advisor's `metrics` op.
    pub fn flat_name(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut s = String::with_capacity(self.name.len() + 16);
        s.push_str(&self.name);
        s.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(k);
            s.push_str("=\"");
            s.push_str(v);
            s.push('"');
        }
        s.push('}');
        s
    }
}

/// A deterministic point-in-time copy of every registered metric,
/// ordered by (family name, labels).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Every counter, in key order.
    pub counters: Vec<SnapshotMetric>,
    /// Every gauge, in key order.
    pub gauges: Vec<SnapshotMetric>,
    /// Every histogram, in key order.
    pub histograms: Vec<SnapshotMetric>,
}

impl MetricsSnapshot {
    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// This snapshot and `other` as one, in key order: what a single
    /// registry holding both sets of metrics would snapshot.
    pub fn merge(mut self, other: MetricsSnapshot) -> MetricsSnapshot {
        for (mine, theirs) in [
            (&mut self.counters, other.counters),
            (&mut self.gauges, other.gauges),
            (&mut self.histograms, other.histograms),
        ] {
            mine.extend(theirs);
            mine.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        }
        self
    }

    /// Looks a counter up by flat name (`name` or `name{k="v"}`).
    pub fn counter(&self, flat: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|m| m.flat_name() == flat)
            .and_then(|m| match m.value {
                SnapshotValue::Counter(v) => Some(v),
                _ => None,
            })
    }

    /// Looks a gauge up by flat name.
    pub fn gauge(&self, flat: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|m| m.flat_name() == flat)
            .and_then(|m| match m.value {
                SnapshotValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// Looks a histogram up by flat name.
    pub fn histogram(&self, flat: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|m| m.flat_name() == flat)
            .and_then(|m| match &m.value {
                SnapshotValue::Histogram(h) => Some(h.as_ref()),
                _ => None,
            })
    }
}

/// A metrics registry. Metric handles are registered once
/// (mutex-guarded) and updated lock-free thereafter; snapshots
/// iterate the sorted key space so output order is deterministic.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<LatencyHistogram>>>,
    help: Mutex<BTreeMap<String, String>>,
}

fn poisoned<T>(e: std::sync::PoisonError<T>) -> T {
    e.into_inner()
}

impl MetricsRegistry {
    /// An empty registry, separate from the process-global [`registry`].
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn note_help(&self, name: &str, help: &str) {
        self.help
            .lock()
            .unwrap_or_else(poisoned)
            .entry(name.to_string())
            .or_insert_with(|| help.to_string());
    }

    /// Gets or registers the counter `name` (no labels).
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Gets or registers the counter `name{labels}`.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.note_help(name, help);
        Arc::clone(
            self.counters
                .lock()
                .unwrap_or_else(poisoned)
                .entry(key_of(name, labels))
                .or_default(),
        )
    }

    /// Gets or registers the gauge `name` (no labels).
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Gets or registers the gauge `name{labels}`.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.note_help(name, help);
        Arc::clone(
            self.gauges
                .lock()
                .unwrap_or_else(poisoned)
                .entry(key_of(name, labels))
                .or_default(),
        )
    }

    /// Gets or registers the latency histogram `name` (no labels).
    pub fn histogram(&self, name: &str, help: &str) -> Arc<LatencyHistogram> {
        self.histogram_with(name, help, &[])
    }

    /// Gets or registers the latency histogram `name{labels}`.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<LatencyHistogram> {
        self.note_help(name, help);
        Arc::clone(
            self.histograms
                .lock()
                .unwrap_or_else(poisoned)
                .entry(key_of(name, labels))
                .or_default(),
        )
    }

    /// A deterministic point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let help = self.help.lock().unwrap_or_else(poisoned).clone();
        let help_of = |name: &str| help.get(name).cloned().unwrap_or_default();
        let metric = |key: &MetricKey, value: SnapshotValue| SnapshotMetric {
            name: key.name.clone(),
            labels: key.labels.clone(),
            help: help_of(&key.name),
            value,
        };
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap_or_else(poisoned)
                .iter()
                .map(|(k, c)| metric(k, SnapshotValue::Counter(c.get())))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap_or_else(poisoned)
                .iter()
                .map(|(k, g)| metric(k, SnapshotValue::Gauge(g.get())))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(poisoned)
                .iter()
                .map(|(k, h)| metric(k, SnapshotValue::Histogram(Box::new(h.snapshot()))))
                .collect(),
        }
    }
}

/// The process-global registry every instrumented layer registers
/// into. Created on first use; never torn down.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_flag_round_trips() {
        // Process-global; keep the end state off for sibling tests.
        set_metrics_enabled(true);
        assert!(metrics_enabled());
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = MetricsRegistry::new();
        let c = r.counter("t_total", "a test counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same underlying metric.
        assert_eq!(r.counter("t_total", "a test counter").get(), 5);

        let g = r.gauge("t_depth", "a test gauge");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_shards_fold_into_exact_percentiles() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.histogram.count(), 1000);
        assert_eq!(snap.histogram.max(), 1000);
        assert_eq!(snap.sum, (1..=1000u64).sum::<u64>());
        assert!(snap.histogram.percentile(50.0) >= 500);
        assert_eq!(snap.histogram.percentile(100.0), 1000);
    }

    #[test]
    fn histogram_recording_is_thread_safe_across_shards() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t_latency_us", "latency");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for v in 0..250u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().histogram.count(), 1000);
    }

    #[test]
    fn snapshots_are_ordered_and_stable() {
        let r = MetricsRegistry::new();
        r.counter("b_total", "second").inc();
        r.counter("a_total", "first").add(2);
        r.counter_with("c_total", "labeled", &[("op", "ping")])
            .inc();
        r.counter_with("c_total", "labeled", &[("op", "advise")])
            .add(3);
        let snap = r.snapshot();
        let names: Vec<String> = snap
            .counters
            .iter()
            .map(SnapshotMetric::flat_name)
            .collect();
        assert_eq!(
            names,
            [
                "a_total",
                "b_total",
                "c_total{op=\"advise\"}",
                "c_total{op=\"ping\"}"
            ]
        );
        assert_eq!(snap.counter("a_total"), Some(2));
        assert_eq!(snap.counter("c_total{op=\"advise\"}"), Some(3));
        assert_eq!(snap, r.snapshot(), "unchanged registry snapshots equal");
    }

    #[test]
    fn merged_snapshots_keep_key_order() {
        let (one, two, both) = (
            MetricsRegistry::new(),
            MetricsRegistry::new(),
            MetricsRegistry::new(),
        );
        for (r, name, labels) in [
            (&one, "a_total", &[][..]),
            (&two, "a_total_x", &[][..]),
            (&one, "a_total", &[("op", "ping")][..]),
            (&two, "b_total", &[][..]),
        ] {
            r.counter_with(name, "help", labels).inc();
            both.counter_with(name, "help", labels).inc();
        }
        two.gauge("g", "gauge").set(4);
        both.gauge("g", "gauge").set(4);
        assert_eq!(one.snapshot().merge(two.snapshot()), both.snapshot());
    }

    #[test]
    fn env_parsing_is_forgiving() {
        // slo_threshold_us reads the real environment; only the pure
        // pieces are testable without racing other tests, so pin the
        // SLO default instead.
        assert_eq!(DEFAULT_SLO_MS, 250);
    }
}
