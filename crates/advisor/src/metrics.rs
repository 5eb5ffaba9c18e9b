//! The advisor's metric families, one set per [`crate::Server`].
//!
//! Each server registers its families into a [`MetricsRegistry`] of its
//! own and records them unconditionally: they are the server's only
//! tally. The `stats` op is a view of them ([`AdvisorMetrics::stats_json`]),
//! and the `metrics` op renders them merged with the process-global
//! [`pad_telemetry::registry`] ([`AdvisorMetrics::snapshot_json`]). Two
//! servers in one process never share a count. Handles are cached at
//! construction, so the request path touches only its own atomics —
//! never a registry mutex.
//!
//! Metric families (all `pad_advisor_`-prefixed):
//!
//! | metric                               | kind      | meaning                                   |
//! |--------------------------------------|-----------|-------------------------------------------|
//! | `requests_total{op=...}`             | counter   | frames received, per operation            |
//! | `request_latency_us{op=...}`         | histogram | receipt-to-response latency               |
//! | `ok_total`                           | counter   | advise answers `ok` (fresh or cached)     |
//! | `errors_total{kind=...}`             | counter   | typed refusals, per [`ErrorKind`]         |
//! | `shed_total`                         | counter   | frames shed by the full admission queue   |
//! | `degraded_total`                     | counter   | fast-rung answers to exact-wanting asks   |
//! | `cache_hits_total`                   | counter   | answers spliced from the store            |
//! | `simulations_total`                  | counter   | exact (simulation-backed) analyses run    |
//! | `queue_depth`                        | gauge     | jobs waiting in the admission queue       |
//! | `inflight`                           | gauge     | jobs currently inside an isolation cell   |
//! | `slo_good_total` / `slo_bad_total`   | counter   | advise answers within / beyond the SLO    |
//!
//! SLO semantics: an advise request is *good* when it is answered `ok`
//! within `RIVERA_SLO_MS` ([`pad_telemetry::SLO_ENV`]); everything else
//! that reaches a response — typed errors, sheds, timeouts, or merely
//! slow successes — is *bad*. The burn ratio `bad / (good + bad)` is
//! derived by consumers (`padtool top`, dashboards), not stored.

use std::sync::Arc;

use pad_telemetry::{self as telemetry, Counter, Gauge, LatencyHistogram, MetricsRegistry};

use crate::json::Json;
use crate::protocol::ErrorKind;

/// The operations that get per-op request accounting.
pub const OPS: [&str; 4] = ["advise", "metrics", "ping", "stats"];

const ERROR_KINDS: [ErrorKind; 7] = [
    ErrorKind::Malformed,
    ErrorKind::Oversized,
    ErrorKind::Parse,
    ErrorKind::Invalid,
    ErrorKind::Overloaded,
    ErrorKind::Timeout,
    ErrorKind::Internal,
];

/// One server's registry and cached handles to every advisor metric
/// (see the module table).
pub struct AdvisorMetrics {
    registry: MetricsRegistry,
    requests: Vec<Arc<Counter>>,
    latency: Vec<Arc<LatencyHistogram>>,
    errors: Vec<Arc<Counter>>,
    /// Advise requests answered `ok`, fresh or from the store.
    pub ok: Arc<Counter>,
    /// Frames shed by the full admission queue.
    pub shed: Arc<Counter>,
    /// Fast-rung answers to requests that wanted exact.
    pub degraded: Arc<Counter>,
    /// Answers served from the persistent store.
    pub cache_hits: Arc<Counter>,
    /// Exact simulation-backed analyses run.
    pub simulations: Arc<Counter>,
    /// Jobs waiting in the admission queue.
    pub queue_depth: Arc<Gauge>,
    /// Jobs currently inside an isolation cell.
    pub inflight: Arc<Gauge>,
    /// Advise answers that met the SLO.
    pub slo_good: Arc<Counter>,
    /// Advise answers that missed it (errors and sheds included).
    pub slo_bad: Arc<Counter>,
    /// The SLO threshold in microseconds, captured at construction
    /// (`None` when `RIVERA_SLO_MS=0` disabled SLO accounting).
    pub slo_us: Option<u64>,
}

impl AdvisorMetrics {
    /// A fresh registry with every advisor family registered at zero.
    pub(crate) fn new() -> Self {
        let r = MetricsRegistry::new();
        let requests = OPS
            .iter()
            .map(|op| {
                r.counter_with(
                    "pad_advisor_requests_total",
                    "Frames received, per operation.",
                    &[("op", op)],
                )
            })
            .collect();
        let latency = OPS
            .iter()
            .map(|op| {
                r.histogram_with(
                    "pad_advisor_request_latency_us",
                    "Receipt-to-response latency in microseconds.",
                    &[("op", op)],
                )
            })
            .collect();
        let errors = ERROR_KINDS
            .iter()
            .map(|kind| {
                r.counter_with(
                    "pad_advisor_errors_total",
                    "Typed refusals, per error kind.",
                    &[("kind", kind.wire())],
                )
            })
            .collect();
        AdvisorMetrics {
            requests,
            latency,
            errors,
            ok: r.counter(
                "pad_advisor_ok_total",
                "Advise requests answered ok, fresh or from the store.",
            ),
            shed: r.counter(
                "pad_advisor_shed_total",
                "Frames shed by the full admission queue.",
            ),
            degraded: r.counter(
                "pad_advisor_degraded_total",
                "Fast-rung answers to requests that wanted exact.",
            ),
            cache_hits: r.counter(
                "pad_advisor_cache_hits_total",
                "Answers served from the persistent store.",
            ),
            simulations: r.counter(
                "pad_advisor_simulations_total",
                "Exact (simulation-backed) analyses run.",
            ),
            queue_depth: r.gauge(
                "pad_advisor_queue_depth",
                "Jobs waiting in the admission queue.",
            ),
            inflight: r.gauge(
                "pad_advisor_inflight",
                "Jobs currently inside an isolation cell.",
            ),
            slo_good: r.counter(
                "pad_advisor_slo_good_total",
                "Advise answers within the RIVERA_SLO_MS threshold.",
            ),
            slo_bad: r.counter(
                "pad_advisor_slo_bad_total",
                "Advise answers beyond the threshold, errors and sheds included.",
            ),
            slo_us: telemetry::slo_threshold_us(),
            registry: r,
        }
    }

    fn op_index(op: &str) -> usize {
        OPS.iter().position(|&o| o == op).unwrap_or(0)
    }

    /// The `requests_total` counter for `op`.
    pub fn requests(&self, op: &str) -> &Counter {
        &self.requests[Self::op_index(op)]
    }

    /// The `request_latency_us` histogram for `op`.
    pub fn latency(&self, op: &str) -> &LatencyHistogram {
        &self.latency[Self::op_index(op)]
    }

    /// The `errors_total` counter for `kind`.
    pub fn error(&self, kind: ErrorKind) -> &Counter {
        let i = ERROR_KINDS
            .iter()
            .position(|&k| k == kind)
            .expect("every ErrorKind is registered");
        &self.errors[i]
    }

    /// Closes the books on one advise request: counts an `ok` answer and
    /// records its latency and its SLO verdict (good only when it
    /// answered `ok` within the threshold).
    pub fn finish_advise(&self, start_us: u64, ok: bool) {
        if ok {
            self.ok.inc();
        }
        let elapsed = telemetry::now_us().saturating_sub(start_us);
        self.latency("advise").record(elapsed);
        match self.slo_us {
            Some(slo) if ok && elapsed <= slo => self.slo_good.inc(),
            Some(_) => self.slo_bad.inc(),
            None => {}
        }
    }

    /// The `stats` op response body: ten request tallies read off the
    /// families, plus the store's replay count. `timeouts` and `panics`
    /// are the `timeout` and `internal` error counts, which only deadline
    /// blowouts and caught handler panics produce.
    pub fn stats_json(&self, replayed: usize) -> Json {
        let int = |v: u64| Json::Int(v as i64);
        let errors = self.errors.iter().map(|c| c.get()).sum();
        Json::Obj(vec![
            ("requests".into(), int(self.requests("advise").get())),
            ("ok".into(), int(self.ok.get())),
            ("errors".into(), int(errors)),
            ("shed".into(), int(self.shed.get())),
            ("cache_hits".into(), int(self.cache_hits.get())),
            ("simulations".into(), int(self.simulations.get())),
            ("degraded".into(), int(self.degraded.get())),
            ("timeouts".into(), int(self.error(ErrorKind::Timeout).get())),
            ("panics".into(), int(self.error(ErrorKind::Internal).get())),
            ("replayed".into(), Json::Int(replayed as i64)),
        ])
    }

    /// The `metrics` op response body: a deterministic JSON rendering of
    /// the process registry merged, in key order, with this server's.
    /// Counters and gauges flatten to `name{label="v"}: value` maps;
    /// histograms carry count, sum, max, and the p50/p95/p99 the log2
    /// buckets resolve. `slo_ms` echoes the threshold captured at
    /// construction (`0` = disabled) so clients can compute burn against
    /// the same line the server scored.
    pub fn snapshot_json(&self) -> Json {
        let snap = telemetry::registry()
            .snapshot()
            .merge(self.registry.snapshot());
        let scalars = |metrics: &[telemetry::SnapshotMetric]| {
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let v = match m.value {
                            telemetry::SnapshotValue::Counter(v) => Json::Int(v as i64),
                            telemetry::SnapshotValue::Gauge(v) => Json::Int(v),
                            telemetry::SnapshotValue::Histogram(_) => {
                                unreachable!("scalar metrics")
                            }
                        };
                        (m.flat_name(), v)
                    })
                    .collect(),
            )
        };
        let histograms = Json::Obj(
            snap.histograms
                .iter()
                .filter_map(|m| {
                    let telemetry::SnapshotValue::Histogram(h) = &m.value else {
                        return None;
                    };
                    Some((
                        m.flat_name(),
                        Json::Obj(vec![
                            ("count".into(), Json::Int(h.histogram.count() as i64)),
                            ("sum".into(), Json::Int(h.sum as i64)),
                            ("max".into(), Json::Int(h.histogram.max() as i64)),
                            ("p50".into(), Json::Int(h.histogram.percentile(50.0) as i64)),
                            ("p95".into(), Json::Int(h.histogram.percentile(95.0) as i64)),
                            ("p99".into(), Json::Int(h.histogram.percentile(99.0) as i64)),
                        ]),
                    ))
                })
                .collect(),
        );
        Json::Obj(vec![
            ("enabled".into(), Json::Bool(telemetry::metrics_enabled())),
            ("uptime_us".into(), Json::Int(telemetry::now_us() as i64)),
            (
                "slo_ms".into(),
                Json::Int(self.slo_us.map_or(0, |us| (us / 1000) as i64)),
            ),
            ("counters".into(), scalars(&snap.counters)),
            ("gauges".into(), scalars(&snap.gauges)),
            ("histograms".into(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_error_kind_has_a_counter() {
        let m = AdvisorMetrics::new();
        for kind in ERROR_KINDS {
            // Must not panic, and distinct kinds map to distinct counters.
            let _ = m.error(kind);
        }
        let a = m.error(ErrorKind::Timeout) as *const Counter;
        let b = m.error(ErrorKind::Internal) as *const Counter;
        assert_ne!(a, b);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_typed() {
        let m = AdvisorMetrics::new();
        m.requests("ping").inc();
        m.latency("ping").record(17);
        let a = m.snapshot_json().to_string();
        let b = m.snapshot_json().to_string();
        // uptime_us differs between calls; everything else must not.
        let strip = |s: &str| {
            let start = s.find("\"uptime_us\":").expect("uptime present");
            let end = s[start..].find(',').expect("more fields") + start;
            format!("{}{}", &s[..start], &s[end..])
        };
        assert_eq!(strip(&a), strip(&b));
        assert!(a.contains("\"counters\":{"), "{a}");
        // Flat names carry literal quotes, escaped in the JSON text.
        assert!(
            a.contains("pad_advisor_requests_total{op=\\\"ping\\\"}"),
            "{a}"
        );
        assert!(a.contains("\"p99\":"), "{a}");
    }
}
