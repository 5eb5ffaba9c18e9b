//! Live metric handles for the trace-ingestion frontend.
//!
//! Registered once into [`pad_telemetry::registry`] and cached, so the
//! streaming read path touches only its own atomics. Every update site
//! is gated on [`pad_telemetry::metrics_enabled`].
//!
//! | metric                              | kind      | meaning                                 |
//! |-------------------------------------|-----------|-----------------------------------------|
//! | `pad_ingest_records_total`          | counter   | trace records decoded and fed to a sink |
//! | `pad_ingest_bytes_total`            | counter   | raw bytes consumed by trace readers     |
//! | `pad_ingest_malformed_total`        | counter   | reads refused as not-a-well-formed trace|
//! | `pad_ingest_replays_total`          | counter   | traces read to the end                  |
//! | `pad_ingest_replay_us`              | histogram | wall time of each complete read         |
//! | `pad_ingest_replay_records_per_sec` | gauge     | throughput of the latest complete read  |
//!
//! A complete read's time includes its sink's work, so for a replay
//! into `pad_trace::Sinks` these time the whole replay.

use std::sync::{Arc, OnceLock};

use pad_telemetry::{Counter, Gauge, LatencyHistogram};

/// Cached handles to every ingest metric (see the module table).
pub struct IngestMetrics {
    /// Trace records decoded and fed to a sink.
    pub records: Arc<Counter>,
    /// Raw bytes consumed by the trace readers.
    pub bytes: Arc<Counter>,
    /// Reads refused because the stream was not a well-formed trace
    /// (bad magic, truncated record, garbage NDJSON — I/O errors are
    /// not the trace's fault and are excluded).
    pub malformed: Arc<Counter>,
    /// Traces read to the end.
    pub replays: Arc<Counter>,
    /// Wall time of each complete read, in microseconds.
    pub replay_us: Arc<LatencyHistogram>,
    /// Records per second of the most recent complete read.
    pub replay_records_per_sec: Arc<Gauge>,
}

/// The process-global ingest metric handles (registered on first call).
pub fn ingest_metrics() -> &'static IngestMetrics {
    static METRICS: OnceLock<IngestMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = pad_telemetry::registry();
        IngestMetrics {
            records: r.counter("pad_ingest_records_total"),
            bytes: r.counter("pad_ingest_bytes_total"),
            malformed: r.counter("pad_ingest_malformed_total"),
            replays: r.counter("pad_ingest_replays_total"),
            replay_us: r.histogram("pad_ingest_replay_us"),
            replay_records_per_sec: r.gauge("pad_ingest_replay_records_per_sec"),
        }
    })
}
