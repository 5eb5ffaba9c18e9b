//! Prometheus text-format (v0.0.4) exposition of a metrics snapshot.
//!
//! [`render_prometheus`] turns a [`MetricsSnapshot`] into the plain-text
//! format every Prometheus-compatible scraper reads: `# HELP` / `# TYPE`
//! headers per family, one sample line per metric, histogram families
//! expanded into cumulative `_bucket{le="..."}` series plus `_sum` and
//! `_count`.
//!
//! The rendering is **byte-stable**: snapshots order metrics by
//! (family, labels) and this renderer adds nothing nondeterministic (no
//! timestamps, no uptime), so rendering the same snapshot — or two
//! snapshots of an unchanged registry — produces identical bytes. The
//! `telemetry` verify gate asserts exactly that.
//!
//! Histogram buckets: the native log2 buckets would emit 65 series per
//! histogram, most empty; the exposition instead emits bounds of the
//! form `2^k - 1` for odd `k` up to [`MAX_BUCKET_POW2`] (`le="1"`,
//! `le="7"`, ... `le="2147483647"` — microsecond-scaled, topping out
//! near 36 minutes) plus `+Inf`. The `2^k - 1` shape is what keeps the
//! cumulative counts *exact*: log2 bucket `k-1` spans
//! `[2^(k-1), 2^k - 1]`, so buckets `0..k` sum to precisely the samples
//! `<= 2^k - 1` — no within-bucket interpolation.

use pad_telemetry::{Histogram, MetricsSnapshot, SnapshotMetric, SnapshotValue};

/// Largest finite histogram bound emitted, as the exponent `k` of the
/// `le = 2^k - 1` ladder.
pub const MAX_BUCKET_POW2: u32 = 31;

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        // Label values are escaped per the exposition format.
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

fn write_header(out: &mut String, last_family: &mut String, m: &SnapshotMetric, kind: &str) {
    if *last_family == m.name {
        return; // one HELP/TYPE per family, before its first sample
    }
    last_family.clone_from(&m.name);
    if !m.help.is_empty() {
        out.push_str("# HELP ");
        out.push_str(&m.name);
        out.push(' ');
        out.push_str(&m.help);
        out.push('\n');
    }
    out.push_str("# TYPE ");
    out.push_str(&m.name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Samples at or below `2^k - 1`: exactly the contents of log2 buckets
/// `0..k` (bucket `k-1` tops out at `2^k - 1`).
fn cumulative_below_pow2(h: &Histogram, k: u32) -> u64 {
    h.buckets().iter().take(k as usize).sum()
}

/// Renders `snapshot` in the Prometheus text exposition format v0.0.4.
/// Deterministic and byte-stable for a fixed snapshot (see the module
/// docs); counters render under their registered name (the repo's
/// families already carry the `_total` suffix convention).
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut family = String::new();

    for m in &snapshot.counters {
        let SnapshotValue::Counter(v) = m.value else {
            continue;
        };
        write_header(&mut out, &mut family, m, "counter");
        out.push_str(&m.name);
        write_labels(&mut out, &m.labels, None);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }

    for m in &snapshot.gauges {
        let SnapshotValue::Gauge(v) = m.value else {
            continue;
        };
        write_header(&mut out, &mut family, m, "gauge");
        out.push_str(&m.name);
        write_labels(&mut out, &m.labels, None);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }

    for m in &snapshot.histograms {
        let SnapshotValue::Histogram(h) = &m.value else {
            continue;
        };
        write_header(&mut out, &mut family, m, "histogram");
        let bucket_name = format!("{}_bucket", m.name);
        for k in (1..=MAX_BUCKET_POW2).step_by(2) {
            let le = ((1u64 << k) - 1).to_string();
            out.push_str(&bucket_name);
            write_labels(&mut out, &m.labels, Some(("le", &le)));
            out.push(' ');
            out.push_str(&cumulative_below_pow2(&h.histogram, k).to_string());
            out.push('\n');
        }
        out.push_str(&bucket_name);
        write_labels(&mut out, &m.labels, Some(("le", "+Inf")));
        out.push(' ');
        out.push_str(&h.histogram.count().to_string());
        out.push('\n');

        out.push_str(&m.name);
        out.push_str("_sum");
        write_labels(&mut out, &m.labels, None);
        out.push(' ');
        out.push_str(&h.sum.to_string());
        out.push('\n');

        out.push_str(&m.name);
        out.push_str("_count");
        write_labels(&mut out, &m.labels, None);
        out.push(' ');
        out.push_str(&h.histogram.count().to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_telemetry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("demo_requests_total", "Requests served.").add(7);
        r.counter_with("demo_errors_total", "Typed errors.", &[("kind", "timeout")])
            .add(2);
        r.counter_with(
            "demo_errors_total",
            "Typed errors.",
            &[("kind", "internal")],
        )
        .inc();
        r.gauge("demo_queue_depth", "Queued jobs.").set(-3);
        let h = r.histogram("demo_latency_us", "Latency.");
        for v in [1u64, 3, 900, 70_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn renders_help_type_and_samples_in_order() {
        let text = render_prometheus(&sample_registry().snapshot());
        let expect_prefix = "\
# HELP demo_errors_total Typed errors.
# TYPE demo_errors_total counter
demo_errors_total{kind=\"internal\"} 1
demo_errors_total{kind=\"timeout\"} 2
# HELP demo_requests_total Requests served.
# TYPE demo_requests_total counter
demo_requests_total 7
# HELP demo_queue_depth Queued jobs.
# TYPE demo_queue_depth gauge
demo_queue_depth -3
# HELP demo_latency_us Latency.
# TYPE demo_latency_us histogram
demo_latency_us_bucket{le=\"1\"} 1
demo_latency_us_bucket{le=\"7\"} 2
";
        assert!(text.starts_with(expect_prefix), "got:\n{text}");
        assert!(
            text.contains("demo_latency_us_bucket{le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(text.contains("demo_latency_us_sum 70904"), "{text}");
        assert!(text.ends_with("demo_latency_us_count 4\n"), "{text}");
    }

    #[test]
    fn bucket_counts_are_cumulative_and_exact() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h_us", "");
        for v in 0..=1024u64 {
            h.record(v);
        }
        let text = render_prometheus(&r.snapshot());
        // Exact cumulative counts at every emitted 2^k - 1 bound.
        assert!(text.contains("h_us_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("h_us_bucket{le=\"7\"} 8"), "{text}");
        assert!(text.contains("h_us_bucket{le=\"511\"} 512"), "{text}");
        assert!(text.contains("h_us_bucket{le=\"2047\"} 1025"), "{text}");
        assert!(text.contains("h_us_bucket{le=\"+Inf\"} 1025"), "{text}");
    }

    #[test]
    fn two_renders_are_byte_identical() {
        let r = sample_registry();
        let a = render_prometheus(&r.snapshot());
        let b = render_prometheus(&r.snapshot());
        assert_eq!(a, b);
        assert!(!a.contains("uptime"), "nothing time-dependent is exposed");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::new();
        r.counter_with("c_total", "", &[("path", "a\"b\\c\nd")])
            .inc();
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains(r#"c_total{path="a\"b\\c\nd"} 1"#), "{text}");
    }
}
