//! `padtool top` — a refreshing terminal dashboard over a live advisor.
//!
//! Spawns `padtool serve` as a child process (or any command given via
//! `--cmd`), polls it with `{"op":"metrics"}` NDJSON frames over its
//! stdin/stdout, and renders the numbers an operator watches first:
//! request rate, advise p50/p95/p99, queue depth and inflight jobs,
//! shed/degraded percentages, and the SLO burn ratio with the error
//! breakdown behind it.
//!
//! Rates and percentages come from **counter deltas** between
//! consecutive polls, so the dashboard shows current behavior, not
//! lifetime averages; the first frame (no previous sample) shows
//! lifetime totals with rates dashed out. `--once` prints a single
//! snapshot without clearing the screen — handy for scripts and tests.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

use pad_advisor::json::{self, Json};

/// Flags accepted by `padtool top`.
struct TopOptions {
    /// Print one snapshot and exit instead of refreshing.
    once: bool,
    /// Seconds between polls.
    interval: u64,
    /// Stop after this many polls (0 = until interrupted).
    count: u64,
    /// Override for the advisor command (whitespace-split).
    cmd: Option<String>,
}

impl TopOptions {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = TopOptions {
            once: false,
            interval: 2,
            count: 0,
            cmd: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--once" => opts.once = true,
                "--interval" => {
                    opts.interval = value("--interval")?
                        .parse()
                        .map_err(|_| "--interval needs whole seconds".to_string())?;
                    if opts.interval == 0 {
                        return Err("--interval must be at least 1 second".to_string());
                    }
                }
                "--count" => {
                    opts.count = value("--count")?
                        .parse()
                        .map_err(|_| "--count needs a number".to_string())?;
                }
                "--cmd" => opts.cmd = Some(value("--cmd")?),
                other => return Err(format!("unknown top option `{other}`")),
            }
        }
        Ok(opts)
    }
}

/// One parsed `metrics` response, reduced to what the dashboard shows.
#[derive(Debug, Clone, Default)]
struct Sample {
    /// Client-side timestamp of the poll, microseconds.
    at_us: u64,
    enabled: bool,
    slo_ms: i64,
    /// Frames received across every operation.
    requests: i64,
    /// Advise latency percentiles/extreme, microseconds.
    p50: i64,
    p95: i64,
    p99: i64,
    max: i64,
    queue_depth: i64,
    inflight: i64,
    shed: i64,
    degraded: i64,
    cache_hits: i64,
    slo_good: i64,
    slo_bad: i64,
    /// Nonzero typed-error counters, as (kind, count).
    errors: Vec<(String, i64)>,
}

fn scalar(section: Option<&Json>, key: &str) -> i64 {
    section
        .and_then(|s| s.get(key))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

/// Sums every entry of `section` whose flat name starts with `prefix`
/// (e.g. all `requests_total{op=...}` series).
fn sum_prefix(section: Option<&Json>, prefix: &str) -> i64 {
    let Some(Json::Obj(pairs)) = section else {
        return 0;
    };
    pairs
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .filter_map(|(_, v)| v.as_i64())
        .sum()
}

impl Sample {
    /// Reduces the `metrics` field of a server response. Unknown or
    /// missing series read as zero, so old servers degrade gracefully.
    fn from_metrics(metrics: &Json, at_us: u64) -> Sample {
        let counters = metrics.get("counters");
        let gauges = metrics.get("gauges");
        let advise_latency = metrics
            .get("histograms")
            .and_then(|h| h.get("pad_advisor_request_latency_us{op=\"advise\"}"));
        let mut errors: Vec<(String, i64)> = Vec::new();
        if let Some(Json::Obj(pairs)) = counters {
            for (k, v) in pairs {
                let Some(kind) = k
                    .strip_prefix("pad_advisor_errors_total{kind=\"")
                    .and_then(|rest| rest.strip_suffix("\"}"))
                else {
                    continue;
                };
                match v.as_i64() {
                    Some(n) if n > 0 => errors.push((kind.to_string(), n)),
                    _ => {}
                }
            }
        }
        Sample {
            at_us,
            enabled: metrics
                .get("enabled")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            slo_ms: scalar(Some(metrics), "slo_ms"),
            requests: sum_prefix(counters, "pad_advisor_requests_total"),
            p50: scalar(advise_latency, "p50"),
            p95: scalar(advise_latency, "p95"),
            p99: scalar(advise_latency, "p99"),
            max: scalar(advise_latency, "max"),
            queue_depth: scalar(gauges, "pad_advisor_queue_depth"),
            inflight: scalar(gauges, "pad_advisor_inflight"),
            shed: scalar(counters, "pad_advisor_shed_total"),
            degraded: scalar(counters, "pad_advisor_degraded_total"),
            cache_hits: scalar(counters, "pad_advisor_cache_hits_total"),
            slo_good: scalar(counters, "pad_advisor_slo_good_total"),
            slo_bad: scalar(counters, "pad_advisor_slo_bad_total"),
            errors,
        }
    }
}

/// Microseconds, humanized: `850µs`, `12.3ms`, `4.0s`.
fn fmt_us(us: i64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.1}s", us as f64 / 1_000_000.0)
    }
}

/// `num` as a percentage of `den`, dashed out when `den` is zero.
fn pct(num: i64, den: i64) -> String {
    if den <= 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", num as f64 * 100.0 / den as f64)
    }
}

/// Renders one dashboard frame. `prev` (the previous poll) turns
/// counter totals into rates and interval-local percentages; without it
/// the frame reports lifetime numbers.
fn render(cur: &Sample, prev: Option<&Sample>) -> String {
    let mut out = String::new();
    let rate = prev.and_then(|p| {
        let dt_us = cur.at_us.saturating_sub(p.at_us);
        (dt_us > 0).then(|| (cur.requests - p.requests) as f64 * 1e6 / dt_us as f64)
    });
    let window = |total: i64, get: fn(&Sample) -> i64| match prev {
        Some(p) => total - get(p),
        None => total,
    };
    let shed = window(cur.shed, |s| s.shed);
    let degraded = window(cur.degraded, |s| s.degraded);
    let requests = window(cur.requests, |s| s.requests);
    let good = window(cur.slo_good, |s| s.slo_good);
    let bad = window(cur.slo_bad, |s| s.slo_bad);

    out.push_str("padtool top — layout-advisor service\n\n");
    if !cur.enabled {
        out.push_str("  !! process metrics are DISABLED on the server (advisor families only)\n\n");
    }
    out.push_str(&format!(
        "  requests   {:>8}   {}\n",
        cur.requests,
        match rate {
            Some(r) => format!("{r:.1}/s"),
            None => "-/s".to_string(),
        }
    ));
    out.push_str(&format!(
        "  advise latency   p50 {}   p95 {}   p99 {}   max {}\n",
        fmt_us(cur.p50),
        fmt_us(cur.p95),
        fmt_us(cur.p99),
        fmt_us(cur.max)
    ));
    out.push_str(&format!(
        "  queue depth {:>4}   inflight {:>4}   cache hits {}\n",
        cur.queue_depth, cur.inflight, cur.cache_hits
    ));
    out.push_str(&format!(
        "  shed {} ({shed})   degraded {} ({degraded})\n",
        pct(shed, requests),
        pct(degraded, requests)
    ));
    if cur.slo_ms > 0 {
        out.push_str(&format!(
            "  SLO {}ms   burn {}   (good {good} / bad {bad})\n",
            cur.slo_ms,
            pct(bad, good + bad)
        ));
    } else {
        out.push_str("  SLO disabled (RIVERA_SLO_MS=0)\n");
    }
    if !cur.errors.is_empty() {
        let list: Vec<String> = cur
            .errors
            .iter()
            .map(|(kind, n)| format!("{kind} {n}"))
            .collect();
        out.push_str(&format!("  errors: {}\n", list.join(", ")));
    }
    out
}

/// A spawned advisor child plus the NDJSON plumbing to talk to it.
struct AdvisorClient {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
    next_id: u64,
}

impl AdvisorClient {
    fn spawn(cmd: Option<&str>) -> Result<Self, String> {
        let argv: Vec<String> = match cmd {
            Some(line) => {
                let parts: Vec<String> = line.split_whitespace().map(str::to_string).collect();
                if parts.is_empty() {
                    return Err("--cmd must name a command".to_string());
                }
                parts
            }
            None => {
                let exe = std::env::current_exe()
                    .map_err(|e| format!("cannot locate the padtool binary: {e}"))?;
                vec![exe.display().to_string(), "serve".to_string()]
            }
        };
        let mut child = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn `{}`: {e}", argv.join(" ")))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(AdvisorClient {
            child,
            stdin,
            stdout,
            next_id: 1,
        })
    }

    /// One `metrics` round trip; the response's `metrics` object.
    fn poll(&mut self) -> Result<Json, String> {
        let id = self.next_id;
        self.next_id += 1;
        writeln!(self.stdin, "{{\"id\":{id},\"op\":\"metrics\"}}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("advisor went away: {e}"))?;
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read from the advisor: {e}"))?;
        if n == 0 {
            return Err("the advisor closed its output (did it crash?)".to_string());
        }
        let resp = json::parse(line.trim_end())
            .map_err(|e| format!("unparseable advisor response: {e}"))?;
        if resp.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("advisor refused the metrics op: {}", line.trim()));
        }
        resp.get("metrics")
            .cloned()
            .ok_or_else(|| "response carried no `metrics` field".to_string())
    }

    /// Closes the child's stdin (the server exits at EOF) and reaps it.
    fn shutdown(mut self) {
        drop(self.stdin);
        let _ = self.child.wait();
    }
}

/// Entry point for `padtool top <args>`.
pub fn cmd_top(args: &[String]) -> Result<(), String> {
    let opts = TopOptions::parse(args)?;
    let mut client = AdvisorClient::spawn(opts.cmd.as_deref())?;

    let mut prev: Option<Sample> = None;
    let mut polls = 0u64;
    let result = loop {
        let metrics = match client.poll() {
            Ok(m) => m,
            Err(e) => break Err(e),
        };
        let cur = Sample::from_metrics(&metrics, pad_telemetry::now_us());
        if opts.once {
            print!("{}", render(&cur, None));
            break Ok(());
        }
        // Clear the screen and repaint — classic `top` behavior.
        print!("\x1b[2J\x1b[H{}", render(&cur, prev.as_ref()));
        let _ = std::io::stdout().flush();
        prev = Some(cur);
        polls += 1;
        if opts.count > 0 && polls >= opts.count {
            break Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(opts.interval));
    };
    client.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_from(text: &str, at_us: u64) -> Sample {
        Sample::from_metrics(&json::parse(text).expect("test JSON parses"), at_us)
    }

    const BUSY: &str = r#"{
        "enabled": true, "uptime_us": 5000000, "slo_ms": 250,
        "counters": {
            "pad_advisor_cache_hits_total": 3,
            "pad_advisor_degraded_total": 2,
            "pad_advisor_errors_total{kind=\"overloaded\"}": 4,
            "pad_advisor_errors_total{kind=\"parse\"}": 0,
            "pad_advisor_errors_total{kind=\"timeout\"}": 1,
            "pad_advisor_requests_total{op=\"advise\"}": 90,
            "pad_advisor_requests_total{op=\"ping\"}": 10,
            "pad_advisor_shed_total": 4,
            "pad_advisor_slo_bad_total": 7,
            "pad_advisor_slo_good_total": 83
        },
        "gauges": {
            "pad_advisor_inflight": 1,
            "pad_advisor_queue_depth": 5
        },
        "histograms": {
            "pad_advisor_request_latency_us{op=\"advise\"}": {
                "count": 90, "sum": 50000, "max": 9000,
                "p50": 300, "p95": 2500, "p99": 8000
            }
        }
    }"#;

    #[test]
    fn sample_reduces_the_metrics_payload() {
        let s = sample_from(BUSY, 1_000_000);
        assert!(s.enabled);
        assert_eq!(s.slo_ms, 250);
        assert_eq!(s.requests, 100, "requests sum across ops");
        assert_eq!((s.p50, s.p95, s.p99, s.max), (300, 2500, 8000, 9000));
        assert_eq!((s.queue_depth, s.inflight), (5, 1));
        assert_eq!((s.shed, s.degraded, s.cache_hits), (4, 2, 3));
        assert_eq!((s.slo_good, s.slo_bad), (83, 7));
        // Zero-count kinds are dropped; survivors keep key order.
        assert_eq!(
            s.errors,
            vec![("overloaded".to_string(), 4), ("timeout".to_string(), 1)]
        );
    }

    #[test]
    fn render_reports_lifetime_numbers_without_a_previous_sample() {
        let frame = render(&sample_from(BUSY, 1_000_000), None);
        assert!(frame.contains("requests        100   -/s"), "{frame}");
        assert!(
            frame.contains("p50 300µs   p95 2.5ms   p99 8.0ms   max 9.0ms"),
            "{frame}"
        );
        assert!(frame.contains("shed 4.0% (4)"), "{frame}");
        assert!(frame.contains("degraded 2.0% (2)"), "{frame}");
        assert!(
            frame.contains("SLO 250ms   burn 7.8%   (good 83 / bad 7)"),
            "{frame}"
        );
        assert!(frame.contains("errors: overloaded 4, timeout 1"), "{frame}");
    }

    #[test]
    fn render_uses_deltas_when_a_previous_sample_exists() {
        let prev = sample_from(BUSY, 1_000_000);
        let mut cur = prev.clone();
        cur.at_us = 3_000_000; // 2s later
        cur.requests += 50;
        cur.shed += 25;
        cur.slo_good += 20;
        cur.slo_bad += 20;
        let frame = render(&cur, Some(&prev));
        assert!(frame.contains("25.0/s"), "50 requests over 2s: {frame}");
        assert!(frame.contains("shed 50.0% (25)"), "{frame}");
        assert!(frame.contains("burn 50.0%"), "window burn: {frame}");
    }

    #[test]
    fn render_flags_disabled_metrics_and_disabled_slo() {
        let s = sample_from(r#"{"enabled": false, "slo_ms": 0}"#, 7);
        let frame = render(&s, None);
        assert!(frame.contains("metrics are DISABLED"), "{frame}");
        assert!(frame.contains("SLO disabled"), "{frame}");
    }

    #[test]
    fn humanized_durations_pick_sane_units() {
        assert_eq!(fmt_us(0), "0µs");
        assert_eq!(fmt_us(999), "999µs");
        assert_eq!(fmt_us(1_500), "1.5ms");
        assert_eq!(fmt_us(2_000_000), "2.0s");
    }

    #[test]
    fn top_options_parse_and_reject() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        let o = TopOptions::parse(&args(&["--once", "--interval", "5", "--count", "3"])).unwrap();
        assert!(o.once);
        assert_eq!((o.interval, o.count), (5, 3));
        assert!(TopOptions::parse(&args(&["--interval", "0"])).is_err());
        assert!(TopOptions::parse(&args(&["--bogus"])).is_err());
        assert!(TopOptions::parse(&args(&["--cmd"])).is_err());
    }
}
