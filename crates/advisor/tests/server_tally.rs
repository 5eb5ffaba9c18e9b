//! Each server tallies exactly its own traffic: two servers in one
//! process serve differently shaped sessions at the same time, and each
//! one's `stats` answer must match its session frame by frame and equal
//! the advisor families in its own `metrics` answer — nothing leaks from
//! the other server.

mod common;

use std::io::BufReader;
use std::sync::mpsc;
use std::time::Duration;

use common::{next_response, status, ChannelReader, LineWriter};
use pad_advisor::json::Json;
use pad_advisor::{Server, ServerConfig};
use pad_bench::faults::FaultPlan;

/// Largest frame server B accepts; its oversized frame is twice this.
const B_MAX_FRAME: usize = 2048;

fn advise(id: usize, kernel: &str, n: usize, mode: &str) -> String {
    format!(r#"{{"id": {id}, "op": "advise", "kernel": "{kernel}", "n": {n}, "mode": "{mode}"}}"#)
}

/// The `stats` keys a `metrics` answer can reproduce (`replayed` comes
/// from the store, not from a metric family).
const TALLIES: [&str; 9] = [
    "requests",
    "ok",
    "errors",
    "shed",
    "cache_hits",
    "simulations",
    "degraded",
    "timeouts",
    "panics",
];

/// The `stats` view rebuilt from a `metrics` answer's advisor families.
fn tallies_from_metrics(metrics: &Json) -> Vec<i64> {
    let Some(Json::Obj(counters)) = metrics.get("counters") else {
        panic!("metrics answer without counters: {metrics}");
    };
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_i64())
            .unwrap_or_else(|| panic!("metrics answer lacks {name}: {metrics}"))
    };
    let errors = counters
        .iter()
        .filter(|(k, _)| k.starts_with("pad_advisor_errors_total{"))
        .map(|(_, v)| v.as_i64().expect("integer counter"))
        .sum();
    vec![
        counter("pad_advisor_requests_total{op=\"advise\"}"),
        counter("pad_advisor_ok_total"),
        errors,
        counter("pad_advisor_shed_total"),
        counter("pad_advisor_cache_hits_total"),
        counter("pad_advisor_simulations_total"),
        counter("pad_advisor_degraded_total"),
        counter("pad_advisor_errors_total{kind=\"timeout\"}"),
        counter("pad_advisor_errors_total{kind=\"internal\"}"),
    ]
}

/// One server's session: frames sent one at a time, each answered
/// before the next goes out, so the final tallies are deterministic.
struct Session {
    name: &'static str,
    server: Server,
    frames: Vec<(String, &'static str)>,
    stats: [i64; 9],
}

#[test]
fn concurrent_servers_each_tally_only_their_own_traffic() {
    pad_telemetry::set_metrics_enabled(true);

    // A: two fresh exact answers, the first one again from the store,
    // and a malformed frame.
    let a = Session {
        name: "A",
        server: Server::new(ServerConfig {
            deadline: None,
            ..ServerConfig::default()
        }),
        frames: vec![
            (advise(0, "DOT256K", 256, "exact"), "ok"),
            (advise(1, "JACOBI512", 32, "exact"), "ok"),
            (advise(2, "DOT256K", 256, "exact"), "ok"),
            ("{not json".to_string(), "error"),
        ],
        // requests ok errors shed cache_hits simulations degraded timeouts panics
        stats: [3, 3, 1, 0, 1, 2, 0, 0, 0],
    };
    // B: a deadline blowout, a hard panic, a blown exact rung that `auto`
    // answers from the fast rung (degraded), and an oversized frame.
    let b = Session {
        name: "B",
        server: Server::new(ServerConfig {
            deadline: Some(Duration::from_secs(5)),
            max_frame: B_MAX_FRAME,
            ..ServerConfig::default()
        })
        .with_faults(
            FaultPlan::none()
                .delay_at(0, Duration::from_secs(60))
                .panic_at(1)
                .delay_at(2, Duration::from_secs(60)),
        ),
        frames: vec![
            (advise(0, "DOT256K", 128, "exact"), "error"),
            (advise(1, "DOT256K", 160, "auto"), "error"),
            (advise(2, "DOT256K", 192, "auto"), "ok"),
            (
                format!("{{\"pad\": \"{}\"}}", "x".repeat(2 * B_MAX_FRAME)),
                "error",
            ),
        ],
        stats: [3, 1, 3, 0, 0, 0, 1, 1, 1],
    };
    let sessions = [a, b];

    std::thread::scope(|scope| {
        let mut wires = Vec::new();
        for session in &sessions {
            let (in_tx, in_rx) = mpsc::channel::<Vec<u8>>();
            let (out_tx, out_rx) = mpsc::channel::<String>();
            scope.spawn(move || {
                session
                    .server
                    .serve(
                        BufReader::new(ChannelReader::new(in_rx)),
                        LineWriter::new(out_tx),
                    )
                    .expect("in-memory serve cannot fail");
            });
            wires.push((in_tx, out_rx));
        }
        let send = |to: usize, frame: &str| {
            wires[to]
                .0
                .send(format!("{frame}\n").into_bytes())
                .expect("server reading")
        };

        // Both servers work at once: each step sends to both, then
        // waits for both answers.
        for step in 0..4 {
            for (i, session) in sessions.iter().enumerate() {
                send(i, &session.frames[step].0);
            }
            for (i, session) in sessions.iter().enumerate() {
                let r = next_response(&wires[i].1, 60);
                let want = session.frames[step].1;
                assert_eq!(status(&r), want, "server {} step {step}: {r}", session.name);
            }
        }

        for (i, session) in sessions.iter().enumerate() {
            send(i, r#"{"id": "s", "op": "stats"}"#);
            let stats = next_response(&wires[i].1, 60);
            let stats = stats.get("stats").expect("stats body");
            let got: Vec<i64> = TALLIES
                .iter()
                .map(|k| stats.get(k).and_then(Json::as_i64).expect("stats key"))
                .collect();
            assert_eq!(got, session.stats, "server {} stats: {stats}", session.name);
            assert_eq!(stats.get("replayed").and_then(Json::as_i64), Some(0));

            send(i, r#"{"id": "m", "op": "metrics"}"#);
            let metrics = next_response(&wires[i].1, 60);
            let metrics = metrics.get("metrics").expect("metrics body");
            // The other server's traffic must not show: every advise
            // request closes with one latency sample, and each server was
            // polled once per control op.
            let latency = metrics
                .get("histograms")
                .and_then(|h| h.get("pad_advisor_request_latency_us{op=\"advise\"}"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_i64);
            assert_eq!(latency, Some(session.stats[0]), "server {}", session.name);
            let counters = metrics.get("counters").expect("counters");
            for op in ["stats", "metrics"] {
                let key = format!("pad_advisor_requests_total{{op=\"{op}\"}}");
                assert_eq!(
                    counters.get(&key).and_then(Json::as_i64),
                    Some(1),
                    "server {} counts only its own {op} poll",
                    session.name
                );
            }
            assert_eq!(
                tallies_from_metrics(metrics),
                session.stats,
                "server {}: metrics families equal its stats",
                session.name
            );
        }
        wires.clear(); // EOF: both serve loops drain and return
    });
}
