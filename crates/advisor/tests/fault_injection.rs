//! The advisor fault-injection suite: a deterministic session where
//! handlers panic, deadlines blow out, frames arrive corrupted, and the
//! degradation ladder engages — and every single request still gets a
//! correct, typed answer. No sleeps: deadlines trip on virtual time,
//! fault schedules are fixed per frame index.

mod common;

use std::io::{BufReader, Cursor};
use std::time::{Duration, Instant};

use common::{by_id, error_kind, status};
use pad_advisor::json::{self, Json};
use pad_advisor::{ErrorKind, Server, ServerConfig};
use pad_bench::faults::{FaultPlan, FrameFault};

fn advise_frame(id: usize) -> String {
    // Unique problem size per frame: identical requests would answer
    // from the cache before the injected cell fault could fire.
    format!(
        r#"{{"id": {id}, "op": "advise", "kernel": "DOT256K", "n": {}}}"#,
        256 + id
    )
}

/// Renders an NDJSON stream of `count` advise frames with the plan's
/// frame faults applied — the server sees the corrupted bytes exactly
/// as a broken client would send them.
fn render_stream(count: usize, plan: &FaultPlan, max_frame: usize) -> String {
    let mut stream = String::new();
    for index in 0..count {
        let frame = advise_frame(index);
        match plan.frame_fault(index) {
            None => stream.push_str(&frame),
            Some(FrameFault::Garbage) => stream.push_str("\u{1}\u{2} not json at all"),
            Some(FrameFault::Truncated) => stream.push_str(&frame[..frame.len() / 2]),
            Some(FrameFault::Oversized) => {
                stream.push_str(&frame[..frame.len() - 1]);
                stream.push_str(&" ".repeat(max_frame));
                stream.push('}');
            }
        }
        stream.push('\n');
    }
    stream
}

fn serve_session(server: &Server, stream: &str) -> Vec<Json> {
    let mut out: Vec<u8> = Vec::new();
    server
        .serve(BufReader::new(Cursor::new(stream.to_string())), &mut out)
        .expect("in-memory serve cannot fail");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}")))
        .collect()
}

#[test]
fn every_faulted_request_gets_exactly_one_typed_answer() {
    // 16 frames; fault schedule keyed by frame index:
    //   3  -> handler panics hard           -> `internal`
    //   5  -> virtual delay beyond deadline -> ok (the `auto` fallback
    //         runs the fast rung clean, degraded)
    //   9  -> garbage bytes on the wire     -> `malformed`
    //   11 -> frame torn mid-token          -> `malformed`
    //   13 -> frame inflated past the cap   -> `oversized`
    let plan = FaultPlan::none()
        .panic_at(3)
        .delay_at(5, Duration::from_secs(60))
        .frame_at(9, FrameFault::Garbage)
        .frame_at(11, FrameFault::Truncated)
        .frame_at(13, FrameFault::Oversized);
    let config = ServerConfig {
        threads: 2,
        deadline: Some(Duration::from_secs(5)),
        ..ServerConfig::default()
    };
    let max_frame = config.max_frame;
    let server = Server::new(config).with_faults(plan.clone());
    let stream = render_stream(16, &plan, max_frame);
    let responses = serve_session(&server, &stream);

    assert_eq!(responses.len(), 16, "zero dropped-without-response answers");

    for index in 0..16usize {
        match index {
            3 => {
                let r = by_id(&responses, 3);
                assert_eq!(status(r), "error");
                assert_eq!(error_kind(r), "internal");
                let detail = r.get("detail").and_then(Json::as_str).unwrap_or("");
                assert!(
                    detail.contains("injected fault"),
                    "panic payload surfaces: {detail}"
                );
            }
            5 => {
                let r = by_id(&responses, 5);
                assert_eq!(status(r), "ok", "a blown exact rung falls back: {r:?}");
                assert_eq!(
                    r.get("degraded"),
                    Some(&Json::Bool(true)),
                    "the fallback is the fast rung"
                );
                assert_eq!(
                    r.get("result")
                        .and_then(|b| b.get("mode_used"))
                        .and_then(Json::as_str),
                    Some("fast")
                );
            }
            9 | 11 => {
                // Corrupted frames carry no recoverable id; their error
                // responses have id null and are checked in aggregate.
            }
            13 => {}
            index => {
                let r = by_id(&responses, index as i64);
                assert_eq!(status(r), "ok", "clean frame {index} answers: {r:?}");
                assert_eq!(r.get("degraded"), Some(&Json::Bool(false)));
            }
        }
    }

    let anonymous: Vec<&str> = responses
        .iter()
        .filter(|r| r.get("id") == Some(&Json::Null))
        .map(error_kind)
        .collect();
    let mut sorted = anonymous.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        ["malformed", "malformed", "oversized"],
        "wire corruption maps to typed errors: {anonymous:?}"
    );

    let metrics = server.metrics();
    assert_eq!(metrics.error(ErrorKind::Internal).get(), 1);
    assert_eq!(metrics.error(ErrorKind::Timeout).get(), 0);
    assert_eq!(metrics.degraded.get(), 1);
    assert_eq!(metrics.shed.get(), 0);
}

#[test]
fn seeded_plans_run_whole_sessions_without_losing_answers() {
    // The randomized (but seed-determined) variant: several schedules,
    // each applied to a session; the invariant is always the same —
    // request in, answer out, server alive.
    for seed in [11u64, 29, 47] {
        let plan = FaultPlan::from_seed(
            seed,
            24,
            &pad_bench::faults::FaultSpec {
                panics: 3,
                delays: 2,
                delay: Duration::from_secs(60),
            },
        );
        let config = ServerConfig {
            threads: 3,
            deadline: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        };
        let server = Server::new(config).with_faults(plan.clone());
        let stream = render_stream(24, &plan, 0);
        let responses = serve_session(&server, &stream);
        assert_eq!(responses.len(), 24, "seed {seed}: every frame answered");

        for index in 0..24usize {
            let r = by_id(&responses, index as i64);
            if plan.panics_at(index) {
                assert_eq!(error_kind(r), "internal", "seed {seed} frame {index}");
            } else if plan.delay_for(index).is_some() {
                assert_eq!(status(r), "ok", "seed {seed} frame {index}: {r:?}");
                assert_eq!(r.get("degraded"), Some(&Json::Bool(true)));
            } else {
                assert_eq!(status(r), "ok", "seed {seed} frame {index}: {r:?}");
            }
        }
    }
}

#[test]
fn exact_mode_refuses_to_degrade() {
    // A deadline blowout in `exact` mode answers `timeout` — it must
    // not silently fall back to the fast rung.
    let plan = FaultPlan::none().delay_at(0, Duration::from_secs(60));
    let config = ServerConfig {
        threads: 1,
        deadline: Some(Duration::from_secs(5)),
        ..ServerConfig::default()
    };
    let server = Server::new(config).with_faults(plan);
    let stream = concat!(
        r#"{"id": 0, "op": "advise", "kernel": "DOT256K", "n": 256, "mode": "exact"}"#,
        "\n",
        r#"{"id": 1, "op": "advise", "kernel": "DOT256K", "n": 256, "mode": "exact"}"#,
        "\n"
    );
    let responses = serve_session(&server, stream);
    assert_eq!(responses.len(), 2);
    assert_eq!(error_kind(by_id(&responses, 0)), "timeout");
    assert_eq!(
        status(by_id(&responses, 1)),
        "ok",
        "the next exact request is unaffected"
    );
    assert_eq!(
        by_id(&responses, 1)
            .get("result")
            .and_then(|b| b.get("mode_used"))
            .and_then(Json::as_str),
        Some("exact")
    );
}

#[test]
fn a_slow_search_in_exact_mode_times_out() {
    // The search's exact confirmations run in cells nested inside the
    // request's cell; the request's injected delay must survive them.
    let plan = FaultPlan::none().delay_at(0, Duration::from_secs(60));
    let config = ServerConfig {
        threads: 1,
        deadline: Some(Duration::from_secs(5)),
        ..ServerConfig::default()
    };
    let server = Server::new(config).with_faults(plan);
    let stream = concat!(
        r#"{"id": 0, "op": "advise", "kernel": "DOT256K", "n": 256, "algorithm": "search", "mode": "exact", "budget": 40}"#,
        "\n",
        r#"{"id": 1, "op": "advise", "kernel": "DOT256K", "n": 256, "algorithm": "search", "mode": "exact", "budget": 40}"#,
        "\n"
    );
    let responses = serve_session(&server, stream);
    assert_eq!(responses.len(), 2);
    assert_eq!(error_kind(by_id(&responses, 0)), "timeout");
    let clean = by_id(&responses, 1);
    assert_eq!(status(clean), "ok", "{clean:?}");
    assert!(
        clean
            .get("result")
            .and_then(|b| b.get("search"))
            .and_then(|s| s.get("promoted"))
            .and_then(Json::as_i64)
            .is_some_and(|promoted| promoted > 0),
        "the search confirmed candidates in nested cells: {clean:?}"
    );
}

#[test]
fn a_slow_trace_replay_in_auto_mode_times_out() {
    // A replay has no fast rung to fall back to, so a blown deadline
    // answers `timeout` even in `auto` mode. The injected delay hits
    // the first rung only: a fallback would answer `ok`.
    let program = pad_kernels::dot::spec(256);
    let compiled =
        pad_trace::CompiledTrace::compile(&program, &pad_core::DataLayout::original(&program));
    let path = std::env::temp_dir().join(format!(
        "pad-advisor-fault-trace-{}.trc",
        std::process::id()
    ));
    let mut file = std::fs::File::create(&path).expect("create trace file");
    let mut writer = pad_trace_ingest::binary::BinaryTraceWriter::new(&mut file).expect("header");
    compiled.for_each(|access| writer.write(access).expect("record"));
    writer.finish().expect("flush");
    drop(file);
    let mut path_json = String::new();
    Json::Str(path.to_str().expect("utf-8 temp path").to_string()).write(&mut path_json);

    let plan = FaultPlan::none().delay_at(0, Duration::from_secs(60));
    let config = ServerConfig {
        threads: 1,
        deadline: Some(Duration::from_secs(5)),
        ..ServerConfig::default()
    };
    let server = Server::new(config).with_faults(plan);
    let stream = format!(
        "{{\"id\": 0, \"op\": \"advise\", \"trace\": {path_json}, \"mode\": \"auto\"}}\n\
         {{\"id\": 1, \"op\": \"advise\", \"trace\": {path_json}, \"mode\": \"auto\"}}\n"
    );
    let responses = serve_session(&server, &stream);
    std::fs::remove_file(&path).ok();
    assert_eq!(responses.len(), 2);
    assert_eq!(error_kind(by_id(&responses, 0)), "timeout");
    assert_eq!(
        status(by_id(&responses, 1)),
        "ok",
        "the same replay without the delay answers"
    );
    assert_eq!(server.metrics().degraded.get(), 0);
}

#[test]
fn auto_mode_degrades_when_the_budget_cannot_afford_exact() {
    // No injected faults at all: a tiny simulation-rate budget makes
    // `auto` choose the fast rung up front, marked degraded.
    let config = ServerConfig {
        threads: 1,
        deadline: Some(Duration::from_millis(10)),
        rate: 1.0, // one access per second: nothing fits
        ..ServerConfig::default()
    };
    let server = Server::new(config);
    let responses = serve_session(&server, &(advise_frame(0) + "\n"));
    assert_eq!(responses.len(), 1);
    let r = by_id(&responses, 0);
    assert_eq!(status(r), "ok");
    assert_eq!(r.get("degraded"), Some(&Json::Bool(true)));
    assert_eq!(
        r.get("result")
            .and_then(|b| b.get("mode_used"))
            .and_then(Json::as_str),
        Some("fast")
    );
    assert_eq!(server.metrics().degraded.get(), 1);
    assert_eq!(server.metrics().simulations.get(), 0);
}

#[test]
fn auto_mode_budgets_astronomic_loops_without_walking_them() {
    // `auto` prices an exact answer against the deadline budget before
    // the deadline-guarded cell starts, so pricing must not walk the
    // trace: these nests run 10^12, 10^18, ~5·10^17 (triangular) and
    // ~7·10^26 (LU-shaped) accesses. The triangle is summed in closed
    // form; the three-deep nest iterates its outer loop, so pricing gives
    // up on it as unaffordable before iterating. The last nest performs
    // no access at all, but its walk runs 2^32 outer trips: pricing
    // counts trips, so it is unaffordable too.
    let config = ServerConfig::default();
    let deadline = config.deadline.expect("the default config has a deadline");
    let server = Server::new(config);
    let programs = [
        "program one_loop\n\
         array A(16)\n\
         do i = 1, 1000000000000\n\
           t = A(1)\n\
         end\n",
        "program rect_nest\n\
         array A(16)\n\
         do i = 1, 1000000000\n\
           do j = 1, 1000000000\n\
             t = A(1)\n\
           end\n\
         end\n",
        "program triangle\n\
         array A(16)\n\
         do i = 1, 1000000000\n\
           do j = 1, i\n\
             t = A(1)\n\
           end\n\
         end\n",
        "program lu_nest\n\
         array A(16, 16)\n\
         do k = 1, 1000000000\n\
           do i = k+1, 1000000000\n\
             t = A(1, 1)\n\
             do j = k+1, 1000000000\n\
               A(1, 2) = A(2, 1)\n\
             end\n\
           end\n\
         end\n",
        "program EMPTY\n\
         array A(10)\n\
         do j = 1, 4294967296\n\
           do k = 1, 0\n\
             A(k) = 0\n\
           end\n\
         end\n",
    ];
    for (id, spec) in programs.into_iter().enumerate() {
        let mut frame = format!(r#"{{"id": {id}, "op": "advise", "mode": "auto", "program": "#);
        Json::Str(spec.to_string()).write(&mut frame);
        frame.push_str("}\n");
        let start = Instant::now();
        let responses = serve_session(&server, &frame);
        let elapsed = start.elapsed();
        let r = by_id(&responses, id as i64);
        assert_eq!(status(r), "ok", "{r:?}");
        assert_eq!(r.get("degraded"), Some(&Json::Bool(true)), "{r:?}");
        assert_eq!(
            r.get("result")
                .and_then(|b| b.get("mode_used"))
                .and_then(Json::as_str),
            Some("fast")
        );
        assert!(
            elapsed < deadline / 4,
            "{spec:?} answered after {elapsed:?}, deadline {deadline:?}"
        );
    }
    assert_eq!(server.metrics().simulations.get(), 0);
}
