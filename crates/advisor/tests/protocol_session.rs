//! End-to-end protocol sessions over in-memory streams: well-formed
//! requests answer, malformed ones get typed errors, warm queries hit
//! the cache, and the server survives all of it in one connection.

mod common;

use std::io::{BufReader, Cursor};
use std::sync::mpsc;

use common::{by_id, error_kind, next_response, status, ChannelReader, LineWriter};
use pad_advisor::json::{self, Json};
use pad_advisor::protocol::MAX_PROBLEM_SIZE;
use pad_advisor::{resolve, Server, ServerConfig, Source};

/// Runs one complete scripted session and returns the parsed responses.
fn session(server: &Server, frames: &str) -> Vec<Json> {
    let mut out: Vec<u8> = Vec::new();
    server
        .serve(BufReader::new(Cursor::new(frames.to_string())), &mut out)
        .expect("in-memory serve cannot fail");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}")))
        .collect()
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn a_mixed_session_answers_every_frame() {
    let server = Server::new(quick_config());
    let frames = concat!(
        r#"{"id": 1, "op": "ping"}"#,
        "\n",
        r#"{"id": 2, "op": "advise", "kernel": "DOT256K", "n": 512}"#,
        "\n",
        "\n", // blank lines are ignored, not errors
        r#"{"id": 3, "op": "advise", "kernel": "EXPL512", "n": 64, "algorithm": "padlite", "mode": "fast"}"#,
        "\n",
        r#"{"id": 4, "op": "stats"}"#,
        "\n",
        r#"{"id": 5, "op": "shutdown"}"#,
        "\n",
    );
    let responses = session(&server, frames);
    assert_eq!(responses.len(), 5, "every frame answered: {responses:?}");

    assert_eq!(by_id(&responses, 1).get("pong"), Some(&Json::Bool(true)));

    let advise = by_id(&responses, 2);
    assert_eq!(status(advise), "ok");
    assert_eq!(advise.get("cached"), Some(&Json::Bool(false)));
    let result = advise.get("result").expect("ok responses carry a result");
    assert_eq!(
        result.get("program").and_then(Json::as_str),
        Some("DOT256K")
    );
    assert_eq!(
        result.get("mode_used").and_then(Json::as_str),
        Some("exact")
    );
    assert!(
        result.get("mrc").is_some(),
        "exact answers carry a miss-ratio curve"
    );

    let fast = by_id(&responses, 3);
    assert_eq!(status(fast), "ok");
    assert_eq!(
        fast.get("result")
            .and_then(|r| r.get("mode_used"))
            .and_then(Json::as_str),
        Some("fast")
    );
    assert_eq!(
        fast.get("degraded"),
        Some(&Json::Bool(false)),
        "fast-by-request is not degradation"
    );

    // Stats answers inline from the reader thread, so its counters may
    // precede queued work finishing; exact accounting is asserted in
    // the streamed warm-cache test below.
    assert!(by_id(&responses, 4).get("stats").is_some());

    assert_eq!(by_id(&responses, 5).get("bye"), Some(&Json::Bool(true)));
}

#[test]
fn inline_programs_are_analyzed_and_parse_errors_are_typed() {
    let server = Server::new(quick_config());
    let spec = "program inline_dot\n\
                array A(4096)\n\
                array B(4096)\n\
                do i = 1, 4096\n\
                  s = s + A(i) * B(i)\n\
                end\n";
    let mut frame = String::from(r#"{"id": 1, "op": "advise", "program": "#);
    Json::Str(spec.to_string()).write(&mut frame);
    frame.push('}');
    frame.push('\n');
    frame.push_str(r#"{"id": 2, "op": "advise", "program": "for ever and ever"}"#);
    frame.push('\n');

    let responses = session(&server, &frame);
    assert_eq!(responses.len(), 2);
    assert_eq!(status(by_id(&responses, 1)), "ok", "{responses:?}");
    let err = by_id(&responses, 2);
    assert_eq!(status(err), "error");
    assert_eq!(error_kind(err), "parse");
    assert!(
        !err.get("detail")
            .and_then(Json::as_str)
            .unwrap_or("")
            .is_empty(),
        "parser diagnostics are forwarded"
    );
}

#[test]
fn overflowing_array_footprints_answer_a_parse_error() {
    // Each array's byte size wraps 64 bits. Unchecked, every algorithm
    // answered `ok` and placed B at a negative base.
    let server = Server::new(quick_config());
    let spec = "program wrap\n\
                array A(9223372036854775807, 256)\n\
                array B(9223372036854775807, 256)\n\
                do i = 1, 4\n\
                  A(i, 1) = B(i, 1)\n\
                end\n";
    let algorithms = ["pad", "padlite", "search"];
    let mut frames = String::new();
    for (id, algorithm) in algorithms.iter().enumerate() {
        frames.push_str(&format!(
            r#"{{"id": {id}, "op": "advise", "algorithm": "{algorithm}", "program": "#
        ));
        Json::Str(spec.to_string()).write(&mut frames);
        frames.push_str("}\n");
    }
    let responses = session(&server, &frames);
    assert_eq!(responses.len(), algorithms.len(), "{responses:?}");
    for id in 0..algorithms.len() {
        let err = by_id(&responses, id as i64);
        assert_eq!(status(err), "error", "{err}");
        assert_eq!(error_kind(err), "parse", "{err}");
        let detail = err.get("detail").and_then(Json::as_str).unwrap_or("");
        assert!(detail.contains("array A occupies more than"), "{detail}");
    }
}

#[test]
fn every_suite_kernel_builds_at_the_largest_problem_size() {
    // The footprint limit must leave every size a request may name
    // buildable (a kernel's spec panics on a build error).
    for kernel in pad_kernels::suite() {
        let source = Source::Kernel {
            name: kernel.name.into(),
            n: Some(MAX_PROBLEM_SIZE),
        };
        if let Err(e) = resolve(&source) {
            panic!("{} at n={MAX_PROBLEM_SIZE}: {e:?}", kernel.name);
        }
    }
}

#[test]
fn adversarial_frames_get_typed_errors_and_never_kill_the_session() {
    let server = Server::new(quick_config());
    let huge = "z".repeat(ServerConfig::default().max_frame + 10);
    let frames = format!(
        "this is not json\n\
         {huge}\n\
         {{\"id\": 1, \"op\": \"advise\"}}\n\
         {{\"id\": 2, \"op\": \"advise\", \"kernel\": \"NOPE\"}}\n\
         {{\"id\": 3, \"op\": \"advise\", \"kernel\": \"DOT256K\", \"cache\": {{\"size\": 1000}}}}\n\
         {{\"id\": 4, \"op\": \"ping\"}}\n"
    );
    let responses = session(&server, &frames);
    assert_eq!(responses.len(), 6, "every frame answered: {responses:?}");
    // The unknown-kernel refusal comes from a worker thread, so error
    // order can interleave; assert the multiset, not positions.
    let mut kinds: Vec<&str> = responses
        .iter()
        .filter(|r| status(r) == "error")
        .map(error_kind)
        .collect();
    kinds.sort_unstable();
    assert_eq!(
        kinds,
        ["invalid", "invalid", "invalid", "malformed", "oversized"]
    );
    assert_eq!(
        by_id(&responses, 4).get("pong"),
        Some(&Json::Bool(true)),
        "the session survives to answer the ping"
    );
}

#[test]
fn trace_sources_answer_end_to_end_and_never_cache() {
    // Record DOT256K's reference stream to a PTRC file, then advise on
    // the trace through the full server loop: the reply must carry the
    // replay diagnostics, reproduce the kernel's access count, and
    // never answer from the store (the file behind a path can change).
    let program = pad_kernels::suite()
        .into_iter()
        .find(|k| k.name == "DOT256K")
        .map(|k| (k.spec)(256))
        .expect("DOT256K is a built-in kernel");
    let layout = pad_core::DataLayout::original(&program);
    let compiled = pad_trace::CompiledTrace::compile(&program, &layout);

    let mut path = std::env::temp_dir();
    path.push(format!(
        "pad-advisor-session-trace-{}.trc",
        std::process::id()
    ));
    let mut file = std::fs::File::create(&path).expect("create trace file");
    let mut writer = pad_trace_ingest::binary::BinaryTraceWriter::new(&mut file).expect("header");
    compiled.for_each(|access| writer.write(access).expect("record"));
    writer.finish().expect("flush");
    drop(file);
    let path_json = {
        let mut s = String::new();
        Json::Str(path.to_str().expect("utf-8 temp path").to_string()).write(&mut s);
        s
    };

    let server = Server::new(quick_config());
    let frames = format!(
        "{{\"id\": 1, \"op\": \"advise\", \"trace\": {path_json}, \"sample\": 0}}\n\
         {{\"id\": 2, \"op\": \"advise\", \"trace\": {path_json}}}\n\
         {{\"id\": 3, \"op\": \"advise\", \"trace\": {path_json}, \"kernel\": \"DOT256K\"}}\n\
         {{\"id\": 4, \"op\": \"advise\", \"trace\": {path_json}, \"mode\": \"fast\"}}\n\
         {{\"id\": 5, \"op\": \"advise\", \"trace\": \"/no/such/file.trc\"}}\n"
    );
    let responses = session(&server, &frames);
    std::fs::remove_file(&path).ok();
    assert_eq!(responses.len(), 5, "every frame answered: {responses:?}");

    for id in [1, 2] {
        let ok = by_id(&responses, id);
        assert_eq!(status(ok), "ok", "{ok:?}");
        assert_eq!(
            ok.get("cached"),
            Some(&Json::Bool(false)),
            "trace answers never replay"
        );
        assert_eq!(ok.get("degraded"), Some(&Json::Bool(false)));
        let result = ok.get("result").expect("result body");
        assert_eq!(
            result.get("mode_used").and_then(Json::as_str),
            Some("exact")
        );
        assert_eq!(
            result.get("accesses").and_then(Json::as_u64),
            Some(compiled.count())
        );
        for key in ["plain", "xor", "victim", "heat", "reuse"] {
            assert!(
                result.get(key).is_some(),
                "section `{key}` present: {result:?}"
            );
        }
    }
    assert_eq!(
        by_id(&responses, 1)
            .get("result")
            .expect("body")
            .to_string(),
        by_id(&responses, 2)
            .get("result")
            .expect("body")
            .to_string(),
        "trace answers are deterministic even without the store"
    );

    assert_eq!(
        error_kind(by_id(&responses, 3)),
        "invalid",
        "kernel+trace is ambiguous"
    );
    assert_eq!(
        error_kind(by_id(&responses, 4)),
        "invalid",
        "fast cannot answer a trace"
    );
    assert_eq!(
        error_kind(by_id(&responses, 5)),
        "invalid",
        "missing file is refused"
    );
}

#[test]
fn warm_queries_answer_from_cache_without_resimulation() {
    // Streamed session: each response is awaited before the next frame
    // goes in, so the stats snapshot at the end is deterministic.
    let server = Server::new(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let (in_tx, in_rx) = mpsc::channel::<Vec<u8>>();
    let (out_tx, out_rx) = mpsc::channel::<String>();

    std::thread::scope(|scope| {
        scope.spawn(|| {
            server
                .serve(
                    BufReader::new(ChannelReader::new(in_rx)),
                    LineWriter::new(out_tx),
                )
                .expect("in-memory serve cannot fail");
        });

        let advise = r#"{"id": IDX, "op": "advise", "kernel": "DOT256K", "n": 512}"#;
        let mut bodies = Vec::new();
        for i in 1..=3i64 {
            in_tx
                .send((advise.replace("IDX", &i.to_string()) + "\n").into_bytes())
                .expect("server is reading");
            let response = next_response(&out_rx, 30);
            assert_eq!(response.get("id").and_then(Json::as_i64), Some(i));
            assert_eq!(status(&response), "ok");
            assert_eq!(
                response.get("cached"),
                Some(&Json::Bool(i > 1)),
                "first answer is cold, the rest replay"
            );
            bodies.push(response.get("result").expect("result body").to_string());
        }
        assert_eq!(bodies[0], bodies[1], "cached answers are bit-exact");
        assert_eq!(bodies[0], bodies[2], "cached answers are bit-exact");

        in_tx
            .send(
                br#"{"id": 9, "op": "stats"}
"#
                .to_vec(),
            )
            .expect("server is reading");
        let stats = next_response(&out_rx, 30);
        let stats = stats.get("stats").expect("stats body");
        assert_eq!(stats.get("simulations").and_then(Json::as_i64), Some(1));
        assert_eq!(stats.get("cache_hits").and_then(Json::as_i64), Some(2));
        assert_eq!(stats.get("ok").and_then(Json::as_i64), Some(3));
        assert_eq!(stats.get("errors").and_then(Json::as_i64), Some(0));
        drop(in_tx); // EOF ends the serve loop
    });
}
