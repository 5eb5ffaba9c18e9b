//! The process-wide metric families reach the `metrics` op: one session
//! against a real engine (no handler) sends an exact PAD advise, an
//! exact search, an exact PAD advise of the searched nest under a second
//! cache geometry and an exact trace replay, then reads `metrics` and
//! checks that the walk, walk memo, engine, search, ingest and pool
//! families count exactly that work.
//!
//! The process-global registry is shared by everything in a process, so
//! this lives in its own integration binary with a single test.

mod common;

use std::io::BufReader;
use std::sync::mpsc;

use common::{next_response, status, ChannelReader, LineWriter};
use pad_advisor::json::Json;
use pad_advisor::{Server, ServerConfig};

fn counter(metrics: &Json, name: &str) -> i64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("metrics response lacks counter {name}: {metrics}"))
}

fn histogram_count(metrics: &Json, name: &str) -> i64 {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("metrics response lacks histogram {name}: {metrics}"))
}

#[test]
fn process_families_reach_the_metrics_op() {
    pad_telemetry::set_metrics_enabled(true);

    // A PTRC recording of a small kernel, for the trace request.
    let program = pad_kernels::suite()
        .into_iter()
        .find(|k| k.name == "DOT256K")
        .map(|k| (k.spec)(256))
        .expect("DOT256K is a built-in kernel");
    let layout = pad_core::DataLayout::original(&program);
    let compiled = pad_trace::CompiledTrace::compile(&program, &layout);
    let path = std::env::temp_dir().join(format!(
        "pad-advisor-metrics-families-{}.trc",
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

    let server = Server::new(ServerConfig {
        threads: 1,
        deadline: None,
        ..ServerConfig::default()
    });
    let (in_tx, in_rx) = mpsc::channel::<Vec<u8>>();
    let (out_tx, out_rx) = mpsc::channel::<String>();

    let (search, trace, metrics) = std::thread::scope(|scope| {
        scope.spawn(|| {
            server
                .serve(
                    BufReader::new(ChannelReader::new(in_rx)),
                    LineWriter::new(out_tx),
                )
                .expect("in-memory serve cannot fail");
        });
        // Each answer is awaited before the next frame goes out, so the
        // inline `metrics` answer comes after all three analyses.
        let ask = |frame: String| {
            in_tx
                .send((frame + "\n").into_bytes())
                .expect("server reading");
            let response = next_response(&out_rx, 120);
            assert_eq!(status(&response), "ok", "{response}");
            response
        };
        ask(r#"{"id": 1, "op": "advise", "kernel": "EXPL512", "n": 64, "mode": "exact"}"#.into());
        let search = ask(r#"{"id": 2, "op": "advise", "kernel": "DOT256K", "n": 256, "algorithm": "search", "strategy": "beam", "budget": 40, "mode": "exact"}"#.into());
        // PAD leaves this nest's layout alone, and the search answer
        // above walked the same original layout at the same line size:
        // its curve comes from the walk memo.
        ask(r#"{"id": 3, "op": "advise", "kernel": "DOT256K", "n": 256, "cache": {"size": 8192, "line": 32, "ways": 2}, "mode": "exact"}"#.into());
        let trace = ask(format!(
            r#"{{"id": 4, "op": "advise", "trace": {path_json}, "mode": "exact"}}"#
        ));
        let metrics = ask(r#"{"id": 5, "op": "metrics"}"#.into());
        drop(in_tx); // EOF: serve drains and returns
        (search, trace, metrics)
    });
    std::fs::remove_file(&path).ok();

    let metrics = metrics.get("metrics").expect("metrics body");
    let result = |answer: &Json| answer.get("result").expect("result body").clone();
    let candidates = result(&search)
        .get("search")
        .and_then(|s| s.get("candidates"))
        .and_then(Json::as_i64)
        .expect("search answers carry their candidate count");
    let accesses = result(&trace)
        .get("accesses")
        .and_then(Json::as_i64)
        .expect("trace answers carry their access count");

    assert!(counter(metrics, "pad_sim_accesses_total") > 0);
    assert_eq!(
        histogram_count(metrics, "pad_engine_analysis_us{rung=\"exact\"}"),
        3
    );
    // EXPL512's two layouts walked their plain and reuse sinks (4
    // misses). The search confirmed each promoted candidate on the
    // request's cache (misses), and its answer took the original's and
    // the winner's plain counts from those confirmations (2 hits) but
    // walked their curves (2 misses). The second geometry's answer took
    // the original's curve (1 hit) and walked its plain cache (1 miss).
    let promoted = result(&search)
        .get("search")
        .and_then(|s| s.get("promoted"))
        .and_then(Json::as_i64)
        .expect("search answers carry their promotion count");
    let bases = |answer: &Json| match answer.get("arrays") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|a| a.get("base").and_then(Json::as_u64))
            .collect::<Vec<_>>(),
        other => panic!("arrays is a list: {other:?}"),
    };
    let original: Vec<_> = program
        .arrays_with_ids()
        .map(|(id, _)| Some(layout.base_addr(id)))
        .collect();
    assert_ne!(
        bases(&result(&search)),
        original,
        "the premise: the search's winner is not the original layout"
    );
    assert_eq!(counter(metrics, "pad_sim_memo_total{outcome=\"hit\"}"), 3);
    assert_eq!(
        counter(metrics, "pad_sim_memo_total{outcome=\"miss\"}"),
        4 + promoted + 2 + 1
    );
    assert_eq!(
        histogram_count(metrics, "pad_engine_analysis_us{rung=\"trace\"}"),
        1
    );
    assert_eq!(
        counter(metrics, "pad_search_candidates_total{strategy=\"beam\"}"),
        candidates
    );
    assert_eq!(counter(metrics, "pad_ingest_records_total"), accesses);
    assert!(histogram_count(metrics, "pad_pool_cell_latency_us") >= 3);
}
