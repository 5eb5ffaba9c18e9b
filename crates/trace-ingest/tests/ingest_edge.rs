//! Edge-case and differential coverage for trace ingestion: truncated
//! and garbage inputs get typed errors with positions, zero-length
//! traces are valid, record counts straddling the reader's chunk
//! boundary replay exactly, and traces recorded from the built-in kernels
//! replay through `pad_trace::Sinks` to the kernels' simulated results
//! bit-identically.

use pad_cache_sim::{
    Access, Cache, CacheConfig, IndexFunction, ReuseAnalyzer, SampledReuseAnalyzer,
};
use pad_core::DataLayout;
use pad_trace::{simulate_batch, BatchRequest, CompiledTrace, Sinks};
use pad_trace_ingest::binary::{self, BinaryTraceWriter};
use pad_trace_ingest::{ndjson, read_trace, read_trace_file, IngestError, TraceFormat};

/// A deterministic synthetic trace with reuse, strides, and writes.
fn synth_trace(n: usize) -> Vec<Access> {
    (0..n as u64)
        .map(|i| {
            let addr = (i * 40) % 8192 + (i % 7) * 4096;
            if i % 5 == 0 {
                Access::write(addr)
            } else {
                Access::read(addr)
            }
        })
        .collect()
}

fn kernel_trace(name: &str, n: i64) -> (pad_ir::Program, Vec<Access>) {
    let program = pad_kernels::suite()
        .into_iter()
        .find(|k| k.name == name)
        .map(|k| (k.spec)(n))
        .unwrap_or_else(|| panic!("{name} is a bundled kernel"));
    let layout = DataLayout::original(&program);
    let compiled = CompiledTrace::compile(&program, &layout);
    let mut trace = Vec::new();
    compiled.for_each(|a| trace.push(a));
    (program, trace)
}

#[test]
fn truncated_final_record_is_a_typed_error_with_position() {
    let trace = synth_trace(10);
    let mut bytes = Vec::new();
    binary::write_binary(&mut bytes, &trace).unwrap();

    // Cut mid-way through the final record: every prefix length that
    // is not a whole number of records must fail with the position.
    for cut in 1..binary::RECORD_SIZE {
        let cropped = &bytes[..bytes.len() - cut];
        let err = read_trace(&mut &cropped[..], TraceFormat::Binary, |_| {})
            .expect_err("mid-record cut detected");
        match err {
            IngestError::TruncatedRecord {
                records,
                trailing_bytes,
            } => {
                assert_eq!(records, 9);
                assert_eq!(trailing_bytes, binary::RECORD_SIZE - cut);
            }
            other => panic!("wrong error: {other}"),
        }
        assert!(other_is_displayable(&err));
    }

    // A cut inside the header is its own error.
    let err =
        read_trace(&mut &bytes[..5], TraceFormat::Binary, |_| {}).expect_err("header cut detected");
    assert!(matches!(err, IngestError::TruncatedHeader { bytes: 5 }));
}

fn other_is_displayable(err: &IngestError) -> bool {
    !err.to_string().is_empty()
}

#[test]
fn garbage_ndjson_lines_are_rejected_with_their_line_number() {
    let good = r#"{"addr": 64}
{"addr": 128, "write": true}
"#;
    let cases: &[(&str, &str)] = &[
        ("{not json at all", "line 3"),
        ("[64, 128]", "line 3"),
        (r#"{"write": true}"#, "line 3"),
        (r#"{"addr": -64}"#, "line 3"),
        (r#"{"addr": "sixty-four"}"#, "line 3"),
    ];
    for (garbage, expect) in cases {
        let input = format!("{good}{garbage}\n");
        let mut seen = 0u64;
        let err = read_trace(&mut input.as_bytes(), TraceFormat::Ndjson, |c| {
            seen += c.len() as u64;
        })
        .expect_err("garbage rejected");
        let IngestError::Line { line, .. } = &err else {
            panic!("wrong error for {garbage:?}: {err}")
        };
        assert_eq!(*line, 3, "position reported for {garbage:?}");
        assert!(err.to_string().contains(expect), "{err}");
    }

    // A line longer than the cap is rejected rather than buffered.
    let oversized = format!(
        "{good}{{\"addr\": 64, \"pad\": \"{}\"}}\n",
        "x".repeat(8192)
    );
    let err = read_trace(&mut oversized.as_bytes(), TraceFormat::Ndjson, |_| {})
        .expect_err("oversized line rejected");
    assert!(matches!(err, IngestError::Line { line: 3, .. }), "{err}");
}

#[test]
fn zero_length_traces_are_valid_and_empty_files_are_not() {
    // A header-only binary trace is a valid empty trace.
    let mut bytes = Vec::new();
    binary::write_binary(&mut bytes, &[]).unwrap();
    let mut chunks = 0;
    let records = read_trace(&mut &bytes[..], TraceFormat::Binary, |_| chunks += 1).unwrap();
    assert_eq!((records, chunks), (0, 0));

    // A zero-byte file is not: it has no header to validate.
    let err = read_trace(&mut &[][..], TraceFormat::Binary, |_| {})
        .expect_err("headerless file rejected");
    assert!(matches!(err, IngestError::TruncatedHeader { bytes: 0 }));

    // NDJSON: empty input and blank lines are both zero-length traces.
    for input in ["", "\n\n\n"] {
        let records = read_trace(&mut input.as_bytes(), TraceFormat::Ndjson, |_| {}).unwrap();
        assert_eq!(records, 0, "for input {input:?}");
    }

    // An empty trace replays to empty results everywhere.
    let mut sinks = Sinks::new(
        &BatchRequest::new()
            .with_plain(CacheConfig::paper_base())
            .with_heat(CacheConfig::paper_base())
            .with_reuse(32, 0),
    );
    let records = read_trace(&mut &bytes[..], TraceFormat::Binary, |c| sinks.feed(c)).unwrap();
    let results = sinks.finish();
    assert_eq!(records, 0);
    assert_eq!(results.plain[0].accesses, 0);
    assert_eq!(results.heat[0].total_evictions(), 0);
    assert_eq!(results.reuse[0].accesses(), 0);
}

#[test]
fn record_counts_straddling_the_lane_boundary_replay_exactly() {
    // The binary reader chunks at 4096 records; counts one off that
    // boundary, and off smaller powers of two, must replay identically
    // to a one-access-at-a-time walk of the same stream.
    let cache = CacheConfig::paper_base();
    for n in [1usize, 127, 128, 129, 255, 256, 4095, 4096, 4097] {
        let trace = synth_trace(n);
        let mut bytes = Vec::new();
        binary::write_binary(&mut bytes, &trace).unwrap();

        let mut sinks = Sinks::new(&BatchRequest::new().with_plain(cache).with_heat(cache));
        let records = read_trace(&mut &bytes[..], TraceFormat::Binary, |c| sinks.feed(c)).unwrap();
        assert_eq!(records, n as u64);
        let results = sinks.finish();

        let mut reference = Cache::new(cache);
        for &a in &trace {
            reference.access(a);
        }
        assert_eq!(&results.plain[0], reference.stats(), "n = {n}");
        let heat = &results.heat[0];
        assert_eq!(
            heat.rows().iter().map(|r| r.accesses).sum::<u64>(),
            n as u64,
            "n = {n}: every access lands in exactly one set"
        );
        assert_eq!(
            heat.rows().iter().map(|r| r.misses).sum::<u64>(),
            reference.stats().misses,
            "n = {n}"
        );
    }
}

#[test]
fn kernel_traces_replay_bit_identically_through_both_encodings() {
    // Every sink kind, fed from a recorded trace in either encoding,
    // matches the compiled walk of the same program and layout.
    let cache = CacheConfig::paper_base();
    let request = BatchRequest::new()
        .with_plain(cache)
        .with_plain(cache.with_index_function(IndexFunction::Xor))
        .with_classified(cache)
        .with_victim(cache, 8)
        .with_hierarchy([cache, CacheConfig::set_associative(64 * 1024, 32, 4)])
        .with_reuse(cache.line_size(), 0)
        .with_reuse(cache.line_size(), 3)
        .with_heat(cache);
    for (name, n) in [("DOT256K", 384), ("JACOBI512", 48), ("EXPL512", 24)] {
        let (program, trace) = kernel_trace(name, n);
        let walked = simulate_batch(&program, &DataLayout::original(&program), &request);

        for format in [TraceFormat::Binary, TraceFormat::Ndjson] {
            let mut bytes = Vec::new();
            match format {
                TraceFormat::Binary => binary::write_binary(&mut bytes, &trace).unwrap(),
                TraceFormat::Ndjson => ndjson::write_ndjson(&mut bytes, &trace).unwrap(),
            }
            let mut sinks = Sinks::new(&request);
            let mut unsampled = SampledReuseAnalyzer::new(cache.line_size(), 0);
            let records = read_trace(&mut &bytes[..], format, |c| {
                sinks.feed(c);
                unsampled.run_slice(c);
            })
            .unwrap();
            let replayed = sinks.finish();
            assert_eq!(records, trace.len() as u64, "{name}/{format}");
            assert_eq!(
                replayed, walked,
                "{name}/{format}: replay must equal the compiled walk bit-for-bit"
            );
            assert_eq!(
                unsampled.histogram(),
                &replayed.reuse[0],
                "{name}/{format}: a k = 0 sampled sink is the exact one"
            );
        }
    }
}

#[test]
fn sampled_reuse_tracks_exact_reuse_on_kernel_traces() {
    // The SHARDS differential on a real kernel stream: at rate 1/16 the
    // sampled miss-ratio curve stays within a documented absolute error
    // of the exact curve at every power-of-two capacity, and k=0 is
    // bit-identical to the exact analyzer.
    const SAMPLE_LOG2: u32 = 4;
    const MAX_ABS_ERROR: f64 = 0.08;

    // A stencil, not the dot product: single-pass kernels have no
    // long-range reuse, so their curves end before the sampling floor.
    let (_, trace) = kernel_trace("JACOBI512", 128);
    let line_size = 32;

    let mut exact = ReuseAnalyzer::new(line_size);
    exact.run_slice(&trace);
    let exact_hist = exact.histogram().clone();

    let mut unsampled = SampledReuseAnalyzer::new(line_size, 0);
    unsampled.run_slice(&trace);
    assert_eq!(
        unsampled.histogram(),
        &exact_hist,
        "k=0 degenerates to the exact analyzer bit-for-bit"
    );

    let mut sampled = SampledReuseAnalyzer::new(line_size, SAMPLE_LOG2);
    sampled.run_slice(&trace);
    let sampled_hist = sampled.histogram().clone();
    // Rescaled distances are multiples of 2^k, so the sampled curve's
    // resolution is 2^k lines. At the resolution limit itself a single
    // quantization step still dominates; the documented bound holds
    // from 4×2^k lines up (see EXPERIMENTS.md).
    let floor = 4u64 << SAMPLE_LOG2;
    let mut checked = 0;
    for lines in exact_hist.pow2_capacities() {
        if lines < floor {
            continue;
        }
        checked += 1;
        let e = exact_hist.miss_ratio_at(lines);
        let s = sampled_hist.miss_ratio_at(lines);
        assert!(
            (e - s).abs() <= MAX_ABS_ERROR,
            "capacity {lines} lines: exact {e:.4} vs sampled {s:.4} exceeds {MAX_ABS_ERROR}"
        );
    }
    assert!(
        checked >= 4,
        "the curve extends well past the sampling floor"
    );
}

#[test]
fn trace_files_roundtrip_from_disk_with_format_guessing() {
    let dir = std::env::temp_dir().join(format!("pad-trace-ingest-edge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = synth_trace(300);

    let bin_path = dir.join("t.trc");
    let mut file = std::fs::File::create(&bin_path).unwrap();
    let mut writer = BinaryTraceWriter::new(&mut file).unwrap();
    for &a in &trace {
        writer.write(a).unwrap();
    }
    writer.finish().unwrap();
    drop(file);

    let nd_path = dir.join("t.ndjson");
    let mut bytes = Vec::new();
    ndjson::write_ndjson(&mut bytes, &trace).unwrap();
    std::fs::write(&nd_path, bytes).unwrap();

    for path in [&bin_path, &nd_path] {
        let mut back = Vec::new();
        let records = read_trace_file(path, None, |c| back.extend_from_slice(c)).unwrap();
        assert_eq!(records, trace.len() as u64, "{}", path.display());
        assert_eq!(back, trace, "{}", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}
