//! Telemetry must be purely observational: running a sweep with
//! `RIVERA_TELEMETRY=events` must leave every rendered result — table
//! text and CSV bytes — identical to the same sweep with telemetry off,
//! while actually recording the event stream.
//!
//! One test function on purpose: the collector is process-global, and a
//! single entry point avoids cross-test interference without locking.

use pad_bench::harness::{cells_or_marker, pct, RunContext, Variant};
use pad_cache_sim::CacheConfig;
use pad_report::{csv_string, Table};
use pad_telemetry::{EventKind, Mode};

/// A miniature figure sweep: two kernels x two variants through the
/// fault-tolerant context, rendered exactly like the figure binaries do.
fn sweep() -> Table {
    let cache = CacheConfig::direct_mapped(8 * 1024, 32);
    let kernels = [
        ("JACOBI", pad_kernels::jacobi::spec(48)),
        ("SHAL", pad_kernels::shal::spec(48)),
    ];
    let ctx = RunContext::plain(2);
    let labels: Vec<String> = kernels.iter().map(|(name, _)| name.to_string()).collect();
    let outcomes = ctx.run(&labels, |i| {
        let program = &kernels[i].1;
        vec![
            pct(pad_bench::harness::miss_rate_percent(
                program,
                Variant::Original,
                &cache,
            )),
            pct(pad_bench::harness::miss_rate_percent(
                program,
                Variant::PadLite,
                &cache,
            )),
        ]
    });
    let mut t = Table::new(["kernel", "orig", "padlite"]);
    for ((name, _), outcome) in kernels.iter().zip(&outcomes) {
        let mut row = vec![name.to_string()];
        row.extend(cells_or_marker(outcome, 2, Clone::clone));
        t.row(row);
    }
    ctx.finish();
    t
}

#[test]
fn events_mode_leaves_results_byte_identical_to_off_mode() {
    assert_eq!(
        pad_telemetry::mode(),
        Mode::Off,
        "test assumes a fresh process"
    );
    // Keep the events-mode trace export out of the repo tree.
    let trace = std::env::temp_dir().join(format!("rivera-telemetry-{}.json", std::process::id()));
    std::env::set_var(pad_telemetry::TRACE_OUT_ENV, &trace);

    let off = sweep();
    let (off_text, off_csv) = (off.to_string(), csv_string(&off));

    let recorder = pad_telemetry::install_recorder(Mode::Summary);
    let summary_mode = sweep();
    let after_summary = recorder.len();

    let recorder = pad_telemetry::install_recorder(Mode::Events);
    let events_mode = sweep();
    let events = recorder.snapshot();
    pad_telemetry::uninstall();

    // Golden property: observation changes nothing the science reports.
    assert_eq!(
        off_text,
        summary_mode.to_string(),
        "summary mode changed the table"
    );
    assert_eq!(
        off_text,
        events_mode.to_string(),
        "events mode changed the table"
    );
    assert_eq!(
        off_csv,
        csv_string(&summary_mode),
        "summary mode changed the CSV"
    );
    assert_eq!(
        off_csv,
        csv_string(&events_mode),
        "events mode changed the CSV"
    );

    // And the stream is real: both instrumented modes recorded cell
    // spans and batched-walk spans for both kernels.
    assert!(after_summary > 0, "summary mode recorded nothing");
    let cell_spans: Vec<&str> = events
        .iter()
        .filter(|e| e.category == "cell" && matches!(e.kind, EventKind::Span { .. }))
        .map(|e| e.name.as_str())
        .collect();
    assert!(
        cell_spans.contains(&"JACOBI"),
        "no JACOBI cell span in {cell_spans:?}"
    );
    assert!(
        cell_spans.contains(&"SHAL"),
        "no SHAL cell span in {cell_spans:?}"
    );
    assert!(
        events.iter().any(|e| e.category == "sim"),
        "no simulation spans recorded in events mode"
    );
    assert!(
        events.iter().any(|e| e.category == "pad"),
        "no pad-decision events recorded in events mode"
    );

    // finish() in events mode exported both sink formats.
    let ndjson = trace.with_extension("ndjson");
    assert!(
        trace.is_file(),
        "missing Chrome trace export at {}",
        trace.display()
    );
    assert!(
        ndjson.is_file(),
        "missing NDJSON export at {}",
        ndjson.display()
    );
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&ndjson);
}
