//! End-to-end tests of `padtool` driven through the library entry point.

use pad_cli::run;

fn args(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

#[test]
fn suite_lists_kernels() {
    run(&args(&["suite"])).expect("suite works");
}

#[test]
fn help_is_not_an_error() {
    run(&args(&["help"])).expect("help works");
}

#[test]
fn unknown_command_is_reported() {
    let err = run(&args(&["frobnicate"])).expect_err("unknown command");
    assert!(err.contains("unknown command"));
}

#[test]
fn missing_target_is_reported() {
    let err = run(&args(&["simulate"])).expect_err("needs target");
    assert!(err.contains("needs a target"));
}

#[test]
fn bundled_kernels_resolve_case_insensitively() {
    run(&args(&["parse", "jacobi512", "--n", "16"])).expect("bundled kernel parses");
}

#[test]
fn analyze_layout_simulate_estimate_tile_on_a_kernel() {
    for cmd in ["analyze", "layout", "simulate", "estimate", "tile"] {
        run(&args(&[cmd, "JACOBI512", "--n", "64", "--cache", "2k"]))
            .unwrap_or_else(|e| panic!("{cmd} failed: {e}"));
    }
}

#[test]
fn padlite_algorithm_is_selectable() {
    run(&args(&[
        "layout",
        "EXPL512",
        "--n",
        "32",
        "--algorithm",
        "padlite",
    ]))
    .expect("padlite runs");
    let err = run(&args(&[
        "layout",
        "EXPL512",
        "--n",
        "32",
        "--algorithm",
        "magic",
    ]))
    .expect_err("bad algorithm");
    assert!(err.contains("unknown algorithm"));
}

#[test]
fn text_files_load_and_unreadable_targets_fail() {
    let dir = std::env::temp_dir().join("padtool_cli_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("tiny.pad");
    std::fs::write(
        &path,
        "program tiny\narray A(64, 64)\ndo i = 1, 64\n  do j = 1, 64\n    A(j, i) = A(j, i)\n  end\nend\n",
    )
    .expect("write");
    run(&args(&[
        "simulate",
        path.to_str().expect("utf8"),
        "--cache",
        "1k",
    ]))
    .expect("file target works");

    let err = run(&args(&["parse", "/nonexistent/nope.pad"])).expect_err("bad path");
    assert!(err.contains("neither a bundled kernel"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_cache_geometry_is_reported() {
    let err = run(&args(&[
        "simulate",
        "JACOBI512",
        "--n",
        "32",
        "--cache",
        "1000",
    ]))
    .expect_err("bad");
    assert!(err.contains("power of two"));
}

#[test]
fn ora_has_nothing_to_do_but_everything_still_works() {
    for cmd in ["analyze", "layout", "simulate", "estimate", "tile"] {
        run(&args(&[cmd, "ORA"])).unwrap_or_else(|e| panic!("{cmd} on ORA failed: {e}"));
    }
}

#[test]
fn record_and_ingest_roundtrip_binary_and_ndjson() {
    let dir = std::env::temp_dir().join(format!("padtool_ingest_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let bin = dir.join("dot.trc");
    let nd = dir.join("dot.ndjson");
    run(&args(&[
        "record",
        "DOT256K",
        "--n",
        "256",
        "--out",
        bin.to_str().unwrap(),
    ]))
    .expect("record binary");
    run(&args(&[
        "record",
        "DOT256K",
        "--n",
        "256",
        "--out",
        nd.to_str().unwrap(),
    ]))
    .expect("record ndjson (format guessed from extension)");

    // Both encodings decode to the same access stream.
    let mut from_bin = Vec::new();
    pad_trace_ingest::read_trace_file(&bin, None, |c| from_bin.extend_from_slice(c))
        .expect("binary reads back");
    let mut from_nd = Vec::new();
    pad_trace_ingest::read_trace_file(&nd, None, |c| from_nd.extend_from_slice(c))
        .expect("ndjson reads back");
    assert_eq!(from_bin, from_nd, "encodings carry the identical stream");

    // Replaying the recorded trace reproduces the kernel's simulated
    // miss counts bit-identically — the tentpole acceptance criterion.
    let program = pad_kernels::suite()
        .into_iter()
        .find(|k| k.name == "DOT256K")
        .map(|k| (k.spec)(256))
        .expect("bundled kernel");
    let layout = pad_core::DataLayout::original(&program);
    let cache = pad_cache_sim::CacheConfig::paper_base();
    let direct = pad_trace::simulate_program(&program, &layout, &cache);
    let mut sinks = pad_trace::Sinks::new(&pad_trace::BatchRequest::new().with_plain(cache));
    sinks.feed(&from_bin);
    assert_eq!(
        sinks.finish().plain[0],
        direct,
        "trace replay matches direct simulation"
    );

    // The full diagnostic flag set runs end to end and the per-set
    // heat CSV lands on disk with one row per cache set.
    let csv = dir.join("heat.csv");
    run(&args(&[
        "ingest",
        bin.to_str().unwrap(),
        "--xor",
        "--victim",
        "8",
        "--heat",
        "--mrc",
        "--sample",
        "2",
        "--csv",
        csv.to_str().unwrap(),
    ]))
    .expect("ingest with all diagnostics");
    let csv_text = std::fs::read_to_string(&csv).expect("CSV written");
    assert!(
        csv_text.starts_with("set,"),
        "CSV header first: {csv_text:?}"
    );
    assert_eq!(csv_text.lines().count(), cache.num_sets() as usize + 1);

    let err = run(&args(&["ingest", "/no/such.trc"])).expect_err("missing trace");
    assert!(err.contains("/no/such.trc"));
    let err = run(&args(&["record", "DOT256K"])).expect_err("record without --out");
    assert!(err.contains("--out"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_and_ingest_work_as_real_processes() {
    use std::process::Command;

    let dir = std::env::temp_dir().join(format!("padtool_ingest_proc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let trace = dir.join("dot.trc");

    let record = Command::new(env!("CARGO_BIN_EXE_padtool"))
        .args([
            "record",
            "DOT256K",
            "--n",
            "256",
            "--out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn padtool record");
    assert!(record.status.success(), "record failed: {record:?}");

    let ingest = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_padtool"))
            .arg("ingest")
            .arg(trace.to_str().unwrap())
            .args(extra)
            .output()
            .expect("spawn padtool ingest");
        assert!(out.status.success(), "ingest failed: {out:?}");
        String::from_utf8(out.stdout).expect("UTF-8 output")
    };

    // The process-level replay reports the exact miss count the
    // in-process simulator computes for the same kernel and cache.
    let program = pad_kernels::suite()
        .into_iter()
        .find(|k| k.name == "DOT256K")
        .map(|k| (k.spec)(256))
        .expect("bundled kernel");
    let layout = pad_core::DataLayout::original(&program);
    let expected =
        pad_trace::simulate_program(&program, &layout, &pad_cache_sim::CacheConfig::paper_base());
    let plain = ingest(&[]);
    assert!(
        plain.contains(&format!("replayed {} access(es)", expected.accesses)),
        "access count reported: {plain}"
    );
    assert!(
        plain.contains(&expected.misses.to_string()),
        "exact miss count {} reported: {plain}",
        expected.misses
    );

    // Repeat runs are bit-identical, flags and all.
    let full_flags = ["--xor", "--victim", "4", "--heat", "--mrc"];
    assert_eq!(
        ingest(&full_flags),
        ingest(&full_flags),
        "deterministic output"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_reads_no_harness_knobs() {
    use std::process::Command;

    // `padtool search` answers like the service does: from its flags
    // alone, whatever the figure harness's environment says.
    let search = |env: &[(&str, &str)]| {
        let out = Command::new(env!("CARGO_BIN_EXE_padtool"))
            .args(["search", "JACOBI512", "--n", "24"])
            .env_remove("PAD_QUICK")
            .env_remove("RIVERA_SEARCH_BEAM")
            .envs(env.iter().copied())
            .output()
            .expect("spawn padtool search");
        assert!(out.status.success(), "search failed: {out:?}");
        String::from_utf8(out.stdout).expect("UTF-8 output")
    };
    let plain = search(&[]);
    assert_eq!(search(&[("PAD_QUICK", "1")]), plain, "under PAD_QUICK=1");
    assert_eq!(
        search(&[("RIVERA_SEARCH_BEAM", "1")]),
        plain,
        "under RIVERA_SEARCH_BEAM=1"
    );
}
