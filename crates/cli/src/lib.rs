//! `padtool` — command-line driver for the conflict-miss padding
//! analysis.
//!
//! ```text
//! padtool suite                          list bundled benchmark kernels
//! padtool parse <file|kernel>            parse and pretty-print a program
//! padtool analyze <file|kernel> [opts]   report severe conflicts
//! padtool layout <file|kernel> [opts]    run PADLITE/PAD, print the layout
//! padtool simulate <file|kernel> [opts]  miss rates, original vs padded
//! padtool estimate <file|kernel> [opts]  analytic miss-rate model vs simulation
//! padtool tile <file|kernel> [opts]      conflict-free tile sizes per array
//! padtool search <file|kernel> [opts]    global layout search vs both heuristics
//! padtool record <file|kernel> [opts]    write the reference stream as a trace file
//! padtool ingest <trace> [opts]          replay an external trace through the simulator
//! padtool serve                          NDJSON advisor server on stdin/stdout
//!
//! options:
//!   --cache BYTES   cache size (default 16384)
//!   --line BYTES    line size (default 32)
//!   --ways N        associativity for simulation (default 1)
//!   --algorithm A   pad | padlite (default pad)
//!   --n N           problem size for bundled kernels (default: kernel's)
//!
//! search options:
//!   --strategy S    beam | anneal (default beam)
//!   --budget N      fast-evaluation candidate budget (default 800)
//!   --seed N        annealer RNG seed (default 0x5EED)
//!   --beam N        beam width (default 6)
//!
//! trace options (record/ingest):
//!   --out FILE      where `record` writes the trace (required)
//!   --format F      binary | ndjson (default: guessed from the extension)
//!   --xor           also replay through an XOR-indexed cache
//!   --victim N      add a victim buffer of N lines as a scenario
//!   --heat          classify per-set heat (very-hot .. very-cold)
//!   --csv FILE      write the per-set heat table as CSV
//!   --mrc           report a miss-ratio curve from reuse distances
//!   --sample K      SHARDS-sample the curve at rate 2^-K (0 = exact)
//! ```
//!
//! A positional argument naming a bundled kernel (see `padtool suite`)
//! uses its built-in specification; anything else is read as a program
//! file in the `pad-ir` textual format.
//!
//! `serve` runs the fault-hardened layout-advisor loop: one JSON
//! request per input line, one JSON response per output line, tuned by
//! the `RIVERA_ADVISOR_*` environment variables (see the README table).

use pad_cache_sim::CacheConfig;
use pad_core::{find_severe_conflicts, DataLayout, PaddingConfig, PaddingOutcome, PaddingPipeline};
use pad_ir::Program;
use pad_kernels::suite;
use pad_report::Table;
use pad_trace::simulate_classified;

mod options;

pub use options::Options;

/// Executes one `padtool` invocation (arguments exclude the program
/// name). Output goes to stdout; the returned error is what `main`
/// prints to stderr.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, unparseable
/// targets or options, and invalid cache geometry.
pub fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "suite" => cmd_suite(),
        "serve" => cmd_serve(),
        "parse" | "analyze" | "layout" | "simulate" | "estimate" | "tile" | "search" | "record" => {
            let target = args
                .get(1)
                .ok_or_else(|| format!("{command} needs a target\n{}", usage()))?;
            let opts = Options::parse(&args[2..])?;
            let program = load_program(target, &opts)?;
            match command.as_str() {
                "parse" => cmd_parse(&program),
                "analyze" => cmd_analyze(&program, &opts),
                "layout" => cmd_layout(&program, &opts),
                "simulate" => cmd_simulate(&program, &opts),
                "estimate" => cmd_estimate(&program, &opts),
                "tile" => cmd_tile(&program, &opts),
                "search" => cmd_search(&program, &opts),
                "record" => cmd_record(&program, &opts),
                _ => unreachable!(),
            }
        }
        "ingest" => {
            let target = args
                .get(1)
                .ok_or_else(|| format!("{command} needs a trace file\n{}", usage()))?;
            let opts = Options::parse(&args[2..])?;
            cmd_ingest(target, &opts)
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: padtool <suite|parse|analyze|layout|simulate|search|record|ingest|serve> [target] [options]\n\
     run `padtool help` for details"
        .to_string()
}

/// Runs the NDJSON layout-advisor server over stdin/stdout until EOF
/// or a `shutdown` request. Tuning comes from `RIVERA_ADVISOR_*`
/// environment variables; when `RIVERA_ADVISOR_STORE` names a file the
/// answer store survives restarts (including `kill -9`) and replays
/// bit-exactly.
fn cmd_serve() -> Result<(), String> {
    use pad_advisor::{Server, ServerConfig, Store, STORE_ENV};

    // The service records the process-wide metric families (engine,
    // walk, search, ingest) beside its own; batch commands keep them off.
    pad_telemetry::set_metrics_enabled(true);
    let config = ServerConfig::from_env();
    let store = match std::env::var(STORE_ENV) {
        Ok(path) if !path.is_empty() => {
            Store::open(&path).map_err(|e| format!("cannot open advisor store `{path}`: {e}"))?
        }
        _ => Store::in_memory(),
    };
    let server = Server::with_store(config, store);
    let stdin = std::io::stdin();
    server
        .serve(stdin.lock(), std::io::stdout())
        .map_err(|e| format!("advisor I/O failed: {e}"))
}

fn load_program(target: &str, opts: &Options) -> Result<Program, String> {
    if let Some(kernel) = suite()
        .into_iter()
        .find(|k| k.name.eq_ignore_ascii_case(target))
    {
        let n = opts.n.unwrap_or(kernel.default_n);
        return Ok((kernel.spec)(n));
    }
    let text = std::fs::read_to_string(target)
        .map_err(|e| format!("{target} is neither a bundled kernel nor a readable file: {e}"))?;
    pad_ir::parse(&text).map_err(|e| format!("{target}: {e}"))
}

fn cmd_suite() -> Result<(), String> {
    let mut t = Table::new(["name", "category", "default n", "native", "description"]);
    for k in suite() {
        t.row([
            k.name.to_string(),
            k.category.to_string(),
            k.default_n.to_string(),
            if k.native.is_some() { "yes" } else { "-" }.to_string(),
            k.description.to_string(),
        ]);
    }
    println!("{t}");
    Ok(())
}

fn cmd_parse(program: &Program) -> Result<(), String> {
    println!("{program}");
    println!(
        "{} arrays, {} references in {} loop groups",
        program.arrays().len(),
        program.all_refs().len(),
        program.ref_groups().len()
    );
    Ok(())
}

fn cmd_analyze(program: &Program, opts: &Options) -> Result<(), String> {
    let config = opts.padding_config()?;
    let layout = DataLayout::original(program);
    let conflicts = find_severe_conflicts(program, &layout, &config);
    println!(
        "cache {} B / {} B lines: {} severe conflict pair(s) under the original layout",
        config.primary().size,
        config.primary().line,
        conflicts.len()
    );
    let mut t = Table::new(["ref A", "ref B", "distance B", "on-cache B"]);
    for c in &conflicts {
        t.row([
            c.refs.0.clone(),
            c.refs.1.clone(),
            c.distance_bytes.to_string(),
            c.circular_distance.to_string(),
        ]);
    }
    if !conflicts.is_empty() {
        println!("{t}");
    }
    Ok(())
}

fn run_pipeline(program: &Program, opts: &Options) -> Result<PaddingOutcome, String> {
    let config = opts.padding_config()?;
    let pipeline = match opts.algorithm.as_str() {
        "pad" => PaddingPipeline::pad(config),
        "padlite" => PaddingPipeline::padlite(config),
        other => return Err(format!("unknown algorithm `{other}` (use pad or padlite)")),
    };
    Ok(pipeline.run(program))
}

fn cmd_layout(program: &Program, opts: &Options) -> Result<(), String> {
    let outcome = run_pipeline(program, opts)?;
    println!("{}", outcome.layout);
    println!(
        "cache footprint ({} B): {}",
        opts.cache,
        outcome
            .layout
            .cache_footprint(opts.padding_config()?.primary().size, 64)
    );
    if outcome.events.is_empty() {
        println!("(no padding was necessary)");
    } else {
        println!("decisions:");
        for e in &outcome.events {
            println!("  {e}");
        }
    }
    println!("{}", outcome.stats);
    Ok(())
}

fn cmd_simulate(program: &Program, opts: &Options) -> Result<(), String> {
    let cache = opts.cache_config()?;
    let outcome = run_pipeline(program, opts)?;
    println!("{cache}");
    let mut t = Table::new(["layout", "miss %", "conflict %", "misses", "accesses"]);
    for (label, layout) in [
        ("original", DataLayout::original(program)),
        (opts.algorithm.as_str(), outcome.layout),
    ] {
        let stats = simulate_classified(program, &layout, &cache);
        t.row([
            label.to_string(),
            format!("{:.2}", stats.cache.miss_rate_percent()),
            format!("{:.2}", stats.conflict_rate_percent()),
            stats.cache.misses.to_string(),
            stats.cache.accesses.to_string(),
        ]);
    }
    println!("{t}");
    Ok(())
}

fn cmd_estimate(program: &Program, opts: &Options) -> Result<(), String> {
    use pad_core::estimate_miss_rate;
    let cache = opts.cache_config()?;
    let config = opts.padding_config()?;
    let outcome = run_pipeline(program, opts)?;
    println!("analytic model vs simulation ({cache}):");
    let mut t = Table::new(["layout", "estimated %", "simulated %"]);
    for (label, layout) in [
        ("original", DataLayout::original(program)),
        (opts.algorithm.as_str(), outcome.layout),
    ] {
        let est = estimate_miss_rate(program, &layout, &config);
        let sim = pad_trace::simulate_program(program, &layout, &cache);
        t.row([
            label.to_string(),
            format!("{:.2}", est.miss_rate_percent()),
            format!("{:.2}", sim.miss_rate_percent()),
        ]);
    }
    println!("{t}");
    println!("(the model counts spatial + severe-conflict misses; capacity misses are\n the simulated-minus-estimated gap)");
    Ok(())
}

fn cmd_tile(program: &Program, opts: &Options) -> Result<(), String> {
    use pad_core::select_tile;
    let config = opts.padding_config()?;
    let cs = config.primary().size;
    println!("conflict-free tiles on a {cs}-byte cache (Coleman-McKinley selection):");
    let mut t = Table::new(["array", "column", "tile rows", "tile cols", "tile KB"]);
    for spec in program.arrays() {
        if spec.rank() < 2 {
            continue;
        }
        let tile = select_tile(
            cs,
            spec.column_size(),
            spec.elem_size(),
            spec.column_size(),
            spec.row_size(),
        );
        t.row([
            spec.name().to_string(),
            spec.column_size().to_string(),
            tile.rows.to_string(),
            tile.cols.to_string(),
            format!(
                "{:.1}",
                (tile.elements() * i64::from(spec.elem_size())) as f64 / 1024.0
            ),
        ]);
    }
    if t.is_empty() {
        println!("(no rank-2+ arrays to tile)");
    } else {
        println!("{t}");
    }
    Ok(())
}

fn cmd_search(program: &Program, opts: &Options) -> Result<(), String> {
    use pad_search::{search, SearchConfig};
    use pad_trace::padding_config_for;

    let exact_misses = |program: &Program, layout: &DataLayout, cache: &CacheConfig| {
        pad_trace::simulate_program(program, layout, cache).misses
    };

    let cache = opts.cache_config()?;
    let mut cfg = SearchConfig {
        threads: 1,
        ..Default::default()
    };
    if let Some(s) = opts.strategy {
        cfg.strategy = s;
    }
    if let Some(b) = opts.budget {
        cfg.budget = b;
    }
    if let Some(s) = opts.seed {
        cfg.seed = s;
    }
    if let Some(w) = opts.beam {
        cfg.beam_width = w;
    }

    let result = search(program, &cache, &cfg);
    let pad_config = padding_config_for(&cache);
    let original = DataLayout::original(program);
    let padlite = PaddingPipeline::padlite(pad_config.clone())
        .run(program)
        .layout;
    let pad = PaddingPipeline::pad(pad_config).run(program).layout;

    println!("{cache}");
    let mut t = Table::new(["layout", "misses", "reduction %"]);
    let orig_misses = exact_misses(program, &original, &cache);
    let reduction = |misses: u64| {
        if orig_misses == 0 {
            "0.0".to_string()
        } else {
            format!(
                "{:.1}",
                100.0 * (orig_misses as f64 - misses as f64) / orig_misses as f64
            )
        }
    };
    for (label, layout) in [
        ("original", &original),
        ("padlite", &padlite),
        ("pad", &pad),
        (result.strategy, result.best_layout()),
    ] {
        let misses = exact_misses(program, layout, &cache);
        t.row([label.to_string(), misses.to_string(), reduction(misses)]);
    }
    println!("{t}");
    println!(
        "search: strategy {}, budget {}, seed {}; {} candidate(s) scored, {} promoted, {} discarded",
        result.strategy,
        cfg.budget,
        cfg.seed,
        result.fast_evals,
        result.promotions.len(),
        result.discarded
    );
    println!("{}", result.best_layout());
    Ok(())
}

fn cmd_record(program: &Program, opts: &Options) -> Result<(), String> {
    use pad_trace_ingest::TraceFormat;
    use std::io::Write as _;

    let out_path = opts
        .out
        .as_deref()
        .ok_or_else(|| "record needs --out <file> for the trace".to_string())?;
    let format = opts
        .format
        .or_else(|| TraceFormat::from_extension(std::path::Path::new(out_path)))
        .unwrap_or(TraceFormat::Binary);
    let layout = DataLayout::original(program);
    let compiled = pad_trace::CompiledTrace::compile(program, &layout);

    let file =
        std::fs::File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    // `for_each` has no error channel, so the first I/O failure is
    // captured and the rest of the walk becomes a no-op.
    let mut io_err: Option<std::io::Error> = None;
    match format {
        TraceFormat::Binary => {
            let mut writer = pad_trace_ingest::binary::BinaryTraceWriter::new(&mut out)
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            compiled.for_each(|access| {
                if io_err.is_none() {
                    if let Err(e) = writer.write(access) {
                        io_err = Some(e);
                    }
                }
            });
            if io_err.is_none() {
                if let Err(e) = writer.finish() {
                    io_err = Some(e);
                }
            }
        }
        TraceFormat::Ndjson => {
            compiled.for_each(|access| {
                if io_err.is_none() {
                    if let Err(e) = writeln!(out, "{}", pad_trace_ingest::ndjson::line_for(access))
                    {
                        io_err = Some(e);
                    }
                }
            });
        }
    }
    if let Some(e) = io_err {
        return Err(format!("cannot write {out_path}: {e}"));
    }
    out.flush()
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!(
        "recorded {} access(es) from {} to {out_path} ({format})",
        compiled.count(),
        program.name()
    );
    Ok(())
}

fn cmd_ingest(target: &str, opts: &Options) -> Result<(), String> {
    use pad_cache_sim::IndexFunction;
    use pad_trace::{BatchRequest, Sinks};

    let cache = opts.cache_config()?;
    let mut request = BatchRequest::new().with_plain(cache);
    if opts.xor {
        request = request.with_plain(cache.with_index_function(IndexFunction::Xor));
    }
    if let Some(lines) = opts.victim {
        request = request.with_victim(cache, lines as usize);
    }
    if opts.heat || opts.csv.is_some() {
        request = request.with_heat(cache);
    }
    if opts.mrc {
        request = request.with_reuse(cache.line_size(), opts.sample);
    }

    let mut sinks = Sinks::new(&request);
    let records =
        pad_trace_ingest::read_trace_file(std::path::Path::new(target), opts.format, |chunk| {
            sinks.feed(chunk)
        })
        .map_err(|e| format!("{target}: {e}"))?;
    let results = sinks.finish();

    println!("{cache}");
    println!("replayed {records} access(es) from {target}");
    let mut t = Table::new(["configuration", "miss %", "misses", "accesses"]);
    let labels = ["modulo-indexed", "xor-indexed"];
    for (label, stats) in labels.iter().zip(&results.plain) {
        t.row([
            label.to_string(),
            format!("{:.2}", stats.miss_rate_percent()),
            stats.misses.to_string(),
            stats.accesses.to_string(),
        ]);
    }
    if let (Some(lines), Some(stats)) = (opts.victim, results.victim.first()) {
        t.row([
            format!("+ {lines}-line victim buffer"),
            format!("{:.2}", stats.miss_rate_percent()),
            stats.misses.to_string(),
            stats.accesses.to_string(),
        ]);
    }
    println!("{t}");

    if let Some(heat) = results.heat.first() {
        let census = heat.class_counts();
        println!(
            "set heat ({} sets): {} very-hot, {} hot, {} cold, {} very-cold; {} eviction(s)",
            heat.num_sets(),
            census[0],
            census[1],
            census[2],
            census[3],
            heat.total_evictions()
        );
        if opts.heat {
            let mut t = Table::new(["set", "accesses", "misses", "evictions", "class"]);
            for row in heat.hottest().into_iter().take(8) {
                t.row([
                    row.set.to_string(),
                    row.accesses.to_string(),
                    row.misses.to_string(),
                    row.evictions.to_string(),
                    row.class.as_str().to_string(),
                ]);
            }
            println!("hottest sets:\n{t}");
        }
        if let Some(csv_path) = &opts.csv {
            let mut t = Table::new(["set", "accesses", "misses", "evictions", "class"]);
            for row in heat.rows() {
                t.row([
                    row.set.to_string(),
                    row.accesses.to_string(),
                    row.misses.to_string(),
                    row.evictions.to_string(),
                    row.class.as_str().to_string(),
                ]);
            }
            pad_report::write_csv(&t, csv_path)
                .map_err(|e| format!("cannot write {csv_path}: {e}"))?;
            println!("wrote per-set heat table to {csv_path}");
        }
    }

    if let Some(hist) = results.reuse.first() {
        let k = opts.sample;
        println!(
            "miss-ratio curve ({}; {} of {records} access(es) sampled, {} distinct line(s)):",
            if k == 0 {
                "exact".to_string()
            } else {
                format!("SHARDS rate 1/{}", 1u64 << k)
            },
            hist.accesses() >> k,
            hist.cold()
        );
        let mut t = Table::new(["capacity", "miss %"]);
        let capacities = hist.pow2_capacities();
        for (lines, ratio) in capacities.iter().zip(hist.miss_ratios(&capacities)) {
            let bytes = lines * cache.line_size();
            let label = if bytes >= 1024 {
                format!("{} KB", bytes / 1024)
            } else {
                format!("{bytes} B")
            };
            t.row([label, format!("{:.2}", ratio * 100.0)]);
        }
        println!("{t}");
    }
    Ok(())
}

/// Builds a [`CacheConfig`] from the options (shared with `options.rs`
/// tests).
pub(crate) fn cache_from(size: u64, line: u64, ways: u32) -> Result<CacheConfig, String> {
    CacheConfig::try_new(size, line, ways).map_err(|e| e.to_string())
}

/// Builds a [`PaddingConfig`] from cache geometry.
pub(crate) fn padding_from(size: u64, line: u64) -> Result<PaddingConfig, String> {
    PaddingConfig::new(size, line).map_err(|e| e.to_string())
}
