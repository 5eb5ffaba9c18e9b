//! One function per paper table/figure. The `src/bin/*` binaries are thin
//! wrappers around these, and `bin/all` runs the lot.
//!
//! Every experiment is split into a `*_table_ctx(&RunContext)` builder
//! and a thin emitting wrapper. The builders decompose their sweep into
//! independent cells, execute them through the fault-tolerant
//! [`crate::harness::RunContext`] layer (which runs on the
//! [`crate::pool`] work-stealing runner), and assemble rows serially in
//! cell order — so the produced tables are byte-identical for any thread
//! count (the `determinism` integration test relies on this). Inside a
//! cell, every cache configuration that shares a data layout is fed from
//! a single batched trace walk ([`pad_trace::simulate_batch`] via
//! [`crate::harness::miss_rates`]).
//!
//! Fault tolerance: a cell that panics or exceeds `RIVERA_CELL_TIMEOUT`
//! renders as an explicit `ERR`/`TIMEOUT` marker in its table row, the
//! binary prints a trailing failure summary and exits nonzero instead of
//! aborting, and — because the emitting wrappers attach a checkpoint
//! journal — a killed sweep rerun with `RIVERA_RESUME=1` replays every
//! already-completed cell bit-exactly (the `fault_injection` integration
//! suite pins all of this down).

use std::time::Instant;

use pad_cache_sim::CacheConfig;
use pad_core::{DataLayout, InterHeuristic, IntraHeuristic, LinAlgHeuristic, Pad, PaddingPipeline};
use pad_report::{AsciiChart, Table};
use pad_trace::{padding_config_for, simulate_batch, simulate_hierarchy, BatchRequest};

use crate::harness::{
    cells_or_marker, diff, emit, miss_rates, pct, suite_programs, sweep_kernels, sweep_sizes,
    RunContext, RunStatus, SpecFn, Variant,
};

fn base_cache() -> CacheConfig {
    CacheConfig::paper_base()
}

/// Cache sizes used by the paper's size sweeps (Figures 11, 12, 14).
fn cache_sizes() -> [CacheConfig; 4] {
    [
        CacheConfig::direct_mapped(2 * 1024, 32),
        CacheConfig::direct_mapped(4 * 1024, 32),
        CacheConfig::direct_mapped(8 * 1024, 32),
        CacheConfig::direct_mapped(16 * 1024, 32),
    ]
}

fn suite_labels(stem: &str, programs: &[(pad_kernels::Kernel, pad_ir::Program)]) -> Vec<String> {
    programs
        .iter()
        .map(|(k, _)| format!("{stem}: {}", k.name))
        .collect()
}

/// Table 2's rows, built on `threads` workers.
pub fn table2_table(threads: usize) -> Table {
    table2_table_ctx(&RunContext::plain(threads))
}

/// Table 2's rows, built under an explicit run context.
pub fn table2_table_ctx(ctx: &RunContext) -> Table {
    let programs = suite_programs();
    let rows = ctx.run(&suite_labels("table2", &programs), |i| {
        let (k, p) = &programs[i];
        let outcome = Pad::new(padding_config_for(&base_cache())).run(p);
        let s = &outcome.stats;
        vec![
            k.name.to_string(),
            k.description.to_string(),
            p.source_lines().map_or_else(String::new, |l| l.to_string()),
            s.global_arrays.to_string(),
            format!("{:.0}", s.uniform_ref_percent),
            s.arrays_safe.to_string(),
            s.arrays_intra_padded.to_string(),
            s.max_intra_increment.to_string(),
            s.total_intra_increment.to_string(),
            s.inter_bytes_skipped.to_string(),
            format!("{:.2}", s.size_increase_percent),
        ]
    });
    let mut t = Table::new([
        "program",
        "description",
        "lines",
        "arrays",
        "%unif",
        "safe",
        "intra#",
        "max",
        "total",
        "skipped B",
        "%size",
    ]);
    for ((k, _), outcome) in programs.iter().zip(&rows) {
        match outcome.value() {
            Some(row) => t.row(row.clone()),
            None => {
                let marker = outcome.marker().unwrap_or(pad_report::ERR_MARKER);
                let mut row = vec![k.name.to_string(), k.description.to_string()];
                row.extend(std::iter::repeat_n(marker.to_string(), 9));
                t.row(row)
            }
        };
    }
    t
}

/// Table 2: compile-time statistics for PAD on the base cache.
pub fn table2() -> RunStatus {
    let ctx = RunContext::for_experiment("table2");
    emit(
        "Table 2: compile-time statistics for PAD (16K direct-mapped, 32B lines)",
        &table2_table_ctx(&ctx),
        "table2",
    );
    ctx.finish()
}

/// Figure 8's rows, built on `threads` workers.
pub fn fig08_table(threads: usize) -> Table {
    fig08_table_ctx(&RunContext::plain(threads))
}

/// Figure 8's rows, built under an explicit run context.
pub fn fig08_table_ctx(ctx: &RunContext) -> Table {
    let cache = base_cache();
    let programs = suite_programs();
    let rows = ctx.run(&suite_labels("fig08", &programs), |i| {
        let (_, p) = &programs[i];
        // One walk of the original layout yields both the plain miss rate
        // and the conflict share; PAD's layout is the second walk.
        let classified = simulate_batch(
            p,
            &DataLayout::original(p),
            &BatchRequest::new().with_classified(cache),
        )
        .classified[0];
        let orig = classified.cache.miss_rate_percent();
        let pad = miss_rates(p, Variant::Pad, &[cache])[0];
        (orig, pad, classified.conflict_rate_percent())
    });
    let mut t = Table::new(["program", "orig %", "pad %", "improv", "orig conflict %"]);
    let mut sum_orig = 0.0;
    let mut sum_pad = 0.0;
    let mut completed = 0usize;
    for ((k, _), outcome) in programs.iter().zip(&rows) {
        if let Some(&(orig, pad, _)) = outcome.value() {
            sum_orig += orig;
            sum_pad += pad;
            completed += 1;
        }
        let mut cells = vec![k.name.to_string()];
        cells.extend(cells_or_marker(outcome, 4, |&(orig, pad, conflict)| {
            vec![pct(orig), pct(pad), diff(orig - pad), pct(conflict)]
        }));
        t.row(cells);
    }
    // The average degrades gracefully: it summarizes the completed rows.
    let count = completed.max(1) as f64;
    t.row([
        if completed == rows.len() {
            "AVERAGE"
        } else {
            "AVERAGE (completed)"
        }
        .to_string(),
        pct(sum_orig / count),
        pct(sum_pad / count),
        diff((sum_orig - sum_pad) / count),
        String::new(),
    ]);
    t
}

/// Figure 8: miss rates of the original program and PAD, plus the
/// conflict-miss share the classifier attributes (not in the paper's
/// figure, but the quantity padding targets).
pub fn fig08() -> RunStatus {
    let ctx = RunContext::for_experiment("fig08");
    emit(
        "Figure 8: cache miss rates, original vs PAD (16K direct-mapped)",
        &fig08_table_ctx(&ctx),
        "fig08",
    );
    ctx.finish()
}

/// Figure 9's rows, built on `threads` workers.
pub fn fig09_table(threads: usize) -> Table {
    fig09_table_ctx(&RunContext::plain(threads))
}

/// Figure 9's rows, built under an explicit run context.
pub fn fig09_table_ctx(ctx: &RunContext) -> Table {
    let dm = base_cache();
    let assoc_caches: Vec<CacheConfig> = [2u32, 4, 16].iter().map(|&w| dm.with_ways(w)).collect();
    let programs = suite_programs();
    let rows = ctx.run(&suite_labels("fig09", &programs), |i| {
        let (_, p) = &programs[i];
        let pad_dm = miss_rates(p, Variant::Pad, &[dm])[0];
        // All three associativities read the untransformed layout, so
        // they share one trace walk.
        let origs = miss_rates(p, Variant::Original, &assoc_caches);
        (pad_dm, origs)
    });
    let mut t = Table::new(["program", "vs 2-way", "vs 4-way", "vs 16-way"]);
    for ((k, _), outcome) in programs.iter().zip(&rows) {
        let mut cells = vec![k.name.to_string()];
        cells.extend(cells_or_marker(outcome, 3, |(pad_dm, origs)| {
            origs.iter().map(|orig| diff(orig - pad_dm)).collect()
        }));
        t.row(cells);
    }
    t
}

/// Figure 9: PAD on a direct-mapped cache vs the original program on
/// higher-associativity caches (positive numbers mean padding beats the
/// extra associativity).
pub fn fig09() -> RunStatus {
    let ctx = RunContext::for_experiment("fig09");
    emit(
        "Figure 9: PAD on direct-mapped vs original on k-way associative (16K)",
        &fig09_table_ctx(&ctx),
        "fig09",
    );
    ctx.finish()
}

/// Figure 10's rows, built on `threads` workers.
pub fn fig10_table(threads: usize) -> Table {
    fig10_table_ctx(&RunContext::plain(threads))
}

/// Figure 10's rows, built under an explicit run context.
pub fn fig10_table_ctx(ctx: &RunContext) -> Table {
    let dm = base_cache();
    let caches: Vec<CacheConfig> = [1u32, 2, 4].iter().map(|&w| dm.with_ways(w)).collect();
    let programs = suite_programs();
    let rows = ctx.run(&suite_labels("fig10", &programs), |i| {
        let (_, p) = &programs[i];
        // Padding geometry ignores associativity, so each of the two
        // layouts covers all three caches in one walk.
        let origs = miss_rates(p, Variant::Original, &caches);
        let pads = miss_rates(p, Variant::Pad, &caches);
        (origs, pads)
    });
    let mut t = Table::new(["program", "1-way", "2-way", "4-way"]);
    for ((k, _), outcome) in programs.iter().zip(&rows) {
        let mut cells = vec![k.name.to_string()];
        cells.extend(cells_or_marker(outcome, 3, |(origs, pads)| {
            origs
                .iter()
                .zip(pads)
                .map(|(orig, pad)| diff(orig - pad))
                .collect()
        }));
        t.row(cells);
    }
    t
}

/// Figure 10: the benefit of PAD as associativity increases.
pub fn fig10() -> RunStatus {
    let ctx = RunContext::for_experiment("fig10");
    emit(
        "Figure 10: PAD improvement by associativity (16K cache)",
        &fig10_table_ctx(&ctx),
        "fig10",
    );
    ctx.finish()
}

fn size_sweep_table(ctx: &RunContext, stem: &str, minuend: Variant, subtrahend: Variant) -> Table {
    let caches = cache_sizes();
    let programs = suite_programs();
    let rows = ctx.run(&suite_labels(stem, &programs), |i| {
        let (_, p) = &programs[i];
        let a = miss_rates(p, minuend, &caches);
        let b = miss_rates(p, subtrahend, &caches);
        (a, b)
    });
    let mut t = Table::new(["program", "2K", "4K", "8K", "16K"]);
    for ((k, _), outcome) in programs.iter().zip(&rows) {
        let mut cells = vec![k.name.to_string()];
        cells.extend(cells_or_marker(outcome, 4, |(a, b)| {
            a.iter().zip(b).map(|(x, y)| diff(x - y)).collect()
        }));
        t.row(cells);
    }
    t
}

/// Figure 11's rows, built on `threads` workers.
pub fn fig11_table(threads: usize) -> Table {
    fig11_table_ctx(&RunContext::plain(threads))
}

/// Figure 11's rows, built under an explicit run context.
pub fn fig11_table_ctx(ctx: &RunContext) -> Table {
    size_sweep_table(ctx, "fig11", Variant::Original, Variant::Pad)
}

/// Figure 11: the benefit of PAD as cache size shrinks.
pub fn fig11() -> RunStatus {
    let ctx = RunContext::for_experiment("fig11");
    emit(
        "Figure 11: PAD improvement by cache size (direct-mapped)",
        &fig11_table_ctx(&ctx),
        "fig11",
    );
    ctx.finish()
}

/// Figure 12's rows, built on `threads` workers.
pub fn fig12_table(threads: usize) -> Table {
    fig12_table_ctx(&RunContext::plain(threads))
}

/// Figure 12's rows, built under an explicit run context.
pub fn fig12_table_ctx(ctx: &RunContext) -> Table {
    size_sweep_table(ctx, "fig12", Variant::InterPadOnly, Variant::Pad)
}

/// Figure 12: the contribution of intra-variable padding (PAD vs
/// inter-variable padding alone) across cache sizes.
pub fn fig12() -> RunStatus {
    let ctx = RunContext::for_experiment("fig12");
    emit(
        "Figure 12: intra-variable padding contribution (PAD minus INTERPAD-only)",
        &fig12_table_ctx(&ctx),
        "fig12",
    );
    ctx.finish()
}

/// Figure 13's rows, built on `threads` workers.
pub fn fig13_table(threads: usize) -> Table {
    fig13_table_ctx(&RunContext::plain(threads))
}

/// Figure 13's rows, built under an explicit run context.
pub fn fig13_table_ctx(ctx: &RunContext) -> Table {
    let cache = base_cache();
    let ms = [1u64, 2, 8, 16];
    let programs = suite_programs();
    let rows = ctx.run(&suite_labels("fig13", &programs), |i| {
        let (_, p) = &programs[i];
        let baseline = miss_rates(p, Variant::PadLiteM(4), &[cache])[0];
        let sweep: Vec<f64> = ms
            .iter()
            .map(|&m| miss_rates(p, Variant::PadLiteM(m), &[cache])[0])
            .collect();
        (baseline, sweep)
    });
    let mut t = Table::new(["program", "M=1", "M=2", "M=8", "M=16"]);
    for ((k, _), outcome) in programs.iter().zip(&rows) {
        let mut cells = vec![k.name.to_string()];
        cells.extend(cells_or_marker(outcome, 4, |(baseline, sweep)| {
            sweep.iter().map(|rate| diff(rate - baseline)).collect()
        }));
        t.row(cells);
    }
    t
}

/// Figure 13: PADLITE's minimum separation M — miss-rate change of
/// M ∈ {1, 2, 8, 16} relative to the default M = 4 (positive means M = 4
/// was better).
pub fn fig13() -> RunStatus {
    let ctx = RunContext::for_experiment("fig13");
    emit(
        "Figure 13: PADLITE minimum separation M vs default M=4 (16K direct-mapped)",
        &fig13_table_ctx(&ctx),
        "fig13",
    );
    ctx.finish()
}

/// Figure 14's rows, built on `threads` workers.
pub fn fig14_table(threads: usize) -> Table {
    fig14_table_ctx(&RunContext::plain(threads))
}

/// Figure 14's rows, built under an explicit run context.
pub fn fig14_table_ctx(ctx: &RunContext) -> Table {
    size_sweep_table(ctx, "fig14", Variant::PadLite, Variant::Pad)
}

/// Figure 14: precision of analysis — PADLITE's miss rate minus PAD's,
/// across cache sizes (positive means the extra analysis helped).
pub fn fig14() -> RunStatus {
    let ctx = RunContext::for_experiment("fig14");
    emit(
        "Figure 14: precision of analysis (PADLITE minus PAD) by cache size",
        &fig14_table_ctx(&ctx),
        "fig14",
    );
    ctx.finish()
}

/// Figure 15: native execution time of original vs PAD layouts on this
/// host (the paper used an Alpha 21064, UltraSparc2, and Pentium2).
pub fn fig15() -> RunStatus {
    use pad_kernels::Workspace;

    let cache = base_cache();
    let programs: Vec<_> = suite_programs()
        .into_iter()
        .filter(|(k, _)| k.native.is_some())
        .collect();
    // Native timing cells must not share the host with other work — a
    // concurrent cell would inflate the measured kernel's time — so this
    // figure always runs on one worker, whatever RIVERA_THREADS says.
    let ctx = RunContext::for_experiment("fig15").with_threads(1);
    let rows = ctx.run(&suite_labels("fig15", &programs), |idx| {
        let (k, p) = &programs[idx];
        let native = k.native.expect("filtered to native kernels");
        let layouts = [
            DataLayout::original(p),
            Pad::new(padding_config_for(&cache)).run(p).layout,
        ];
        let mut times = [f64::INFINITY; 2];
        for (which, layout) in layouts.into_iter().enumerate() {
            let mut ws = Workspace::new(p, layout);
            for (i, (id, _)) in p.arrays_with_ids().enumerate() {
                ws.fill_pattern(id, i as u64 + 1);
            }
            condition_for_factorization(k.name, &mut ws, k.default_n);
            native(&mut ws, k.default_n); // warm-up (and conditioning for factorizations)
            let reps = 5;
            for _ in 0..reps {
                // Factorizations mutate their input; re-condition each rep
                // so every timed run does the same arithmetic.
                recondition(k.name, &mut ws, k.default_n);
                let start = Instant::now();
                native(&mut ws, k.default_n);
                times[which] = times[which].min(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        times
    });
    let mut t = Table::new(["program", "orig ms", "pad ms", "improv %"]);
    for ((k, _), outcome) in programs.iter().zip(&rows) {
        let mut cells = vec![k.name.to_string()];
        cells.extend(cells_or_marker(outcome, 3, |times| {
            let improv = 100.0 * (times[0] - times[1]) / times[0];
            vec![
                format!("{:.2}", times[0]),
                format!("{:.2}", times[1]),
                format!("{improv:+.1}"),
            ]
        }));
        t.row(cells);
    }
    emit(
        "Figure 15: native execution time, original vs PAD layout (this host)",
        &t,
        "fig15",
    );
    println!(
        "note: the paper measured 1997 hardware with small direct-mapped L1 caches;\n\
         modern hosts have highly associative caches, so expect the simulated\n\
         miss-rate figures to carry the result and these timings to show a\n\
         smaller (but same-direction) effect dominated by 4K-aliasing stalls."
    );
    ctx.finish()
}

fn condition_for_factorization(name: &str, ws: &mut pad_kernels::Workspace, n: i64) {
    if name == "DGEFA256" || name == "CHOL256" {
        let a = ws.array("A");
        for i in 1..=n {
            let v = ws.get(a, &[i, i]);
            ws.set(a, &[i, i], v + 100.0);
        }
    }
}

fn recondition(name: &str, ws: &mut pad_kernels::Workspace, n: i64) {
    if name == "DGEFA256" || name == "CHOL256" {
        let a = ws.array("A");
        ws.fill_pattern(a, 1);
        condition_for_factorization(name, ws, n);
    }
}

/// Figure 16's per-kernel tables and charts, built on `threads` workers.
pub fn fig16_tables(threads: usize) -> Vec<(String, Table, AsciiChart)> {
    fig16_tables_ctx(&RunContext::plain(threads))
}

/// Figure 16's per-kernel tables and charts, built under an explicit run
/// context.
pub fn fig16_tables_ctx(ctx: &RunContext) -> Vec<(String, Table, AsciiChart)> {
    let dm = base_cache();
    let assoc16 = dm.with_ways(16);
    let sizes = sweep_sizes();
    let mut out = Vec::new();
    for (name, spec) in sweep_kernels() {
        let labels: Vec<String> = sizes
            .iter()
            .map(|n| format!("fig16: {name} n={n}"))
            .collect();
        let rows = ctx.run(&labels, |i| {
            let p = spec(sizes[i]);
            // The original layout serves both the direct-mapped and the
            // 16-way cell from one walk.
            let dual = miss_rates(&p, Variant::Original, &[dm, assoc16]);
            let lite = miss_rates(&p, Variant::PadLite, &[dm])[0];
            let pad = miss_rates(&p, Variant::Pad, &[dm])[0];
            (dual[0], lite, pad, dual[1])
        });
        let mut t = Table::new(["n", "orig", "padlite", "pad", "16-way"]);
        let mut series: [Vec<f64>; 4] = Default::default();
        for (n, outcome) in sizes.iter().zip(&rows) {
            // Failed cells are absent from the chart (its x axis is
            // categorical) but explicit in the table.
            if let Some(&(orig, lite, pad, assoc)) = outcome.value() {
                series[0].push(orig);
                series[1].push(lite);
                series[2].push(pad);
                series[3].push(assoc);
            }
            let mut cells = vec![n.to_string()];
            cells.extend(cells_or_marker(outcome, 4, |&(orig, lite, pad, assoc)| {
                vec![pct(orig), pct(lite), pct(pad), pct(assoc)]
            }));
            t.row(cells);
        }
        let mut chart = AsciiChart::new(14);
        chart.series('o', "original", &series[0]);
        chart.series('l', "padlite", &series[1]);
        chart.series('a', "16-way assoc", &series[3]);
        chart.series('p', "pad", &series[2]);
        out.push((name.to_string(), t, chart));
    }
    out
}

/// Figure 16: miss rate vs problem size (250–520) for EXPL, SHAL, DGEFA,
/// and CHOL under Original / PADLITE / PAD on the base cache, plus the
/// original program on a 16-way associative cache.
pub fn fig16() -> RunStatus {
    let ctx = RunContext::for_experiment("fig16");
    for (name, t, chart) in fig16_tables_ctx(&ctx) {
        println!("{chart}");
        emit(
            &format!("Figure 16 ({name}): miss rate vs problem size"),
            &t,
            &format!("fig16_{}", name.to_lowercase()),
        );
    }
    ctx.finish()
}

/// Figure 17's per-kernel tables, built on `threads` workers.
pub fn fig17_tables(threads: usize) -> Vec<(String, Table)> {
    fig17_tables_ctx(&RunContext::plain(threads))
}

/// Figure 17's per-kernel tables, built under an explicit run context.
pub fn fig17_tables_ctx(ctx: &RunContext) -> Vec<(String, Table)> {
    let dm = base_cache();
    let sizes = sweep_sizes();
    let mut out = Vec::new();
    for (name, spec) in sweep_kernels() {
        let labels: Vec<String> = sizes
            .iter()
            .map(|n| format!("fig17: {name} n={n}"))
            .collect();
        let rows = ctx.run(&labels, |i| {
            let p = spec(sizes[i]);
            let base = miss_rates(&p, Variant::InterLiteOnly, &[dm])[0];
            let lp1 = miss_rates(&p, Variant::LinPad1Lite, &[dm])[0];
            let lp2 = miss_rates(&p, Variant::LinPad2Lite, &[dm])[0];
            (base, lp1, lp2)
        });
        let mut t = Table::new(["n", "linpad1", "linpad2"]);
        for (n, outcome) in sizes.iter().zip(&rows) {
            let mut cells = vec![n.to_string()];
            cells.extend(cells_or_marker(outcome, 2, |&(base, lp1, lp2)| {
                vec![diff(lp1 - base), diff(lp2 - base)]
            }));
            t.row(cells);
        }
        out.push((name.to_string(), t));
    }
    out
}

/// Figure 17: intra-variable padding heuristics — the miss-rate change of
/// LINPAD1+INTERPADLITE and LINPAD2+INTERPADLITE relative to
/// INTERPADLITE alone, across problem sizes (negative = improvement).
pub fn fig17() -> RunStatus {
    let ctx = RunContext::for_experiment("fig17");
    for (name, t) in fig17_tables_ctx(&ctx) {
        emit(
            &format!("Figure 17 ({name}): LINPAD1/LINPAD2 miss-rate change vs INTERPADLITE"),
            &t,
            &format!("fig17_{}", name.to_lowercase()),
        );
    }
    ctx.finish()
}

/// Line size shared by every miss-ratio-curve point (the paper's 32 B).
fn mrc_line_size() -> u64 {
    base_cache().line_size()
}

/// The miss-ratio-curve sweep's capacities: every power of two from
/// 256 B to 256 KiB. Small enough to show the thrashing regime, large
/// enough to reach the cold-miss floor for the sweep kernels.
pub fn mrc_cache_bytes() -> Vec<u64> {
    (8..=18).map(|p| 1u64 << p).collect()
}

/// Padding benefits below this many percentage points count as
/// "vanished" when locating the miss-ratio-curve crossover.
pub const MRC_BENEFIT_FLOOR_PP: f64 = 0.1;

fn mrc_size_label(bytes: u64) -> String {
    if bytes >= 1024 {
        format!("{}K", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

/// One kernel's miss-ratio curves, built under an explicit run context
/// with pinned problem size and capacity list (the golden test pins
/// both; [`fig_mrc_tables_ctx`] supplies the defaults).
///
/// Each of the two cells (original / PAD layout) is a *single* batched
/// walk: the reuse sink yields the fully-associative miss ratio at every
/// capacity from one histogram, alongside one direct-mapped simulation
/// per capacity. Returns the table, the chart, and the capacity (bytes)
/// from which the padding benefit stays below
/// [`MRC_BENEFIT_FLOOR_PP`] — `None` if the benefit persists through the
/// largest capacity (or a cell failed).
pub fn mrc_kernel_table_ctx(
    ctx: &RunContext,
    name: &str,
    spec: SpecFn,
    n: i64,
    cache_bytes: &[u64],
) -> (Table, AsciiChart, Option<u64>) {
    let line = mrc_line_size();
    let variants = [(Variant::Original, "orig"), (Variant::Pad, "pad")];
    let labels: Vec<String> = variants
        .iter()
        .map(|(_, v)| format!("fig_mrc: {name} n={n} {v}"))
        .collect();
    let curves = ctx.run(&labels, |i| {
        let p = spec(n);
        let layout = variants[i].0.layout(&p, &base_cache());
        let request = cache_bytes
            .iter()
            .fold(BatchRequest::new().with_reuse(line), |r, &bytes| {
                r.with_plain(CacheConfig::direct_mapped(bytes, line))
            });
        let results = simulate_batch(&p, &layout, &request);
        let hist = &results.reuse[0];
        let fa: Vec<f64> = cache_bytes
            .iter()
            .map(|&b| 100.0 * hist.miss_ratio_at(b / line))
            .collect();
        let dm: Vec<f64> = results
            .plain
            .iter()
            .map(|s| s.miss_rate_percent())
            .collect();
        (dm, fa)
    });
    let mut t = Table::new([
        "cache",
        "orig dm %",
        "orig fa %",
        "pad dm %",
        "pad fa %",
        "benefit pp",
    ]);
    let mut series: [Vec<f64>; 3] = Default::default();
    let mut benefits: Vec<f64> = Vec::new();
    for (i, &bytes) in cache_bytes.iter().enumerate() {
        let mut cells = vec![mrc_size_label(bytes)];
        for outcome in &curves {
            cells.extend(cells_or_marker(outcome, 2, |(dm, fa)| {
                vec![pct(dm[i]), pct(fa[i])]
            }));
        }
        if let (Some((orig_dm, orig_fa)), Some((pad_dm, _))) =
            (curves[0].value(), curves[1].value())
        {
            let benefit = orig_dm[i] - pad_dm[i];
            benefits.push(benefit);
            cells.push(diff(benefit));
            series[0].push(orig_dm[i]);
            series[1].push(pad_dm[i]);
            series[2].push(orig_fa[i]);
        } else {
            cells.push(pad_report::ERR_MARKER.to_string());
        }
        t.row(cells);
    }
    // Crossover: the smallest capacity from which the benefit stays
    // below the floor for every larger capacity too (a dip that
    // reappears at a larger size does not count as vanished).
    let crossover = benefits
        .iter()
        .rposition(|b| b.abs() >= MRC_BENEFIT_FLOOR_PP)
        .map_or(Some(0), |last| {
            (last + 1 < cache_bytes.len()).then_some(last + 1)
        })
        .filter(|_| benefits.len() == cache_bytes.len())
        .map(|i| cache_bytes[i]);
    t.row([
        "benefit gone at".to_string(),
        crossover.map_or_else(|| "beyond sweep".to_string(), mrc_size_label),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    let mut chart = AsciiChart::new(12);
    chart.series('o', "original (direct-mapped)", &series[0]);
    chart.series('p', "pad (direct-mapped)", &series[1]);
    chart.series('f', "original (fully-assoc floor)", &series[2]);
    (t, chart, crossover)
}

/// The miss-ratio-curve per-kernel tables, built on `threads` workers.
pub fn fig_mrc_tables(threads: usize) -> Vec<(String, Table, AsciiChart, Option<u64>)> {
    fig_mrc_tables_ctx(&RunContext::plain(threads))
}

/// The miss-ratio-curve per-kernel tables, built under an explicit run
/// context.
pub fn fig_mrc_tables_ctx(ctx: &RunContext) -> Vec<(String, Table, AsciiChart, Option<u64>)> {
    let n: i64 = if crate::harness::quick_mode() {
        64
    } else {
        512
    };
    let kernels: Vec<(&str, SpecFn)> = vec![
        ("JACOBI", pad_kernels::jacobi::spec as SpecFn),
        ("EXPL", pad_kernels::expl::spec),
        ("SHAL", pad_kernels::shal::spec),
        ("CHOL", pad_kernels::chol::spec),
    ];
    let sizes = mrc_cache_bytes();
    kernels
        .into_iter()
        .map(|(name, spec)| {
            let (t, chart, crossover) = mrc_kernel_table_ctx(ctx, name, spec, n, &sizes);
            (name.to_string(), t, chart, crossover)
        })
        .collect()
}

/// Miss-ratio curves (not in the paper — the artifact the single-pass
/// reuse engine makes cheap): original vs PAD across every power-of-two
/// capacity, direct-mapped measured against the fully-associative floor,
/// with the capacity at which the padding benefit vanishes.
pub fn fig_mrc() -> RunStatus {
    let ctx = RunContext::for_experiment("fig_mrc");
    for (name, t, chart, crossover) in fig_mrc_tables_ctx(&ctx) {
        println!("{chart}");
        match crossover {
            Some(bytes) => println!(
                "({name}: padding benefit < {MRC_BENEFIT_FLOOR_PP} pp from {} up)",
                mrc_size_label(bytes)
            ),
            None => println!("({name}: padding benefit persists through the sweep)"),
        }
        emit(
            &format!("Miss-ratio curves ({name}): original vs PAD, DM vs fully-assoc"),
            &t,
            &format!("fig_mrc_{}", name.to_lowercase()),
        );
    }
    ctx.finish()
}

/// The `j*` ablation's table and the original-layout average miss rate,
/// built on `threads` workers.
pub fn ablation_jstar_table(threads: usize) -> (Table, f64) {
    ablation_jstar_table_ctx(&RunContext::plain(threads))
}

/// The `j*` ablation's table and the original-layout average miss rate
/// (over completed cells), built under an explicit run context.
pub fn ablation_jstar_table_ctx(ctx: &RunContext) -> (Table, f64) {
    let dm = base_cache();
    let caps = [2u64, 4, 8, 16, 32, 64, 129, 256];
    let sizes: Vec<i64> = if crate::harness::quick_mode() {
        vec![256, 384, 512]
    } else {
        vec![256, 288, 320, 352, 384, 416, 448, 480, 512]
    };
    let orig_labels: Vec<String> = sizes.iter().map(|n| format!("jstar: orig n={n}")).collect();
    let orig_rates = ctx.run(&orig_labels, |i| {
        let p = pad_kernels::chol::spec(sizes[i]);
        miss_rates(&p, Variant::Original, &[dm])[0]
    });
    let cells: Vec<(u64, i64)> = caps
        .iter()
        .flat_map(|&cap| sizes.iter().map(move |&n| (cap, n)))
        .collect();
    let cell_labels: Vec<String> = cells
        .iter()
        .map(|(cap, n)| format!("jstar: cap={cap} n={n}"))
        .collect();
    let rates = ctx.run(&cell_labels, |i| {
        let (cap, n) = cells[i];
        let p = pad_kernels::chol::spec(n);
        let config = padding_config_for(&dm).with_linpad2_j_cap(cap);
        let layout = PaddingPipeline::custom(
            IntraHeuristic::None,
            LinAlgHeuristic::LinPad2,
            InterHeuristic::Lite,
            config,
        )
        .run(&p)
        .layout;
        simulate_batch(&p, &layout, &BatchRequest::new().with_plain(dm)).plain[0]
            .miss_rate_percent()
    });
    let completed_orig = orig_rates.iter().filter(|o| o.is_ok()).count().max(1) as f64;
    let orig_avg = orig_rates
        .iter()
        .filter_map(|o| o.value())
        .map(|r| r / completed_orig)
        .sum::<f64>();
    let mut t = Table::new(["j* cap", "avg miss %", "avg improv vs orig"]);
    for (which, cap) in caps.iter().enumerate() {
        // Average each cap over its completed cells; the improvement
        // column additionally needs the matching original-layout cell.
        let mut total = 0.0;
        let mut measured = 0usize;
        let mut improv = 0.0;
        let mut compared = 0usize;
        for (idx, _) in sizes.iter().enumerate() {
            let Some(&rate) = rates[which * sizes.len() + idx].value() else {
                continue;
            };
            total += rate;
            measured += 1;
            if let Some(&orig) = orig_rates[idx].value() {
                improv += orig - rate;
                compared += 1;
            }
        }
        t.row([
            cap.to_string(),
            if measured > 0 {
                pct(total / measured as f64)
            } else {
                pad_report::ERR_MARKER.to_string()
            },
            if compared > 0 {
                diff(improv / compared as f64)
            } else {
                pad_report::ERR_MARKER.to_string()
            },
        ]);
    }
    (t, orig_avg)
}

/// Ablation: the `j*` cap of LINPAD2 (the paper reports benefits saturate
/// around 129). Evaluated on CHOL at the aliasing-prone column sizes —
/// powers of two and their neighbourhoods, where `FirstConflict` returns
/// small values and the cap decides whether LINPAD2 acts at all. A cap of
/// 2 accepts almost every column; raising it forces progressively rarer
/// near-aliasing sizes to be padded, with benefits saturating by the
/// paper's 129.
pub fn ablation_jstar() -> RunStatus {
    let ctx = RunContext::for_experiment("ablation_jstar");
    let (t, orig_avg) = ablation_jstar_table_ctx(&ctx);
    println!("(original average: {orig_avg:.1}%)");
    emit(
        "Ablation: LINPAD2 j* cap (Section 2.3.2's j*=129 choice)",
        &t,
        "ablation_jstar",
    );
    ctx.finish()
}

/// The hardware-remedies ablation's rows, built on `threads` workers.
pub fn ablation_hardware_table(threads: usize) -> Table {
    ablation_hardware_table_ctx(&RunContext::plain(threads))
}

/// The hardware-remedies ablation's rows, built under an explicit run
/// context.
pub fn ablation_hardware_table_ctx(ctx: &RunContext) -> Table {
    use pad_cache_sim::IndexFunction;

    let dm = base_cache();
    let xor = dm.with_index_function(IndexFunction::Xor);
    let programs = suite_programs();
    let rows = ctx.run(&suite_labels("hw", &programs), |i| {
        let (_, p) = &programs[i];
        // One walk of the original layout feeds the plain, XOR-indexed,
        // and victim-buffered simulations together.
        let res = simulate_batch(
            p,
            &DataLayout::original(p),
            &BatchRequest::new()
                .with_plain(dm)
                .with_plain(xor)
                .with_victim(dm, 4),
        );
        let pad = miss_rates(p, Variant::Pad, &[dm])[0];
        (
            res.plain[0].miss_rate_percent(),
            res.victim[0].miss_rate_percent(),
            res.plain[1].miss_rate_percent(),
            pad,
        )
    });
    let mut t = Table::new(["program", "orig %", "victim(4) %", "xor %", "pad %"]);
    for ((k, _), outcome) in programs.iter().zip(&rows) {
        let mut cells = vec![k.name.to_string()];
        cells.extend(cells_or_marker(
            outcome,
            4,
            |&(orig, victim, xor_rate, pad)| vec![pct(orig), pct(victim), pct(xor_rate), pct(pad)],
        ));
        t.row(cells);
    }
    t
}

/// Ablation: software padding vs the hardware remedies the paper's
/// related work cites — a 4-line victim cache (Jouppi) and XOR-based set
/// placement (González et al.). All on the base 16 K direct-mapped
/// geometry, original layout except the PAD column.
pub fn ablation_hardware() -> RunStatus {
    let ctx = RunContext::for_experiment("ablation_hardware");
    emit(
        "Ablation: padding vs hardware fixes (victim cache, XOR placement)",
        &ablation_hardware_table_ctx(&ctx),
        "ablation_hardware",
    );
    ctx.finish()
}

/// The tiling ablation's table plus a note describing the selected tile,
/// built on `threads` workers.
pub fn ablation_tiling_table(threads: usize) -> (Table, String) {
    ablation_tiling_table_ctx(&RunContext::plain(threads))
}

/// The tiling ablation's table plus a note describing the selected tile,
/// built under an explicit run context.
pub fn ablation_tiling_table_ctx(ctx: &RunContext) -> (Table, String) {
    use pad_core::select_tile;
    use pad_kernels::mult;

    let dm = base_cache();
    let n = 512i64;
    // Budget the tile at half the cache so the other arrays' streams have
    // somewhere to live — Coleman & McKinley's cross-interference
    // allowance, which their full algorithm derives and we approximate.
    let tile = select_tile(dm.size() / 2, n, 8, n, n);
    // Force divisibility so tiled bounds stay affine.
    let mut tk = tile.cols.max(1);
    while n % tk != 0 {
        tk -= 1;
    }
    let mut ti = tile.rows.max(1);
    while n % ti != 0 {
        ti -= 1;
    }
    let note = format!(
        "select_tile (half-cache budget) chose {} rows x {} cols \
         (adjusted to {ti} x {tk} to divide n = {n})",
        tile.rows, tile.cols
    );

    let steps = 64;
    let flat = mult::spec_steps(n, steps);
    let tiled = mult::spec_tiled_steps(n, ti, tk, steps);
    let assoc16 = dm.with_ways(16);
    let cells = [
        ("untiled original", &flat, Variant::Original, dm),
        ("untiled + PAD", &flat, Variant::Pad, dm),
        ("untiled, 16-way", &flat, Variant::Original, assoc16),
        ("tiled original", &tiled, Variant::Original, dm),
        ("tiled + PAD", &tiled, Variant::Pad, dm),
        ("tiled, 16-way", &tiled, Variant::Original, assoc16),
    ];
    let labels: Vec<String> = cells
        .iter()
        .map(|(label, ..)| format!("tiling: {label}"))
        .collect();
    let rates = ctx.run(&labels, |i| {
        let (_, p, variant, cache) = cells[i];
        miss_rates(p, variant, &[cache])[0]
    });
    let mut t = Table::new(["variant", "miss %"]);
    for ((label, ..), outcome) in cells.iter().zip(&rates) {
        let mut row = vec![label.to_string()];
        row.extend(cells_or_marker(outcome, 1, |&rate| vec![pct(rate)]));
        t.row(row);
    }
    (t, note)
}

/// Ablation: data-layout transformation (padding) vs computation
/// reordering (tiling, with Coleman & McKinley's Euclidean tile
/// selection), and their combination, on matrix multiply at an aliasing
/// size. The paper frames padding as complementary to tiling; this
/// experiment shows why — tiling fixes capacity reuse, padding fixes the
/// cross-array conflicts that remain.
pub fn ablation_tiling() -> RunStatus {
    let ctx = RunContext::for_experiment("ablation_tiling");
    let (t, note) = ablation_tiling_table_ctx(&ctx);
    println!("{note}");
    emit(
        "Ablation: padding vs tiling on MULT (n = 512)",
        &t,
        "ablation_tiling",
    );
    println!(
        "reading: on the 16-way cache tiling halves the misses, but on the\n\
         direct-mapped cache cross-array conflicts (C's column aliasing A's\n\
         tile — distances that vary per iteration, so neither PAD nor the\n\
         paper's analysis can prove them) consume the entire tiling benefit.\n\
         This is precisely the interaction that motivates conflict-aware\n\
         tile selection (Coleman & McKinley) alongside padding."
    );
    ctx.finish()
}

/// The labels of the three layouts the multi-level ablation compares.
const MULTILEVEL_LAYOUTS: [&str; 3] = ["original", "pad L1", "pad L1+L2"];

/// The multi-level ablation's rows, built on `threads` workers.
pub fn ablation_multilevel_table(threads: usize) -> Table {
    ablation_multilevel_table_ctx(&RunContext::plain(threads))
}

/// The multi-level ablation's rows, built under an explicit run context.
pub fn ablation_multilevel_table_ctx(ctx: &RunContext) -> Table {
    use pad_core::{CacheParams, PaddingConfig};

    let l1 = CacheConfig::direct_mapped(16 * 1024, 32);
    let l2 = CacheConfig::direct_mapped(128 * 1024, 64);
    let levels = [l1, l2];
    let single = padding_config_for(&l1);
    let multi = PaddingConfig::multi_level(vec![
        CacheParams::new(l1.size(), l1.line_size()).expect("valid"),
        CacheParams::new(l2.size(), l2.line_size()).expect("valid"),
    ])
    .expect("two levels");

    let programs: Vec<_> = suite_programs()
        .into_iter()
        .filter(|(k, _)| {
            matches!(
                k.name,
                "JACOBI512" | "ADI512" | "EXPL512" | "SHAL512" | "TOMCATV"
            )
        })
        .collect();
    let rows = ctx.run(&suite_labels("multilevel", &programs), |i| {
        let (_, p) = &programs[i];
        let layouts = [
            DataLayout::original(p),
            PaddingPipeline::pad(single.clone()).run(p).layout,
            PaddingPipeline::pad(multi.clone()).run(p).layout,
        ];
        layouts
            .iter()
            .map(|layout| {
                let stats = simulate_hierarchy(p, layout, &levels);
                (
                    stats[0].stats.miss_rate_percent(),
                    stats[1].stats.miss_rate_percent(),
                )
            })
            .collect::<Vec<(f64, f64)>>()
    });
    let mut t = Table::new(["program", "layout", "L1 miss %", "L2 miss %"]);
    for ((k, _), outcome) in programs.iter().zip(&rows) {
        match outcome.value() {
            Some(layouts) => {
                for (label, &(l1_rate, l2_rate)) in MULTILEVEL_LAYOUTS.iter().zip(layouts) {
                    t.row([
                        k.name.to_string(),
                        label.to_string(),
                        pct(l1_rate),
                        pct(l2_rate),
                    ]);
                }
            }
            None => {
                let marker = outcome
                    .marker()
                    .unwrap_or(pad_report::ERR_MARKER)
                    .to_string();
                for label in MULTILEVEL_LAYOUTS {
                    t.row([
                        k.name.to_string(),
                        label.to_string(),
                        marker.clone(),
                        marker.clone(),
                    ]);
                }
            }
        }
    }
    t
}

/// Extension: multi-level padding (the generalization sketched at the
/// end of Section 2.1.2 — "compute conflict distances with respect to
/// each cache configuration and pad as needed"). Pads for the L1 alone
/// vs for both levels of a 16 K-L1 / 128 K-L2 direct-mapped hierarchy,
/// then simulates the hierarchy.
pub fn ablation_multilevel() -> RunStatus {
    let ctx = RunContext::for_experiment("ablation_multilevel");
    emit(
        "Extension: multi-level padding (Section 2.1.2 generalization)",
        &ablation_multilevel_table_ctx(&ctx),
        "ablation_multilevel",
    );
    ctx.finish()
}

/// Runs everything, in paper order, aggregating every experiment's
/// failure count (the `all` binary exits nonzero if any cell failed
/// anywhere, after completing every experiment).
pub fn all() -> RunStatus {
    let mut status = RunStatus::default();
    status.merge(table2());
    status.merge(fig08());
    status.merge(fig09());
    status.merge(fig10());
    status.merge(fig11());
    status.merge(fig12());
    status.merge(fig13());
    status.merge(fig14());
    status.merge(fig15());
    status.merge(fig16());
    status.merge(fig17());
    status.merge(fig_mrc());
    status.merge(ablation_jstar());
    status.merge(ablation_hardware());
    status.merge(ablation_tiling());
    status.merge(ablation_multilevel());
    if status.failed > 0 {
        println!(
            "all: {} of {} cell(s) failed across the run — see the per-experiment \
             failure summaries above",
            status.failed, status.cells
        );
    }
    status
}
