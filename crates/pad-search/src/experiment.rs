//! The `fig_search` experiment: miss-reduction vs analysis-cost
//! frontiers for PADLITE / PAD / beam / annealing.
//!
//! Two artifacts land in `results/`:
//!
//! * `fig_search_suite.csv` — exact misses across the full kernel suite
//!   (at two cache geometries) for the original layout, both paper
//!   heuristics, and both search strategies, with a marker on every
//!   kernel where search strictly beats *both* heuristics;
//! * `fig_search_frontier_{jacobi,expl}.csv` — per-kernel cost/quality
//!   frontiers under the fixed [`golden_config`], Pareto-filtered
//!   through `pad_report::pareto_indices`. These two are byte-stable and
//!   pinned by the `search_golden` integration test.
//!
//! The suite sweep runs a budget of 800 fast evaluations, or 150 under
//! `PAD_QUICK=1`; the golden frontiers deliberately do not shrink — their
//! whole point is that every run, quick or full, produces identical
//! bytes.

use pad_bench::harness::{
    cells_or_marker, emit, exact_misses, pct, quick_mode, suite_programs, RunContext, RunStatus,
};
use pad_bench::pool;
use pad_cache_sim::CacheConfig;
use pad_core::{DataLayout, PaddingPipeline};
use pad_ir::Program;
use pad_report::{pareto_indices, Table};
use pad_trace::padding_config_for;

use crate::{search, SearchConfig, StrategyKind};

/// Problem size of the golden frontier kernels.
pub const GOLDEN_N: i64 = 64;

/// Cache geometry of the golden frontier CSVs (the paper's base cache).
pub fn golden_cache() -> CacheConfig {
    CacheConfig::paper_base()
}

/// The fixed parameterization behind the checked-in frontier CSVs:
/// environment-independent, single-threaded, small deterministic budget.
pub fn golden_config() -> SearchConfig {
    SearchConfig {
        strategy: StrategyKind::Beam,
        budget: 200,
        seed: 0x5249_5645,
        beam_width: 4,
        threads: 1,
        confirm_exact: true,
    }
}

fn reduction_percent(orig: u64, misses: u64) -> f64 {
    if orig == 0 {
        0.0
    } else {
        100.0 * (orig as f64 - misses as f64) / orig as f64
    }
}

/// One kernel's cost/quality frontier: exact misses (and reduction vs
/// the original layout) against analysis cost in fast evaluations, for
/// both heuristics (one-shot, zero search cost) and both strategies'
/// Pareto-filtered promotion frontiers.
pub fn kernel_frontier_table(program: &Program, cache: &CacheConfig, cfg: &SearchConfig) -> Table {
    let pad_config = padding_config_for(cache);
    let orig = exact_misses(program, &DataLayout::original(program), cache);
    let padlite = exact_misses(
        program,
        &PaddingPipeline::padlite(pad_config.clone())
            .run(program)
            .layout,
        cache,
    );
    let pad = exact_misses(
        program,
        &PaddingPipeline::pad(pad_config).run(program).layout,
        cache,
    );
    let mut t = Table::new(["strategy", "fast evals", "exact misses", "reduction %"]);
    for (name, misses) in [("orig", orig), ("padlite", padlite), ("pad", pad)] {
        t.row([
            name.to_string(),
            "0".to_string(),
            misses.to_string(),
            pct(reduction_percent(orig, misses)),
        ]);
    }
    for strategy in [StrategyKind::Beam, StrategyKind::Anneal] {
        let result = search(program, cache, &SearchConfig { strategy, ..*cfg });
        let confirmed: Vec<(u64, u64)> = result
            .promotions
            .iter()
            .filter_map(|p| p.exact.map(|e| (p.cost, e)))
            .collect();
        let points: Vec<(f64, f64)> = confirmed
            .iter()
            .map(|&(cost, exact)| (cost as f64, exact as f64))
            .collect();
        for i in pareto_indices(&points) {
            let (cost, exact) = confirmed[i];
            t.row([
                strategy.name().to_string(),
                cost.to_string(),
                exact.to_string(),
                pct(reduction_percent(orig, exact)),
            ]);
        }
    }
    t
}

/// The geometries the suite summary sweeps: the paper's base cache plus
/// a small stress cache where cross-variable conflicts are rampant and
/// joint search has the most room over one-variable-at-a-time greedy.
fn suite_caches() -> [(&'static str, CacheConfig); 2] {
    [
        ("16K", CacheConfig::paper_base()),
        ("2K", CacheConfig::direct_mapped(2 * 1024, 32)),
    ]
}

/// The suite summary table and the number of kernel/cache cells where
/// search found strictly fewer exact misses than *both* heuristics.
pub fn fig_search_suite_ctx(ctx: &RunContext, cfg: &SearchConfig) -> (Table, u64) {
    let programs = suite_programs();
    let caches = suite_caches();
    let cells: Vec<(usize, usize)> = (0..programs.len())
        .flat_map(|k| (0..caches.len()).map(move |c| (k, c)))
        .collect();
    let labels: Vec<String> = cells
        .iter()
        .map(|&(k, c)| format!("fig_search: {} @{}", programs[k].0.name, caches[c].0))
        .collect();
    let outcomes = ctx.run(&labels, |i| {
        let (k, c) = cells[i];
        let p = &programs[k].1;
        let cache = caches[c].1;
        let pad_config = padding_config_for(&cache);
        let orig = exact_misses(p, &DataLayout::original(p), &cache);
        let padlite = exact_misses(
            p,
            &PaddingPipeline::padlite(pad_config.clone()).run(p).layout,
            &cache,
        );
        let pad = exact_misses(p, &PaddingPipeline::pad(pad_config).run(p).layout, &cache);
        // Cells already fan out on the pool; searches inside run serial
        // (the pool runs width-1 requests inline, so no nesting).
        let serial = SearchConfig { threads: 1, ..*cfg };
        let mut row = vec![orig as f64, padlite as f64, pad as f64];
        for strategy in [StrategyKind::Beam, StrategyKind::Anneal] {
            let r = search(p, &cache, &SearchConfig { strategy, ..serial });
            row.push(r.best_exact.map_or(f64::NAN, |m| m as f64));
            row.push(r.fast_evals as f64);
        }
        row
    });

    let mut t = Table::new([
        "kernel",
        "cache",
        "orig",
        "padlite",
        "pad",
        "beam",
        "beam evals",
        "anneal",
        "anneal evals",
        "beats both",
    ]);
    let mut wins = 0u64;
    for (i, outcome) in outcomes.iter().enumerate() {
        let (k, c) = cells[i];
        let mut row = vec![programs[k].0.name.to_string(), caches[c].0.to_string()];
        row.extend(cells_or_marker(outcome, 8, |v| {
            let [orig, padlite, pad, beam, beam_evals, anneal, anneal_evals] = v[..] else {
                return vec![pad_report::ERR_MARKER.to_string(); 8];
            };
            let best = beam.min(anneal);
            let beats = best < padlite.min(pad);
            vec![
                format!("{orig:.0}"),
                format!("{padlite:.0}"),
                format!("{pad:.0}"),
                format!("{beam:.0}"),
                format!("{beam_evals:.0}"),
                format!("{anneal:.0}"),
                format!("{anneal_evals:.0}"),
                if beats { "yes" } else { "" }.to_string(),
            ]
        }));
        if row.last().is_some_and(|s| s == "yes") {
            wins += 1;
        }
        t.row(row);
    }
    (t, wins)
}

/// The full `fig_search` experiment: suite summary plus the two golden
/// frontier CSVs.
pub fn fig_search() -> RunStatus {
    let ctx = RunContext::for_experiment("fig_search");
    let cfg = SearchConfig {
        budget: if quick_mode() { 150 } else { 800 },
        threads: pool::thread_count(),
        ..SearchConfig::default()
    };
    let (table, wins) = fig_search_suite_ctx(&ctx, &cfg);
    emit(
        "Search vs heuristics: exact misses across the suite",
        &table,
        "fig_search_suite",
    );
    println!("(search strictly beats both heuristics on {wins} kernel/cache cells)");
    for (name, spec) in [
        ("JACOBI", pad_kernels::jacobi::spec as fn(i64) -> Program),
        ("EXPL", pad_kernels::expl::spec),
    ] {
        let program = spec(GOLDEN_N);
        let t = kernel_frontier_table(&program, &golden_cache(), &golden_config());
        emit(
            &format!("Search cost/quality frontier ({name}, n={GOLDEN_N})"),
            &t,
            &format!("fig_search_frontier_{}", name.to_lowercase()),
        );
    }
    ctx.finish()
}
