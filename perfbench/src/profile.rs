//! The per-layer metrics: every workload reports the same list, with 0
//! for a layer the workload never calls.

use std::collections::BTreeMap;

use crate::spans::Totals;
use crate::stats::Metric;

/// Per-layer numbers that do not come straight from span totals.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    /// Median exec-to-first-ping of `padtool serve` with an empty store.
    pub spawn_ms: Option<f64>,
    /// Median `Store::open` of the primed journal.
    pub store_replay_ms: Option<f64>,
    /// Store hits over advise requests, from the server's `stats` op.
    pub store_hit_frac: f64,
    /// Mean served round trip minus in-process advisor time.
    pub transport_ms: f64,
    /// Arrays padded (intra or inter) by the pipeline calls.
    pub pads: u64,
    /// Fast-rung evaluations of the exact searches.
    pub fast_evals: u64,
    /// Exact confirmations of the exact searches.
    pub exact_evals: u64,
    /// Fast-only search time per fast evaluation.
    pub fast_eval_us: f64,
    /// Exact search time minus fast-only search time, per search.
    pub confirm_ms: f64,
    /// Sweep pool: p50 cell ms (with sample count), busy fraction, tail idle ms.
    pub bench: Option<(f64, usize, f64, f64)>,
    /// 1 - sum of layer self time / undecomposed time.
    pub residual_frac: f64,
    /// Traced wall / untraced wall - 1.
    pub trace_overhead_frac: f64,
}

/// Every per-layer metric `BENCHMARK.json` names, in its order.
pub fn layer_metrics(t: &BTreeMap<&'static str, Totals>, x: &Extras) -> Vec<Metric> {
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let mean = |name: &'static str, metric: &'static str, unit: &'static str, unit_ns: f64| {
        let s = get(name);
        Metric::sampled(metric, s.mean(unit_ns), unit, s.calls as usize)
    };
    let maps = |name: &'static str, metric: &'static str| {
        let s = get(name);
        Metric::sampled(metric, s.busy_maps(), "M/s", s.calls as usize)
    };
    let (cell_ms, cells, busy_frac, tail_idle_ms) = x.bench.unwrap_or_default();
    let walk = get("trace.walk");
    let ptrc = get("trace-ingest.ptrc");
    let ndjson = get("trace-ingest.ndjson");
    vec![
        Metric::exact("cli.spawn_ms", x.spawn_ms.unwrap_or(0.0), "ms"),
        Metric::exact("advisor.store_replay_ms", x.store_replay_ms.unwrap_or(0.0), "ms"),
        mean("advisor.frame", "advisor.frame_us", "us", 1e3),
        mean("advisor.resolve", "advisor.resolve_us", "us", 1e3),
        mean("advisor.budget", "advisor.budget_us", "us", 1e3),
        mean("advisor.engine", "advisor.engine_ms", "ms", 1e6),
        mean("advisor.serialize", "advisor.serialize_us", "us", 1e3),
        Metric::exact("advisor.store_hit_frac", x.store_hit_frac, "frac"),
        Metric::exact("advisor.transport_ms", x.transport_ms, "ms"),
        mean("ir.parse", "ir.parse_us", "us", 1e3),
        mean("core.pipeline", "core.pipeline_us", "us", 1e3),
        mean("core.estimate", "core.estimate_us", "us", 1e3),
        Metric::exact("core.pads", x.pads as f64, "count"),
        mean("pad-search.search", "pad-search.search_ms", "ms", 1e6),
        Metric::exact("pad-search.fast_eval_us", x.fast_eval_us, "us"),
        Metric::exact("pad-search.confirm_ms", x.confirm_ms, "ms"),
        Metric::exact("pad-search.fast_evals", x.fast_evals as f64, "count"),
        Metric::exact("pad-search.exact_evals", x.exact_evals as f64, "count"),
        mean("trace.compile", "trace.compile_us", "us", 1e3),
        Metric::sampled("trace.walk_maps", walk.self_maps(), "M/s", walk.calls as usize),
        Metric::exact("trace.accesses", walk.items as f64, "count"),
        maps("cache-sim.reuse", "cache-sim.reuse_maps"),
        maps("cache-sim.dm", "cache-sim.dm_maps"),
        maps("cache-sim.assoc2", "cache-sim.assoc2_maps"),
        maps("cache-sim.assoc4", "cache-sim.assoc4_maps"),
        maps("cache-sim.assoc8", "cache-sim.assoc8_maps"),
        maps("cache-sim.assoc16", "cache-sim.assoc16_maps"),
        maps("cache-sim.classify", "cache-sim.classify_maps"),
        maps("cache-sim.xor", "cache-sim.xor_maps"),
        maps("cache-sim.victim", "cache-sim.victim_maps"),
        maps("cache-sim.heat", "cache-sim.heat_maps"),
        maps("cache-sim.shards", "cache-sim.shards_maps"),
        Metric::sampled("trace-ingest.ptrc_maps", ptrc.self_maps(), "M/s", ptrc.calls as usize),
        Metric::sampled("trace-ingest.ndjson_maps", ndjson.self_maps(), "M/s", ndjson.calls as usize),
        maps("trace-ingest.replay", "trace-ingest.replay_maps"),
        Metric::sampled("bench.cell_ms", cell_ms, "ms", cells),
        Metric::exact("bench.busy_frac", busy_frac, "frac"),
        Metric::exact("bench.tail_idle_ms", tail_idle_ms, "ms"),
        Metric::exact("residual_frac", x.residual_frac, "frac"),
        Metric::exact("trace_overhead_frac", x.trace_overhead_frac, "frac"),
    ]
}

/// Report lines: each layer's share of the decomposed pass's self time,
/// largest first (spans named `skip` are measurement probes, left out).
pub fn shares(t: &BTreeMap<&'static str, Totals>, skip: &str) -> Vec<String> {
    let total: u64 = t.iter().filter(|(n, _)| **n != skip).map(|(_, s)| s.self_ns).sum();
    let mut rows: Vec<(&str, u64)> = t.iter().filter(|(n, _)| **n != skip).map(|(n, s)| (*n, s.self_ns)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    rows.into_iter()
        .filter(|(_, ns)| *ns > 0)
        .map(|(name, ns)| format!("share {name:<22} {:6.2}% of traced self time", 100.0 * ns as f64 / total.max(1) as f64))
        .collect()
}
