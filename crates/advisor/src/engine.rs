//! The advisor's analysis engine: one validated request in, one
//! deterministic JSON answer out.
//!
//! Two rungs of a degradation ladder:
//!
//! * **Exact** — run the padding pipeline, then simulate the original
//!   and the padded layout through the batch simulator with a
//!   reuse-distance sink attached, yielding measured miss rates plus a
//!   miss-ratio curve. This is the answer the paper's tables are made
//!   of, and it costs time proportional to the trace length. PAD and
//!   PADLITE pad only where their analysis finds a conflict, and a
//!   search may keep the original, so the answer's layout often *is*
//!   the original one; a (program, layout) pair always simulates to the
//!   same result, so such a layout is walked once and both answer
//!   sections come from that walk. Every answer runs under the
//!   process-wide walk memo ([`pad_trace::WalkMemo`]): a sink an earlier
//!   answer or this search's exact confirmations already simulated (the
//!   original layout is always promoted first, and the winner is
//!   confirmed on the request's cache) comes from the memo, not a walk.
//! * **Fast** — run the same pipeline but report the analytic miss-rate
//!   estimate instead of simulating. Costs microseconds, marked
//!   `degraded` when it stands in for an exact answer.
//!
//! The server picks the rung (deadline budget, a blown exact rung,
//! request mode); the engine only guarantees that for a fixed request and rung
//! the produced JSON is byte-identical across runs and processes — the
//! property the persistent answer cache replays rely on.

use pad_cache_sim::{CacheConfig, ReuseHistogram};
use pad_core::{DataLayout, PaddingPipeline};
use pad_ir::Program;
use pad_kernels::suite;
use pad_telemetry as telemetry;
use pad_trace::{padding_config_for, simulate_batch, BatchRequest, CompiledTrace, Sinks, WalkMemo};
use pad_trace_ingest::IngestError;

use crate::json::Json;
use crate::protocol::{
    AdviseRequest, Algorithm, ErrorKind, RequestError, Source, MAX_PROBLEM_SIZE,
};

/// Records one finished analysis in the live metrics layer: its
/// `pad_engine_analysis_us{rung=...}` latency, whose count is the
/// rung's analyses. Handles are registered once and cached.
fn record_analysis(rung: &'static str, start_us: u64) {
    use std::sync::OnceLock;
    if !telemetry::metrics_enabled() {
        return;
    }
    static HISTS: OnceLock<[std::sync::Arc<telemetry::LatencyHistogram>; 3]> = OnceLock::new();
    const RUNGS: [&str; 3] = ["exact", "fast", "trace"];
    let hists = HISTS.get_or_init(|| {
        RUNGS.map(|rung| {
            telemetry::registry().histogram_with("pad_engine_analysis_us", &[("rung", rung)])
        })
    });
    let i = RUNGS.iter().position(|&r| r == rung).unwrap_or(0);
    hists[i].record(telemetry::now_us().saturating_sub(start_us));
}

/// Resolves a request's source into a program.
///
/// # Errors
///
/// `Invalid` for unknown kernel names, `Parse` (with the parser's
/// line-numbered message) for inline text that is not a loop-nest spec.
pub fn resolve(source: &Source) -> Result<Program, RequestError> {
    match source {
        Source::Kernel { name, n } => {
            let kernel = suite()
                .into_iter()
                .find(|k| k.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    RequestError::new(ErrorKind::Invalid, format!("unknown kernel `{name}`"))
                })?;
            let n = n.unwrap_or(kernel.default_n).clamp(1, MAX_PROBLEM_SIZE);
            Ok((kernel.spec)(n))
        }
        Source::Text(text) => {
            pad_ir::parse(text).map_err(|e| RequestError::new(ErrorKind::Parse, e.to_string()))
        }
        // Trace sources never resolve to a program — the server routes
        // them to [`advise_trace`] instead; reaching here is a bug
        // upstream, answered as a typed error rather than a panic.
        Source::Trace { .. } => Err(RequestError::new(
            ErrorKind::Invalid,
            "a `trace` source carries no loop nest to resolve",
        )),
    }
}

/// Outer-loop trips [`exact_cost`] may iterate while counting: about
/// 12 ms at ~12 ns per trip (2-core Xeon). A program that needs more is
/// priced as unaffordable.
const PRICING_TRIPS: u64 = 1 << 20;

/// Work (accesses plus loop trips, over both layouts) an exact answer
/// for `program` may do, or `u64::MAX` when counting it would cost more
/// than 2^20 iterated outer-loop trips (about 12 ms). The server divides
/// this by its calibrated simulation rate to decide whether exact fits
/// the deadline budget; it runs before the deadline-guarded cell, so it
/// must stay cheap on any input. Trips are priced like accesses: a nest of empty
/// inner loops performs no accesses, yet its walk runs every outer trip.
///
/// The price is the two-walk upper bound. Which layout the answer picks
/// is only known after the pipeline or search has run, and an answer
/// whose layout equals the original costs one walk.
pub fn exact_cost(program: &Program) -> u64 {
    // The padded layout replays the same reference stream, so the cost
    // is at most twice one walk. `CompiledTrace::work_within` is
    // closed-form over rectangular and triangular nests and never walks
    // the trace; only deeper dependent nests iterate an outer loop, and
    // the trip budget bounds that.
    CompiledTrace::compile(program, &DataLayout::original(program))
        .work_within(PRICING_TRIPS)
        .map_or(u64::MAX, |n| n.saturating_mul(2))
}

/// Builds the search configuration for a request — library defaults
/// overridden by the request's [`crate::protocol::SearchParams`] — and
/// runs the global layout search. The exact rung confirms the promoted
/// frontier through simulation; the fast rung answers from analytic
/// scores only (reported degraded by the caller's ladder as usual).
fn run_search(
    program: &Program,
    request: &AdviseRequest,
    exact: bool,
) -> (pad_search::SearchResult, pad_search::SearchConfig) {
    let p = &request.search;
    let mut cfg = pad_search::SearchConfig {
        // The server already isolates each request in its own cell;
        // confirmation fan-out stays serial inside it.
        threads: 1,
        confirm_exact: exact,
        ..pad_search::SearchConfig::default()
    };
    if let Some(s) = p.strategy {
        cfg.strategy = s;
    }
    if let Some(b) = p.budget {
        cfg.budget = b;
    }
    if let Some(s) = p.seed {
        cfg.seed = s;
    }
    if let Some(w) = p.beam {
        cfg.beam_width = w;
    }
    (pad_search::search(program, &request.cache, &cfg), cfg)
}

/// One produced answer: the JSON body plus how it was produced.
#[derive(Debug, Clone)]
pub struct Advice {
    /// The `result` object (deterministic serialization).
    pub body: Json,
    /// True when the fast rung answered a request that wanted exact.
    pub degraded: bool,
    /// True when the batch simulator ran (exact rung).
    pub simulated: bool,
}

/// Runs the analysis at the chosen rung. `exact` selects the
/// simulation-backed rung; `degraded` records whether this rung is a
/// fallback (the caller knows; the engine just stamps it). Every walk
/// runs under the process-wide walk memo.
pub fn advise(program: &Program, request: &AdviseRequest, exact: bool, degraded: bool) -> Advice {
    static MEMO: std::sync::LazyLock<std::sync::Arc<WalkMemo>> =
        std::sync::LazyLock::new(Default::default);
    MEMO.run(|| advise_in_memo(program, request, exact, degraded))
}

fn advise_in_memo(
    program: &Program,
    request: &AdviseRequest,
    exact: bool,
    degraded: bool,
) -> Advice {
    let start = telemetry::now_us();
    let cache = &request.cache;
    let config = padding_config_for(cache);
    // The search algorithm produces its layout (and an extra response
    // section) through `pad-search`; the heuristics run their pipeline.
    let (layout, events, search_section) = match request.algorithm {
        Algorithm::Pad => {
            let outcome = PaddingPipeline::pad(config.clone()).run(program);
            (outcome.layout, outcome.events, None)
        }
        Algorithm::PadLite => {
            let outcome = PaddingPipeline::padlite(config.clone()).run(program);
            (outcome.layout, outcome.events, None)
        }
        Algorithm::Search => {
            let (result, cfg) = run_search(program, request, exact);
            let events: Vec<pad_core::PadEvent> = Vec::new();
            let section = Json::Obj(vec![
                ("strategy".into(), Json::Str(result.strategy.to_string())),
                ("seed".into(), Json::Int(cfg.seed as i64)),
                ("budget".into(), Json::Int(cfg.budget as i64)),
                ("candidates".into(), Json::Int(result.fast_evals as i64)),
                ("promoted".into(), Json::Int(result.promotions.len() as i64)),
                ("discarded".into(), Json::Int(result.discarded as i64)),
                (
                    "best_exact_misses".into(),
                    result
                        .best_exact
                        .map_or(Json::Null, |m| Json::Int(m as i64)),
                ),
            ]);
            (result.best.layout, events, Some(section))
        }
    };
    let original = DataLayout::original(program);

    let mut fields: Vec<(String, Json)> = vec![
        ("program".into(), Json::Str(program.name().to_string())),
        (
            "algorithm".into(),
            Json::Str(request.algorithm.name().to_string()),
        ),
        (
            "mode_used".into(),
            Json::Str(if exact { "exact" } else { "fast" }.into()),
        ),
        (
            "cache".into(),
            Json::Obj(vec![
                ("size".into(), Json::Int(cache.size() as i64)),
                ("line".into(), Json::Int(cache.line_size() as i64)),
                ("ways".into(), Json::Int(i64::from(cache.ways()))),
            ]),
        ),
    ];

    if exact {
        fields.extend(exact_fields(program, &original, &layout, cache));
    } else {
        let before = pad_core::estimate_miss_rate(program, &original, &config);
        let after = pad_core::estimate_miss_rate(program, &layout, &config);
        fields.push((
            "original".into(),
            Json::Obj(vec![(
                "miss_rate_percent".into(),
                Json::Num(before.miss_rate_percent()),
            )]),
        ));
        fields.push((
            "padded".into(),
            Json::Obj(vec![(
                "miss_rate_percent".into(),
                Json::Num(after.miss_rate_percent()),
            )]),
        ));
        fields.push((
            "improvement_points".into(),
            Json::Num(before.miss_rate_percent() - after.miss_rate_percent()),
        ));
    }

    fields.push(("arrays".into(), arrays_json(program, &layout)));
    fields.push((
        "events".into(),
        Json::Arr(events.iter().map(|e| Json::Str(e.to_string())).collect()),
    ));
    if let Some(section) = search_section {
        fields.push(("search".into(), section));
    }

    record_analysis(if exact { "exact" } else { "fast" }, start);

    Advice {
        body: Json::Obj(fields),
        degraded,
        simulated: exact,
    }
}

/// The exact rung's answer sections — `original`, `padded`,
/// `improvement_points` and `mrc` — from plain-cache and reuse walks of
/// the original layout and of `layout` (not walked again when it equals
/// the original). Under the walk memo a sink already simulated is not
/// walked again, so a layout whose sinks are all memoized is not walked.
fn exact_fields(
    program: &Program,
    original: &DataLayout,
    layout: &DataLayout,
    cache: &CacheConfig,
) -> Vec<(String, Json)> {
    let line = cache.line_size();
    let sinks = BatchRequest::new().with_plain(*cache).with_reuse(line, 0);
    let walk = |layout: &DataLayout| {
        let results = simulate_batch(program, layout, &sinks);
        let hist = results.reuse.into_iter().next();
        (
            results.plain[0],
            hist.expect("the request has a reuse sink"),
        )
    };
    let before = walk(original);
    let padded = (layout != original).then(|| walk(layout));
    let after = padded.as_ref().unwrap_or(&before);
    let ((bs, hb), (as_, ha)) = (&before, after);
    vec![
        ("original".into(), stats_json(bs.accesses, bs.misses)),
        ("padded".into(), stats_json(as_.accesses, as_.misses)),
        (
            "improvement_points".into(),
            Json::Num(bs.miss_rate_percent() - as_.miss_rate_percent()),
        ),
        ("mrc".into(), mrc_json(line, hb, ha)),
    ]
}

/// Diagnoses an on-disk address trace: one streaming pass through the
/// plain, XOR-indexed, victim-buffered, per-set-heat, and (possibly
/// SHARDS-sampled) reuse sinks, answered as a `result` body shaped like
/// [`advise`]'s but carrying measurements instead of padding advice.
///
/// Deterministic: for a fixed file and request the produced JSON is
/// byte-identical across runs (the reader is exact, the sampler's hash
/// is seedless, and serialization is ordered) — but the server never
/// persists trace answers, because the file behind the path can change
/// between requests.
///
/// # Errors
///
/// `Invalid` when the file cannot be opened or read, `Parse` when its
/// contents are not a well-formed trace (bad magic, truncated record,
/// garbage NDJSON line).
pub fn advise_trace(request: &AdviseRequest) -> Result<Advice, RequestError> {
    let Source::Trace {
        path,
        format,
        sample_log2,
    } = &request.source
    else {
        return Err(RequestError::new(
            ErrorKind::Invalid,
            "advise_trace requires a `trace` source",
        ));
    };
    let start = telemetry::now_us();
    let cache = &request.cache;

    /// Lines the fully-associative victim buffer holds in the
    /// victim-cache scenario (the paper's victim experiments use small
    /// single-digit buffers; 8 is the figure sweeps' default).
    const VICTIM_LINES: usize = 8;

    let xor_cache = cache.with_index_function(pad_cache_sim::IndexFunction::Xor);
    let mut sinks = Sinks::new(
        &BatchRequest::new()
            .with_plain(*cache)
            .with_plain(xor_cache)
            .with_victim(*cache, VICTIM_LINES)
            .with_heat(*cache)
            .with_reuse(cache.line_size(), *sample_log2),
    );
    let accesses =
        pad_trace_ingest::read_trace_file(std::path::Path::new(path), *format, |chunk| {
            sinks.feed(chunk)
        })
        .map_err(|e| {
            let kind = match e {
                IngestError::Io(_) => ErrorKind::Invalid,
                _ => ErrorKind::Parse,
            };
            RequestError::new(kind, format!("trace `{path}`: {e}"))
        })?;
    let results = sinks.finish();

    let plain = &results.plain[0];
    let xor = &results.plain[1];
    let victim = &results.victim[0];
    let heat = &results.heat[0];
    let hist = &results.reuse[0];

    let census = heat.class_counts();
    let hottest: Vec<Json> = heat
        .hottest()
        .into_iter()
        .take(8)
        .filter(|row| row.evictions > 0)
        .map(|row| {
            Json::Obj(vec![
                ("set".into(), Json::Int(row.set as i64)),
                ("accesses".into(), Json::Int(row.accesses as i64)),
                ("misses".into(), Json::Int(row.misses as i64)),
                ("evictions".into(), Json::Int(row.evictions as i64)),
                ("class".into(), Json::Str(row.class.as_str().to_string())),
            ])
        })
        .collect();

    let capacities = hist.pow2_capacities();
    let mrc = Json::Arr(
        capacities
            .iter()
            .zip(hist.miss_ratios(&capacities))
            .map(|(&lines, ratio)| {
                Json::Obj(vec![
                    (
                        "capacity_bytes".into(),
                        Json::Int((lines * cache.line_size()) as i64),
                    ),
                    ("miss_ratio".into(), Json::Num(ratio)),
                ])
            })
            .collect(),
    );

    let fields: Vec<(String, Json)> = vec![
        ("trace".into(), Json::Str(path.clone())),
        ("mode_used".into(), Json::Str("exact".into())),
        (
            "cache".into(),
            Json::Obj(vec![
                ("size".into(), Json::Int(cache.size() as i64)),
                ("line".into(), Json::Int(cache.line_size() as i64)),
                ("ways".into(), Json::Int(i64::from(cache.ways()))),
            ]),
        ),
        ("accesses".into(), Json::Int(accesses as i64)),
        ("plain".into(), stats_json(plain.accesses, plain.misses)),
        ("xor".into(), stats_json(xor.accesses, xor.misses)),
        (
            "victim".into(),
            Json::Obj(vec![
                ("lines".into(), Json::Int(VICTIM_LINES as i64)),
                ("misses".into(), Json::Int(victim.misses as i64)),
                (
                    "miss_rate_percent".into(),
                    Json::Num(victim.miss_rate_percent()),
                ),
            ]),
        ),
        (
            "heat".into(),
            Json::Obj(vec![
                ("very_hot_sets".into(), Json::Int(census[0] as i64)),
                ("hot_sets".into(), Json::Int(census[1] as i64)),
                ("cold_sets".into(), Json::Int(census[2] as i64)),
                ("very_cold_sets".into(), Json::Int(census[3] as i64)),
                ("evictions".into(), Json::Int(heat.total_evictions() as i64)),
                ("hottest".into(), Json::Arr(hottest)),
            ]),
        ),
        (
            "reuse".into(),
            Json::Obj(vec![
                ("sample_log2".into(), Json::Int(i64::from(*sample_log2))),
                (
                    "sampled_accesses".into(),
                    Json::Int((hist.accesses() >> *sample_log2) as i64),
                ),
                ("distinct_lines".into(), Json::Int(hist.cold() as i64)),
                ("mrc".into(), mrc),
            ]),
        ),
    ];

    record_analysis("trace", start);

    // Always simulation-backed, never degraded. The server still never
    // persists these answers: a trace source resolves to no program, so
    // no store fingerprint exists — correctly, since the file behind
    // the path can change between requests.
    Ok(Advice {
        body: Json::Obj(fields),
        degraded: false,
        simulated: true,
    })
}

fn stats_json(accesses: u64, misses: u64) -> Json {
    let pct = if accesses == 0 {
        0.0
    } else {
        100.0 * misses as f64 / accesses as f64
    };
    Json::Obj(vec![
        ("accesses".into(), Json::Int(accesses as i64)),
        ("misses".into(), Json::Int(misses as i64)),
        ("miss_rate_percent".into(), Json::Num(pct)),
    ])
}

/// Miss-ratio curve points for both layouts over the union of their
/// power-of-two capacity grids, in bytes.
fn mrc_json(line_size: u64, hb: &ReuseHistogram, ha: &ReuseHistogram) -> Json {
    let mut capacities: Vec<u64> = hb
        .pow2_capacities()
        .into_iter()
        .chain(ha.pow2_capacities())
        .collect();
    capacities.sort_unstable();
    capacities.dedup();
    let (original, padded) = (hb.miss_ratios(&capacities), ha.miss_ratios(&capacities));
    let points = capacities
        .iter()
        .zip(original.into_iter().zip(padded))
        .map(|(&lines, (original, padded))| {
            Json::Obj(vec![
                (
                    "capacity_bytes".into(),
                    Json::Int((lines * line_size) as i64),
                ),
                ("original".into(), Json::Num(original)),
                ("padded".into(), Json::Num(padded)),
            ])
        })
        .collect();
    Json::Arr(points)
}

fn arrays_json(program: &Program, layout: &DataLayout) -> Json {
    let items = program
        .arrays_with_ids()
        .map(|(id, spec)| {
            let dims: Vec<Json> = layout.dims(id).iter().map(|d| Json::Int(d.size)).collect();
            let original: Vec<Json> = spec.dims().iter().map(|d| Json::Int(d.size)).collect();
            Json::Obj(vec![
                ("name".into(), Json::Str(spec.name().to_string())),
                ("base".into(), Json::Int(layout.base_addr(id) as i64)),
                ("dims".into(), Json::Arr(dims)),
                ("original_dims".into(), Json::Arr(original)),
            ])
        })
        .collect();
    Json::Arr(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Mode, SearchParams};

    fn request(source: Source) -> AdviseRequest {
        AdviseRequest {
            source,
            cache: CacheConfig::paper_base(),
            algorithm: Algorithm::Pad,
            search: SearchParams::default(),
            mode: Mode::Auto,
        }
    }

    #[test]
    fn resolves_kernels_case_insensitively_and_rejects_unknowns() {
        let program = resolve(&Source::Kernel {
            name: "dot256k".into(),
            n: Some(128),
        })
        .expect("DOT256K exists (case-insensitive)");
        assert!(!program.arrays().is_empty());
        let err = resolve(&Source::Kernel {
            name: "no-such-kernel".into(),
            n: None,
        })
        .expect_err("must refuse");
        assert_eq!(err.kind, ErrorKind::Invalid);
    }

    #[test]
    fn inline_parse_failures_are_typed() {
        let err = resolve(&Source::Text("this is not a spec".into())).expect_err("must refuse");
        assert_eq!(err.kind, ErrorKind::Parse);
        assert!(!err.detail.is_empty(), "parser message is forwarded");
    }

    #[test]
    fn exact_and_fast_rungs_are_deterministic_and_distinct() {
        let source = Source::Kernel {
            name: "DOT256K".into(),
            n: Some(256),
        };
        let program = resolve(&source).expect("resolves");
        let req = request(source);

        let exact_a = advise(&program, &req, true, false);
        let exact_b = advise(&program, &req, true, false);
        assert_eq!(
            exact_a.body.to_string(),
            exact_b.body.to_string(),
            "exact answers are byte-identical across runs"
        );
        assert!(exact_a.simulated && !exact_a.degraded);

        let fast = advise(&program, &req, false, true);
        assert!(!fast.simulated && fast.degraded);
        assert_eq!(
            fast.body.get("mode_used").and_then(Json::as_str),
            Some("fast")
        );
        assert!(
            fast.body.get("mrc").is_none(),
            "fast rung has no measured curve"
        );
        assert!(
            exact_a.body.get("mrc").is_some(),
            "exact rung carries the curve"
        );
    }

    #[test]
    fn search_algorithm_is_deterministic_and_never_worse_than_pad() {
        let source = Source::Kernel {
            name: "JACOBI512".into(),
            n: Some(32),
        };
        let program = resolve(&source).expect("resolves");
        let mut req = request(source);
        req.algorithm = Algorithm::Search;
        req.search.budget = Some(100);

        let a = advise(&program, &req, true, false);
        let b = advise(&program, &req, true, false);
        assert_eq!(
            a.body.to_string(),
            b.body.to_string(),
            "search answers are byte-identical across runs"
        );
        let section = a.body.get("search").expect("search section present");
        assert_eq!(section.get("strategy").and_then(Json::as_str), Some("beam"));
        assert!(section
            .get("best_exact_misses")
            .and_then(Json::as_u64)
            .is_some());

        // Seeded with PAD's answer, the search can only tie or beat it.
        let mut pad_req = req.clone();
        pad_req.algorithm = Algorithm::Pad;
        pad_req.search = SearchParams::default();
        let pad = advise(&program, &pad_req, true, false);
        let misses = |advice: &Advice| {
            advice
                .body
                .get("padded")
                .and_then(|p| p.get("misses"))
                .and_then(Json::as_u64)
                .expect("padded misses present")
        };
        assert!(misses(&a) <= misses(&pad));

        // The fast rung still answers (no simulation), section intact.
        let fast = advise(&program, &req, false, true);
        assert!(!fast.simulated && fast.degraded);
        assert!(fast.body.get("search").is_some());
    }

    #[test]
    fn search_answers_walk_the_plain_sink_without_the_original_confirmation() {
        let program = resolve(&Source::Kernel {
            name: "JACOBI512".into(),
            n: Some(32),
        })
        .expect("resolves");
        let cache = CacheConfig::direct_mapped(4096, 32);
        let cfg = pad_search::SearchConfig {
            budget: 60,
            ..pad_search::SearchConfig::default()
        };
        let original = DataLayout::original(&program);
        let walk = |layout: &DataLayout| {
            let sinks = BatchRequest::new().with_plain(cache);
            simulate_batch(&program, layout, &sinks).plain[0]
        };

        // The original layout's confirmation is exact sequence number 0.
        for skip in [vec![], vec![0]] {
            // As `advise` runs it: the search and the sections under one
            // memo, so the sections take the confirmed plain counts from
            // it.
            let memo = std::sync::Arc::new(WalkMemo::new());
            let hooks = pad_search::SearchHooks {
                skip: skip.iter().copied().collect(),
                ..pad_search::SearchHooks::default()
            };
            let result = memo.run(|| pad_search::search_with(&program, &cache, &cfg, hooks));
            assert!(result.best_exact.is_some());
            assert_eq!(result.promotions[0].exact.is_none(), skip == [0]);
            let layout = &result.best.layout;
            let before = memo.stats();
            let fields = memo.run(|| exact_fields(&program, &original, layout, &cache));
            let after = memo.stats();

            // One plain and one reuse lookup per layout walked; the
            // plain ones the confirmations counted are hits.
            let layouts = if layout == &original { 1 } else { 2 };
            let confirmed = layouts - u64::from(skip == [0]);
            assert_eq!(after.hits - before.hits, confirmed, "skip {skip:?}");
            assert_eq!(after.misses - before.misses, 2 * layouts - confirmed);

            let fields = Json::Obj(fields);
            for (key, stats) in [("original", walk(&original)), ("padded", walk(layout))] {
                let section = fields.get(key).expect("section present");
                assert_eq!(
                    section.get("accesses").and_then(Json::as_u64),
                    Some(stats.accesses)
                );
                assert_eq!(
                    section.get("misses").and_then(Json::as_u64),
                    Some(stats.misses)
                );
            }
            // Outside any memo the sections walk every sink: the same
            // bytes.
            let direct = Json::Obj(exact_fields(&program, &original, layout, &cache));
            assert_eq!(fields.to_string(), direct.to_string(), "skip {skip:?}");
        }
    }

    #[test]
    fn exact_answers_report_measured_improvement_on_dot() {
        // Figure 1's dot product at the paper's base cache: padding must
        // eliminate the cross-interference, so the measured improvement
        // is large and positive.
        let source = Source::Kernel {
            name: "DOT256K".into(),
            n: Some(4096),
        };
        let program = resolve(&source).expect("resolves");
        let advice = advise(&program, &request(source), true, false);
        let improvement = match advice.body.get("improvement_points") {
            Some(Json::Num(x)) => *x,
            other => panic!("improvement_points missing: {other:?}"),
        };
        assert!(
            improvement > 10.0,
            "dot improves by >10 points, got {improvement}"
        );
        let arrays = advice.body.get("arrays").expect("arrays present");
        let Json::Arr(items) = arrays else {
            panic!("arrays is a list")
        };
        assert_eq!(items.len(), program.arrays().len());
    }

    #[test]
    fn exact_cost_scales_with_problem_size() {
        let small = resolve(&Source::Kernel {
            name: "DOT256K".into(),
            n: Some(64),
        })
        .unwrap();
        let large = resolve(&Source::Kernel {
            name: "DOT256K".into(),
            n: Some(1024),
        })
        .unwrap();
        assert!(exact_cost(&large) > exact_cost(&small) * 8);
    }

    /// Records `name`'s reference stream (original layout) as a PTRC
    /// file under the OS temp dir and returns its path.
    fn record_kernel_trace(name: &str, n: i64, tag: &str) -> std::path::PathBuf {
        let source = Source::Kernel {
            name: name.into(),
            n: Some(n),
        };
        let program = resolve(&source).expect("kernel resolves");
        let layout = DataLayout::original(&program);
        let compiled = pad_trace::CompiledTrace::compile(&program, &layout);

        let mut path = std::env::temp_dir();
        path.push(format!(
            "pad-advisor-trace-{tag}-{}.trc",
            std::process::id()
        ));
        let mut file = std::fs::File::create(&path).expect("create trace file");
        let mut writer =
            pad_trace_ingest::binary::BinaryTraceWriter::new(&mut file).expect("header");
        compiled.for_each(|access| writer.write(access).expect("record"));
        writer.finish().expect("flush");
        path
    }

    fn trace_request(path: &std::path::Path, sample_log2: u32) -> AdviseRequest {
        request(Source::Trace {
            path: path.to_str().expect("utf-8 temp path").to_string(),
            format: None,
            sample_log2,
        })
    }

    #[test]
    fn trace_replay_reproduces_kernel_miss_counts_bit_identically() {
        let path = record_kernel_trace("DOT256K", 512, "exact");
        let req = trace_request(&path, 0);

        let advice = advise_trace(&req).expect("trace answers");
        assert!(advice.simulated && !advice.degraded);
        let again = advise_trace(&req).expect("trace answers twice");
        assert_eq!(
            advice.body.to_string(),
            again.body.to_string(),
            "trace answers are byte-identical across runs"
        );

        // The replayed plain-cache stats must equal the batch
        // simulator's answer for the kernel itself — same stream, same
        // simulator, different transport.
        let source = Source::Kernel {
            name: "DOT256K".into(),
            n: Some(512),
        };
        let program = resolve(&source).expect("resolves");
        let layout = DataLayout::original(&program);
        let batch = simulate_batch(
            &program,
            &layout,
            &BatchRequest::new().with_plain(CacheConfig::paper_base()),
        );
        let plain = advice.body.get("plain").expect("plain stats");
        assert_eq!(
            plain.get("accesses").and_then(Json::as_u64),
            Some(batch.plain[0].accesses)
        );
        assert_eq!(
            plain.get("misses").and_then(Json::as_u64),
            Some(batch.plain[0].misses)
        );
        assert_eq!(
            advice.body.get("accesses").and_then(Json::as_u64),
            Some(batch.plain[0].accesses)
        );

        // The answer carries every diagnostic section the replay ran.
        for key in ["xor", "victim", "heat", "reuse"] {
            assert!(advice.body.get(key).is_some(), "section `{key}` present");
        }
        let heat = advice.body.get("heat").unwrap();
        let census: u64 = ["very_hot_sets", "hot_sets", "cold_sets", "very_cold_sets"]
            .iter()
            .map(|k| heat.get(k).and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(census, CacheConfig::paper_base().num_sets());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_sampling_is_reported_and_errors_are_typed() {
        let path = record_kernel_trace("DOT256K", 256, "sampled");
        let advice = advise_trace(&trace_request(&path, 4)).expect("sampled trace answers");
        let reuse = advice.body.get("reuse").expect("reuse section");
        assert_eq!(reuse.get("sample_log2").and_then(Json::as_u64), Some(4));
        let sampled = reuse
            .get("sampled_accesses")
            .and_then(Json::as_u64)
            .unwrap();
        let total = advice.body.get("accesses").and_then(Json::as_u64).unwrap();
        assert!(sampled < total, "rate 1/16 samples a strict subset");
        std::fs::remove_file(&path).ok();

        let missing = trace_request(std::path::Path::new("/no/such/trace.trc"), 0);
        let err = advise_trace(&missing).expect_err("missing file refused");
        assert_eq!(err.kind, ErrorKind::Invalid);

        let mut garbage = std::env::temp_dir();
        garbage.push(format!(
            "pad-advisor-trace-garbage-{}.trc",
            std::process::id()
        ));
        std::fs::write(&garbage, b"not a trace at all").unwrap();
        let err = advise_trace(&trace_request(&garbage, 0)).expect_err("garbage refused");
        assert_eq!(err.kind, ErrorKind::Parse);
        std::fs::remove_file(&garbage).ok();
    }
}
