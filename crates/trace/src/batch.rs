//! Batched simulation: every simulator a (program, layout) pair feeds,
//! in one trace walk.
//!
//! The figure sweeps evaluate the *same* program/layout against several
//! cache organizations, miss classifiers, victim buffers, and multi-level
//! hierarchies. Trace generation is a large share of each cell's cost, so
//! regenerating the stream per simulator wastes the dominant term. A
//! [`BatchRequest`] names every sink up front; [`simulate_batch`] compiles
//! the trace once, walks it once, and tees chunked slices (via
//! [`CompiledTrace::for_each_chunk`]) into all sinks, so per-access
//! dispatch is a tight slice loop per simulator rather than a closure
//! call per access per simulator.

use pad_cache_sim::{
    Access, Cache, CacheConfig, CacheStats, ClassifiedStats, ClassifyingCache, Hierarchy,
    LevelStats, ReuseAnalyzer, ReuseHistogram, Sampler, SetHeatReport, SetHeatTracker, VictimCache,
    VictimStats,
};
use pad_core::DataLayout;
use pad_ir::Program;
use pad_telemetry::{Event, Value};

use crate::compiled::CompiledTrace;

/// Chunk size used by the batched engine: big enough to amortize the
/// per-chunk sink loop, small enough to stay resident in L1/L2 while
/// several simulated caches touch it.
pub const BATCH_CHUNK: usize = 4096;

/// Everything one compiled trace should be run through.
///
/// Build with the fluent `with_*` methods; empty requests are legal and
/// produce empty results.
#[derive(Debug, Clone, Default)]
pub struct BatchRequest {
    /// Plain single-level caches.
    pub plain: Vec<CacheConfig>,
    /// Caches with three-C miss classification.
    pub classified: Vec<CacheConfig>,
    /// Caches augmented with an `n`-line victim buffer.
    pub victim: Vec<(CacheConfig, usize)>,
    /// Multi-level hierarchies (each a list of levels, L1 first).
    pub hierarchy: Vec<Vec<CacheConfig>>,
    /// Reuse-distance (stack-distance) analyses, one per line size in
    /// bytes. Each yields a [`ReuseHistogram`] — the exact
    /// fully-associative LRU miss count for *every* capacity at once.
    pub reuse: Vec<u64>,
    /// Per-set heat classifications. Each yields a [`SetHeatReport`]
    /// naming which sets carry the conflict pressure — the evidence the
    /// XOR-indexing and victim-cache scenarios act on.
    pub heat: Vec<CacheConfig>,
}

impl BatchRequest {
    /// An empty request.
    pub fn new() -> Self {
        BatchRequest::default()
    }

    /// Adds a plain cache simulation.
    #[must_use]
    pub fn with_plain(mut self, config: CacheConfig) -> Self {
        self.plain.push(config);
        self
    }

    /// Adds several plain cache simulations.
    #[must_use]
    pub fn with_plain_configs<I: IntoIterator<Item = CacheConfig>>(mut self, configs: I) -> Self {
        self.plain.extend(configs);
        self
    }

    /// Adds a classified (three-C) simulation.
    #[must_use]
    pub fn with_classified(mut self, config: CacheConfig) -> Self {
        self.classified.push(config);
        self
    }

    /// Adds a victim-buffered simulation.
    #[must_use]
    pub fn with_victim(mut self, config: CacheConfig, victim_lines: usize) -> Self {
        self.victim.push((config, victim_lines));
        self
    }

    /// Adds a multi-level hierarchy simulation.
    #[must_use]
    pub fn with_hierarchy<I: IntoIterator<Item = CacheConfig>>(mut self, levels: I) -> Self {
        self.hierarchy.push(levels.into_iter().collect());
        self
    }

    /// Adds a reuse-distance analysis over lines of `line_size` bytes.
    #[must_use]
    pub fn with_reuse(mut self, line_size: u64) -> Self {
        self.reuse.push(line_size);
        self
    }

    /// Adds a per-set heat classification of `config`.
    #[must_use]
    pub fn with_heat(mut self, config: CacheConfig) -> Self {
        self.heat.push(config);
        self
    }

    /// True when no sink was requested.
    pub fn is_empty(&self) -> bool {
        self.plain.is_empty()
            && self.classified.is_empty()
            && self.victim.is_empty()
            && self.hierarchy.is_empty()
            && self.reuse.is_empty()
            && self.heat.is_empty()
    }
}

/// Results of a [`simulate_batch`] run, index-aligned with the request.
#[derive(Debug, Clone, Default)]
pub struct BatchResults {
    /// Per-[`BatchRequest::plain`] statistics, in request order.
    pub plain: Vec<CacheStats>,
    /// Per-[`BatchRequest::classified`] statistics, in request order.
    pub classified: Vec<ClassifiedStats>,
    /// Per-[`BatchRequest::victim`] statistics, in request order.
    pub victim: Vec<VictimStats>,
    /// Per-[`BatchRequest::hierarchy`] level statistics, in request order.
    pub hierarchy: Vec<Vec<LevelStats>>,
    /// Per-[`BatchRequest::reuse`] histograms, in request order.
    pub reuse: Vec<ReuseHistogram>,
    /// Per-[`BatchRequest::heat`] reports, in request order.
    pub heat: Vec<SetHeatReport>,
}

/// Compiles `program` × `layout` and runs the trace through every sink in
/// the request with a single walk.
///
/// Equivalent, sink for sink, to feeding the interpreted walk
/// ([`crate::for_each_access`]) into each simulator one access at a time
/// (the `batch` test module asserts this bit-for-bit against such a
/// reference). [`crate::simulate_program`], [`crate::simulate_classified`],
/// [`crate::simulate_victim`] and [`crate::simulate_hierarchy`] are
/// one-sink calls of this function.
///
/// # Example
///
/// ```
/// use pad_cache_sim::CacheConfig;
/// use pad_core::DataLayout;
/// use pad_trace::{simulate_batch, BatchRequest};
///
/// let program = pad_kernels::jacobi::spec(32);
/// let layout = DataLayout::original(&program);
/// let results = simulate_batch(
///     &program,
///     &layout,
///     &BatchRequest::new()
///         .with_plain(CacheConfig::paper_base())
///         .with_classified(CacheConfig::paper_base()),
/// );
/// assert_eq!(results.plain[0], results.classified[0].cache);
/// ```
pub fn simulate_batch(
    program: &Program,
    layout: &DataLayout,
    request: &BatchRequest,
) -> BatchResults {
    thread_local! {
        // One persistent chunk buffer per thread: sweep workers call
        // `simulate_batch` per cell, and reusing the allocation keeps
        // the chunk's backing store hot in cache across walks instead
        // of paying an allocator round-trip per call. Sinks never call
        // back into `simulate_batch`, so the borrow cannot be re-entered.
        static CHUNK_BUF: std::cell::RefCell<Vec<Access>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    let compiled = CompiledTrace::compile(program, layout);
    CHUNK_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        simulate_batch_compiled(&compiled, request, &mut buf)
    })
}

/// [`simulate_batch`] for an already-compiled trace, reusing a
/// caller-owned chunk buffer across calls (the experiment runner keeps
/// one buffer per worker thread).
///
/// With telemetry on, the walk also emits a `sim` throughput span and
/// optional periodic cache-counter samples (`RIVERA_SIM_SAMPLE` accesses
/// apart, checked at chunk boundaries); the sink updates are the same
/// either way, so statistics are bit-identical. Victim-buffered sinks are
/// not sampled — they do not expose their main cache — but still run and
/// report normally. Reuse sinks have no `Cache` to sample; instead each
/// emits one end-of-walk counter (distinct lines, max distance, tick
/// compactions). Heat sinks likewise emit one end-of-walk counter with
/// their class census.
pub fn simulate_batch_compiled(
    trace: &CompiledTrace,
    request: &BatchRequest,
    buf: &mut Vec<Access>,
) -> BatchResults {
    if request.is_empty() {
        return BatchResults::default();
    }
    let mut plain: Vec<Cache> = request.plain.iter().map(|c| Cache::new(*c)).collect();
    let mut classified: Vec<ClassifyingCache> = request
        .classified
        .iter()
        .map(|c| ClassifyingCache::new(*c))
        .collect();
    let mut victim: Vec<VictimCache> = request
        .victim
        .iter()
        .map(|&(c, n)| VictimCache::new(c, n))
        .collect();
    let mut hierarchy: Vec<Hierarchy> = request
        .hierarchy
        .iter()
        .map(|levels| Hierarchy::new(levels.clone()))
        .collect();
    let mut reuse: Vec<ReuseAnalyzer> = request
        .reuse
        .iter()
        .map(|&line_size| ReuseAnalyzer::new(line_size))
        .collect();
    let mut heat: Vec<SetHeatTracker> = request
        .heat
        .iter()
        .map(|c| SetHeatTracker::new(*c))
        .collect();

    let instrumented = pad_telemetry::enabled();
    let (start_us, interval) = if instrumented {
        (pad_telemetry::now_us(), pad_telemetry::sample_interval())
    } else {
        (0, 0)
    };
    // Sampler setup is hoisted fully out of the walk and skipped — name
    // `format!`s included — unless sampling is on: only *active* samplers
    // are materialized (paired with the index of the sink they watch), so
    // the per-chunk sampler loops iterate zero times otherwise.
    let mut plain_samplers: Vec<(usize, Sampler)> = Vec::new();
    let mut classified_samplers: Vec<(usize, Sampler)> = Vec::new();
    let mut hierarchy_samplers: Vec<(usize, usize, Sampler)> = Vec::new();
    if interval > 0 {
        plain_samplers = (0..plain.len())
            .filter_map(|i| {
                Sampler::new(format!("{}/plain{i}", trace.name()), interval).map(|s| (i, s))
            })
            .collect();
        classified_samplers = (0..classified.len())
            .filter_map(|i| {
                Sampler::new(format!("{}/classified{i}", trace.name()), interval).map(|s| (i, s))
            })
            .collect();
        hierarchy_samplers = hierarchy
            .iter()
            .enumerate()
            .flat_map(|(i, h)| (0..h.levels().len()).map(move |lvl| (i, lvl)))
            .filter_map(|(i, lvl)| {
                Sampler::new(format!("{}/hier{i}.L{}", trace.name(), lvl + 1), interval)
                    .map(|s| (i, lvl, s))
            })
            .collect();
    }

    // Accesses actually walked, tallied per chunk (one add per ~4K
    // accesses) so the accounting below never needs a second walk.
    let mut walked = 0u64;
    let mut chunks = 0u64;
    trace.for_each_chunk(BATCH_CHUNK, buf, |chunk| {
        walked += chunk.len() as u64;
        chunks += 1;
        for cache in &mut plain {
            cache.run_slice(chunk);
        }
        for cache in &mut classified {
            cache.run_slice(chunk);
        }
        for cache in &mut victim {
            cache.run_slice(chunk);
        }
        for h in &mut hierarchy {
            h.run_slice(chunk);
        }
        for r in &mut reuse {
            r.run_slice(chunk);
        }
        for h in &mut heat {
            h.run_slice(chunk);
        }
        for (i, s) in &mut plain_samplers {
            s.tick(&plain[*i]);
        }
        for (i, s) in &mut classified_samplers {
            s.tick(classified[*i].main());
        }
        for (i, lvl, s) in &mut hierarchy_samplers {
            s.tick(&hierarchy[*i].levels()[*lvl]);
        }
    });

    if instrumented {
        // End-of-walk flush so short walks still yield one data point each.
        for (i, s) in &plain_samplers {
            s.sample(&plain[*i]);
        }
        for (i, s) in &classified_samplers {
            s.sample(classified[*i].main());
        }
        for (i, lvl, s) in &hierarchy_samplers {
            s.sample(&hierarchy[*i].levels()[*lvl]);
        }
        emit_walk_events(trace, start_us, walked, chunks, &reuse, &heat, request);
    }

    // Live-metrics accounting happens once per batch, after the walk:
    // the per-access hot loops above stay untouched in every mode.
    if walked > 0 && pad_telemetry::metrics_enabled() {
        use std::sync::OnceLock;
        static ACCESSES: OnceLock<std::sync::Arc<pad_telemetry::Counter>> = OnceLock::new();
        ACCESSES
            .get_or_init(|| {
                pad_telemetry::registry().counter(
                    "pad_sim_accesses_total",
                    "Accesses walked by the batched simulation engine.",
                )
            })
            .add(walked);
    }

    BatchResults {
        plain: plain.iter().map(|c| *c.stats()).collect(),
        classified: classified.iter().map(|c| *c.stats()).collect(),
        victim: victim.iter().map(|c| *c.stats()).collect(),
        hierarchy: hierarchy.iter().map(Hierarchy::stats).collect(),
        reuse: reuse
            .into_iter()
            .map(ReuseAnalyzer::into_histogram)
            .collect(),
        heat: heat.iter().map(SetHeatTracker::report).collect(),
    }
}

/// The end-of-walk telemetry: one counter per reuse and heat sink, then
/// the walk's `sim` throughput span.
fn emit_walk_events(
    trace: &CompiledTrace,
    start_us: u64,
    accesses: u64,
    chunks: u64,
    reuse: &[ReuseAnalyzer],
    heat: &[SetHeatTracker],
    request: &BatchRequest,
) {
    for (i, r) in reuse.iter().enumerate() {
        pad_telemetry::emit(|| {
            let h = r.histogram();
            Event::counter(
                "reuse",
                format!("{}/reuse{i}", trace.name()),
                vec![
                    ("accesses", Value::U64(h.accesses())),
                    ("distinct_lines", Value::U64(h.cold())),
                    ("max_distance", Value::U64(h.max_distance().unwrap_or(0))),
                    ("compactions", Value::U64(r.compactions())),
                ],
            )
        });
    }

    for (i, h) in heat.iter().enumerate() {
        pad_telemetry::emit(|| {
            let report = h.report();
            let c = report.class_counts();
            Event::counter(
                "heat",
                format!("{}/heat{i}", trace.name()),
                vec![
                    ("very_hot_sets", Value::U64(c[0])),
                    ("hot_sets", Value::U64(c[1])),
                    ("cold_sets", Value::U64(c[2])),
                    ("very_cold_sets", Value::U64(c[3])),
                    ("evictions", Value::U64(report.total_evictions())),
                ],
            )
        });
    }

    let sinks = (request.plain.len()
        + request.classified.len()
        + request.victim.len()
        + request.hierarchy.len()
        + request.reuse.len()
        + request.heat.len()) as u64;
    pad_telemetry::emit(|| {
        let busy_us = pad_telemetry::now_us().saturating_sub(start_us).max(1);
        Event::span(
            start_us,
            "sim",
            trace.name().to_string(),
            vec![
                ("accesses", Value::U64(accesses)),
                ("chunks", Value::U64(chunks)),
                ("sinks", Value::U64(sinks)),
                (
                    "accesses_per_sec",
                    Value::F64(accesses as f64 / (busy_us as f64 / 1e6)),
                ),
            ],
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    #[test]
    fn batch_matches_individual_entry_points() {
        let program = pad_kernels::shal::spec(24);
        let layout = DataLayout::original(&program);
        let dm = CacheConfig::direct_mapped(1024, 32);
        let plain = [
            dm,
            CacheConfig::direct_mapped(4096, 32),
            CacheConfig::set_associative(2048, 32, 2),
        ];
        let l2 = CacheConfig::set_associative(8 * 1024, 64, 4);

        let results = simulate_batch(
            &program,
            &layout,
            &BatchRequest::new()
                .with_plain_configs(plain)
                .with_classified(dm)
                .with_victim(dm, 4)
                .with_hierarchy([dm, l2]),
        );

        // Every sink against the interpreted walk, one access at a time,
        // and each one-sink entry point against the same oracle.
        for (config, stats) in plain.iter().zip(&results.plain) {
            let expected = reference::simulate_program(&program, &layout, config);
            assert_eq!(*stats, expected, "{config:?}");
            assert_eq!(crate::simulate_program(&program, &layout, config), expected);
        }
        let expected = reference::simulate_classified(&program, &layout, &dm);
        assert_eq!(results.classified[0], expected);
        assert_eq!(crate::simulate_classified(&program, &layout, &dm), expected);
        let expected = reference::simulate_victim(&program, &layout, &dm, 4);
        assert_eq!(results.victim[0], expected);
        assert_eq!(crate::simulate_victim(&program, &layout, &dm, 4), expected);
        let expected = reference::simulate_hierarchy(&program, &layout, &[dm, l2]);
        assert_eq!(results.hierarchy[0], expected);
        assert_eq!(
            crate::simulate_hierarchy(&program, &layout, &[dm, l2]),
            expected
        );
    }

    #[test]
    fn empty_request_yields_empty_results() {
        let program = pad_kernels::dot::spec(16);
        let layout = DataLayout::original(&program);
        let results = simulate_batch(&program, &layout, &BatchRequest::new());
        assert!(results.plain.is_empty());
        assert!(results.classified.is_empty());
        assert!(results.victim.is_empty());
        assert!(results.hierarchy.is_empty());
        assert!(results.reuse.is_empty());
        assert!(results.heat.is_empty());
    }

    #[test]
    fn batch_heat_matches_standalone_tracker_and_plain_stats() {
        use pad_cache_sim::SetHeatTracker;

        let program = pad_kernels::jacobi::spec(24);
        let layout = DataLayout::original(&program);
        let dm = CacheConfig::direct_mapped(1024, 32);
        let results = simulate_batch(
            &program,
            &layout,
            &BatchRequest::new().with_plain(dm).with_heat(dm),
        );

        let compiled = CompiledTrace::compile(&program, &layout);
        let mut reference = SetHeatTracker::new(dm);
        compiled.for_each(|a| reference.access(a));
        assert_eq!(results.heat[0], reference.report());

        // Per-set tallies reconcile with the plain simulation of the
        // same geometry.
        let accesses: u64 = results.heat[0].rows().iter().map(|r| r.accesses).sum();
        let misses: u64 = results.heat[0].rows().iter().map(|r| r.misses).sum();
        assert_eq!(accesses, results.plain[0].accesses);
        assert_eq!(misses, results.plain[0].misses);
    }

    #[test]
    fn instrumented_heat_sink_emits_class_census() {
        let program = pad_kernels::jacobi::spec(24);
        let layout = DataLayout::original(&program);
        let dm = CacheConfig::direct_mapped(1024, 32);
        let request = BatchRequest::new().with_heat(dm);

        let baseline = simulate_batch(&program, &layout, &request);
        let recorder = pad_telemetry::install_recorder(pad_telemetry::Mode::Events);
        let instrumented = simulate_batch(&program, &layout, &request);
        pad_telemetry::uninstall();

        assert_eq!(baseline.heat, instrumented.heat);
        let events = recorder.snapshot();
        let heat_counters: Vec<_> = events.iter().filter(|e| e.category == "heat").collect();
        assert_eq!(heat_counters.len(), 1);
        let census: u64 = ["very_hot_sets", "hot_sets", "cold_sets", "very_cold_sets"]
            .iter()
            .map(|k| {
                heat_counters[0]
                    .arg(k)
                    .and_then(pad_telemetry::Value::as_u64)
                    .expect("census key present")
            })
            .sum();
        assert_eq!(census, baseline.heat[0].num_sets());
        let sim_span = events
            .iter()
            .find(|e| e.category == "sim" && e.name == program.name())
            .expect("walk span");
        assert_eq!(
            sim_span.arg("sinks").and_then(pad_telemetry::Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn batch_reuse_matches_standalone_analyzer() {
        let program = pad_kernels::jacobi::spec(24);
        let layout = DataLayout::original(&program);
        let results = simulate_batch(
            &program,
            &layout,
            &BatchRequest::new().with_reuse(32).with_reuse(64),
        );

        let compiled = CompiledTrace::compile(&program, &layout);
        for (i, &line_size) in [32u64, 64].iter().enumerate() {
            let mut reference = ReuseAnalyzer::new(line_size);
            compiled.for_each(|a| reference.access(a));
            assert_eq!(
                results.reuse[i],
                *reference.histogram(),
                "line_size={line_size}"
            );
        }

        // The histogram agrees with a plain fully-associative simulation
        // at a spot-check capacity (64 lines of 32 B).
        let fa = CacheConfig::fully_associative(64 * 32, 32);
        let stats = reference::simulate_program(&program, &layout, &fa);
        assert_eq!(results.reuse[0].misses_at(64), stats.misses);
        assert_eq!(results.reuse[0].accesses(), stats.accesses);
    }

    #[test]
    fn instrumented_walk_matches_plain_and_emits_events() {
        let program = pad_kernels::jacobi::spec(24);
        let layout = DataLayout::original(&program);
        let dm = CacheConfig::direct_mapped(1024, 32);
        let l2 = CacheConfig::set_associative(8 * 1024, 64, 4);
        let request = BatchRequest::new()
            .with_plain(dm)
            .with_classified(dm)
            .with_victim(dm, 4)
            .with_hierarchy([dm, l2])
            .with_reuse(32);

        let baseline = simulate_batch(&program, &layout, &request);
        let recorder = pad_telemetry::install_recorder(pad_telemetry::Mode::Events);
        let instrumented = simulate_batch(&program, &layout, &request);
        pad_telemetry::uninstall();

        assert_eq!(baseline.plain, instrumented.plain);
        assert_eq!(baseline.classified, instrumented.classified);
        assert_eq!(baseline.victim, instrumented.victim);
        assert_eq!(baseline.hierarchy, instrumented.hierarchy);
        assert_eq!(baseline.reuse, instrumented.reuse);

        let events = recorder.snapshot();
        let sim_spans: Vec<_> = events
            .iter()
            .filter(|e| e.category == "sim" && e.name == program.name())
            .collect();
        assert_eq!(sim_spans.len(), 1, "one walk span per batch");
        assert_eq!(
            sim_spans[0]
                .arg("sinks")
                .and_then(pad_telemetry::Value::as_u64),
            Some(5)
        );
        let accesses = sim_spans[0]
            .arg("accesses")
            .and_then(pad_telemetry::Value::as_u64)
            .expect("accesses recorded");
        assert_eq!(accesses, baseline.plain[0].accesses);
        // End-of-walk flush: one counter per sampled level (plain +
        // classified main + two hierarchy levels; victim is unsampled).
        let cache_counters = events.iter().filter(|e| e.category == "cache").count();
        assert_eq!(cache_counters, 4);
        // ...plus one end-of-walk reuse counter carrying the histogram
        // shape.
        let reuse_counters: Vec<_> = events.iter().filter(|e| e.category == "reuse").collect();
        assert_eq!(reuse_counters.len(), 1);
        assert_eq!(
            reuse_counters[0]
                .arg("accesses")
                .and_then(pad_telemetry::Value::as_u64),
            Some(baseline.reuse[0].accesses())
        );
        assert_eq!(
            reuse_counters[0]
                .arg("distinct_lines")
                .and_then(pad_telemetry::Value::as_u64),
            Some(baseline.reuse[0].cold())
        );
    }

    #[test]
    fn chunking_is_invisible() {
        // Walk the same compiled trace with pathological chunk sizes; the
        // concatenation must always equal the plain stream.
        let program = pad_kernels::jacobi::spec(20);
        let layout = DataLayout::original(&program);
        let compiled = CompiledTrace::compile(&program, &layout);
        let mut plain = Vec::new();
        compiled.for_each(|a| plain.push(a));
        for chunk in [1usize, 2, 3, 7, 1024, usize::MAX >> 32] {
            let mut buf = Vec::new();
            let mut chunked = Vec::new();
            compiled.for_each_chunk(chunk, &mut buf, |c| chunked.extend_from_slice(c));
            assert_eq!(plain, chunked, "chunk={chunk}");
        }
    }
}
