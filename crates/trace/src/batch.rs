//! Batched simulation: one sink set for every access stream.
//!
//! The figure sweeps evaluate the *same* program/layout against several
//! cache organizations, miss classifiers, victim buffers, and multi-level
//! hierarchies. Trace generation is a large share of each cell's cost, so
//! regenerating the stream per simulator wastes the dominant term. A
//! [`BatchRequest`] names every sink up front and [`Sinks`] holds them
//! live: each fed chunk is teed into every simulator as a tight slice
//! loop, rather than a closure call per access per simulator.
//!
//! [`Sinks`] is the only place an access stream meets the simulators.
//! [`simulate_batch`] compiles a program's trace, walks it once in
//! chunks ([`CompiledTrace::for_each_chunk`]) and feeds them in; a trace
//! file replay (`pad_trace_ingest::read_trace_file`) feeds its decoded
//! chunks into the same type, so both streams get the same menu.

use pad_cache_sim::{
    Access, Cache, CacheConfig, CacheStats, ClassifiedStats, ClassifyingCache, Hierarchy,
    LevelStats, ReuseAnalyzer, ReuseHistogram, SampledReuseAnalyzer, Sampler, SetHeatReport,
    SetHeatTracker, VictimCache, VictimStats,
};
use pad_core::DataLayout;
use pad_ir::Program;
use pad_telemetry::{Event, Value};

use crate::compiled::CompiledTrace;

/// Chunk size used by the batched engine: big enough to amortize the
/// per-chunk sink loop, small enough to stay resident in L1/L2 while
/// several simulated caches touch it.
pub const BATCH_CHUNK: usize = 4096;

/// Everything one access stream should be run through.
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
    /// Reuse-distance (stack-distance) analyses, each a line size in
    /// bytes and a SHARDS sampling exponent `k` (rate `2^-k`, 0 =
    /// exact). Each yields a [`ReuseHistogram`] — the fully-associative
    /// LRU miss count for *every* capacity at once, estimated when
    /// `k > 0`.
    pub reuse: Vec<(u64, u32)>,
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

    /// Adds a reuse-distance analysis over lines of `line_size` bytes,
    /// sampled at rate `2^-sample_log2`. At 0 it runs the exact
    /// [`ReuseAnalyzer`]; above, a [`SampledReuseAnalyzer`].
    #[must_use]
    pub fn with_reuse(mut self, line_size: u64, sample_log2: u32) -> Self {
        self.reuse.push((line_size, sample_log2));
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

/// What a finished [`Sinks`] measured, index-aligned with its request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchResults {
    /// Per-[`BatchRequest::plain`] statistics, in request order.
    pub plain: Vec<CacheStats>,
    /// Per-[`BatchRequest::classified`] statistics, in request order.
    pub classified: Vec<ClassifiedStats>,
    /// Per-[`BatchRequest::victim`] statistics, in request order.
    pub victim: Vec<VictimStats>,
    /// Per-[`BatchRequest::hierarchy`] level statistics, in request order.
    pub hierarchy: Vec<Vec<LevelStats>>,
    /// Per-[`BatchRequest::reuse`] histograms, in request order. A
    /// sampled histogram is rescaled: each sampled access counts `2^k`,
    /// so `accesses() >> k` is the number of sampled accesses.
    pub reuse: Vec<ReuseHistogram>,
    /// Per-[`BatchRequest::heat`] reports, in request order.
    pub heat: Vec<SetHeatReport>,
}

/// One reuse sink: exact, or SHARDS-sampled.
enum ReuseSink {
    Exact(ReuseAnalyzer),
    Sampled(SampledReuseAnalyzer),
}

impl ReuseSink {
    fn new(line_size: u64, sample_log2: u32) -> Self {
        if sample_log2 == 0 {
            ReuseSink::Exact(ReuseAnalyzer::new(line_size))
        } else {
            ReuseSink::Sampled(SampledReuseAnalyzer::new(line_size, sample_log2))
        }
    }

    fn run_slice(&mut self, chunk: &[Access]) {
        match self {
            ReuseSink::Exact(r) => r.run_slice(chunk),
            ReuseSink::Sampled(r) => r.run_slice(chunk),
        }
    }

    fn histogram(&self) -> &ReuseHistogram {
        match self {
            ReuseSink::Exact(r) => r.histogram(),
            ReuseSink::Sampled(r) => r.histogram(),
        }
    }

    /// Tick compactions and whether the last-use table hashed.
    fn stack_counters(&self) -> (u64, bool) {
        match self {
            ReuseSink::Exact(r) => (r.compactions(), r.is_hashed()),
            ReuseSink::Sampled(r) => (r.compactions(), r.is_hashed()),
        }
    }

    fn into_histogram(self) -> ReuseHistogram {
        match self {
            ReuseSink::Exact(r) => r.into_histogram(),
            ReuseSink::Sampled(r) => r.into_histogram(),
        }
    }
}

/// The live simulators of one [`BatchRequest`].
///
/// Feed it an access stream in order, in chunks of any size, then
/// [`finish`](Sinks::finish) it: chunk boundaries are invisible to the
/// results. Memory is the simulators' state, never the stream.
///
/// ```
/// use pad_cache_sim::{Access, CacheConfig};
/// use pad_trace::{BatchRequest, Sinks};
///
/// let request = BatchRequest::new()
///     .with_plain(CacheConfig::direct_mapped(1024, 32))
///     .with_reuse(32, 0);
/// let mut sinks = Sinks::new(&request);
/// sinks.feed(&[Access::read(0), Access::read(1024)]);
/// sinks.feed(&[Access::read(0)]);
/// let results = sinks.finish();
/// assert_eq!(results.plain[0].misses, 3);
/// assert_eq!(results.reuse[0].misses_at(2), 2);
/// ```
pub struct Sinks {
    plain: Vec<Cache>,
    classified: Vec<ClassifyingCache>,
    victim: Vec<VictimCache>,
    hierarchy: Vec<Hierarchy>,
    reuse: Vec<ReuseSink>,
    heat: Vec<SetHeatTracker>,
    // Cache-counter samplers, each with the index of the sink (and
    // level) it watches. Empty unless `simulate_batch` turned sampling
    // on, so the per-chunk sampler loops iterate zero times otherwise.
    plain_samplers: Vec<(usize, Sampler)>,
    classified_samplers: Vec<(usize, Sampler)>,
    hierarchy_samplers: Vec<(usize, usize, Sampler)>,
}

impl Sinks {
    /// Instantiates every simulator `request` names.
    pub fn new(request: &BatchRequest) -> Self {
        Sinks {
            plain: request.plain.iter().map(|c| Cache::new(*c)).collect(),
            classified: request
                .classified
                .iter()
                .map(|c| ClassifyingCache::new(*c))
                .collect(),
            victim: request
                .victim
                .iter()
                .map(|&(c, n)| VictimCache::new(c, n))
                .collect(),
            hierarchy: request
                .hierarchy
                .iter()
                .map(|levels| Hierarchy::new(levels.clone()))
                .collect(),
            reuse: request
                .reuse
                .iter()
                .map(|&(line_size, k)| ReuseSink::new(line_size, k))
                .collect(),
            heat: request
                .heat
                .iter()
                .map(|c| SetHeatTracker::new(*c))
                .collect(),
            plain_samplers: Vec::new(),
            classified_samplers: Vec::new(),
            hierarchy_samplers: Vec::new(),
        }
    }

    /// Attaches a cache-counter sampler, named `{name}/...`, to every
    /// plain, classified and hierarchy-level cache. Victim-buffered
    /// sinks do not expose their main cache and stay unsampled.
    fn sample_every(&mut self, name: &str, interval: u64) {
        self.plain_samplers = (0..self.plain.len())
            .filter_map(|i| Sampler::new(format!("{name}/plain{i}"), interval).map(|s| (i, s)))
            .collect();
        self.classified_samplers = (0..self.classified.len())
            .filter_map(|i| Sampler::new(format!("{name}/classified{i}"), interval).map(|s| (i, s)))
            .collect();
        self.hierarchy_samplers = self
            .hierarchy
            .iter()
            .enumerate()
            .flat_map(|(i, h)| (0..h.levels().len()).map(move |lvl| (i, lvl)))
            .filter_map(|(i, lvl)| {
                Sampler::new(format!("{name}/hier{i}.L{}", lvl + 1), interval).map(|s| (i, lvl, s))
            })
            .collect();
    }

    /// Feeds the next chunk of the stream to every simulator.
    pub fn feed(&mut self, chunk: &[Access]) {
        for cache in &mut self.plain {
            cache.run_slice(chunk);
        }
        for cache in &mut self.classified {
            cache.run_slice(chunk);
        }
        for cache in &mut self.victim {
            cache.run_slice(chunk);
        }
        for h in &mut self.hierarchy {
            h.run_slice(chunk);
        }
        for r in &mut self.reuse {
            r.run_slice(chunk);
        }
        for h in &mut self.heat {
            h.run_slice(chunk);
        }
        for (i, s) in &mut self.plain_samplers {
            s.tick(&self.plain[*i]);
        }
        for (i, s) in &mut self.classified_samplers {
            s.tick(self.classified[*i].main());
        }
        for (i, lvl, s) in &mut self.hierarchy_samplers {
            s.tick(&self.hierarchy[*i].levels()[*lvl]);
        }
    }

    /// Closes the stream and collects every simulator's results.
    pub fn finish(self) -> BatchResults {
        BatchResults {
            plain: self.plain.iter().map(|c| *c.stats()).collect(),
            classified: self.classified.iter().map(|c| c.stats()).collect(),
            victim: self.victim.iter().map(|c| *c.stats()).collect(),
            hierarchy: self.hierarchy.iter().map(Hierarchy::stats).collect(),
            reuse: self
                .reuse
                .into_iter()
                .map(ReuseSink::into_histogram)
                .collect(),
            heat: self.heat.iter().map(SetHeatTracker::report).collect(),
        }
    }

    /// The end-of-walk telemetry: a final sample from every sampler (so
    /// short walks still yield one data point each), one counter per
    /// reuse and heat sink, then the walk's `sim` throughput span.
    ///
    /// A `reuse` counter carries `accesses`, `distinct_lines`,
    /// `compactions`, `table` (`paged`/`hashed`) and `max_distance`, the
    /// bound of the histogram's top power-of-two bucket
    /// ([`ReuseHistogram::max_distance`]): `2^b − 1` when the largest
    /// distance lies in `[2^(b−1), 2^b)`.
    fn emit_walk_events(&self, name: &str, start_us: u64, accesses: u64, chunks: u64) {
        for (i, s) in &self.plain_samplers {
            s.sample(&self.plain[*i]);
        }
        for (i, s) in &self.classified_samplers {
            s.sample(self.classified[*i].main());
        }
        for (i, lvl, s) in &self.hierarchy_samplers {
            s.sample(&self.hierarchy[*i].levels()[*lvl]);
        }

        for (i, r) in self.reuse.iter().enumerate() {
            pad_telemetry::emit(|| {
                let h = r.histogram();
                let (compactions, hashed) = r.stack_counters();
                Event::counter(
                    "reuse",
                    format!("{name}/reuse{i}"),
                    vec![
                        ("accesses", Value::U64(h.accesses())),
                        ("distinct_lines", Value::U64(h.cold())),
                        ("max_distance", Value::U64(h.max_distance().unwrap_or(0))),
                        ("compactions", Value::U64(compactions)),
                        (
                            "table",
                            Value::Str(if hashed { "hashed" } else { "paged" }.into()),
                        ),
                    ],
                )
            });
        }

        for (i, h) in self.heat.iter().enumerate() {
            pad_telemetry::emit(|| {
                let report = h.report();
                let c = report.class_counts();
                Event::counter(
                    "heat",
                    format!("{name}/heat{i}"),
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

        let sinks = (self.plain.len()
            + self.classified.len()
            + self.victim.len()
            + self.hierarchy.len()
            + self.reuse.len()
            + self.heat.len()) as u64;
        pad_telemetry::emit(|| {
            let busy_us = pad_telemetry::now_us().saturating_sub(start_us).max(1);
            Event::span(
                start_us,
                "sim",
                name.to_string(),
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
}

/// Compiles `program` × `layout`, walks the trace once in
/// [`BATCH_CHUNK`]-sized chunks, and feeds every sink in the request.
///
/// Equivalent, sink for sink, to feeding the interpreted walk
/// ([`crate::for_each_access`]) into each simulator one access at a time
/// (the `batch` test module asserts this bit-for-bit against such a
/// reference). [`crate::simulate_program`], [`crate::simulate_classified`],
/// [`crate::simulate_victim`] and [`crate::simulate_hierarchy`] are
/// one-sink calls of this function.
///
/// With telemetry on, the walk also emits a `sim` throughput span and
/// periodic cache-counter samples (2^20 accesses apart in `events` mode,
/// checked at chunk boundaries); the sink updates are the same
/// either way, so statistics are bit-identical. Reuse sinks have no
/// `Cache` to sample; instead each emits one end-of-walk counter
/// (distinct lines, max distance, tick compactions). Heat sinks likewise
/// emit one end-of-walk counter with their class census. With metrics
/// on, the walked accesses add to `pad_sim_accesses_total`.
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
    if request.is_empty() {
        return BatchResults::default();
    }
    let trace = CompiledTrace::compile(program, layout);
    let mut sinks = Sinks::new(request);
    let instrumented = pad_telemetry::enabled();
    let mut start_us = 0;
    if instrumented {
        start_us = pad_telemetry::now_us();
        // Sampler setup — name `format!`s included — is skipped unless
        // sampling is on.
        let interval = pad_telemetry::sample_interval();
        if interval > 0 {
            sinks.sample_every(trace.name(), interval);
        }
    }

    // Accesses actually walked, tallied per chunk (one add per ~4K
    // accesses) so the accounting below never needs a second walk.
    let mut walked = 0u64;
    let mut chunks = 0u64;
    CHUNK_BUF.with(|buf| {
        trace.for_each_chunk(BATCH_CHUNK, &mut buf.borrow_mut(), |chunk| {
            walked += chunk.len() as u64;
            chunks += 1;
            sinks.feed(chunk);
        });
    });

    if instrumented {
        sinks.emit_walk_events(trace.name(), start_us, walked, chunks);
    }

    // Live-metrics accounting happens once per walk, after it: the
    // per-access hot loops above stay untouched in every mode. Trace
    // file replays feed `Sinks` directly and are not counted here.
    if walked > 0 && pad_telemetry::metrics_enabled() {
        use std::sync::OnceLock;
        static ACCESSES: OnceLock<std::sync::Arc<pad_telemetry::Counter>> = OnceLock::new();
        ACCESSES
            .get_or_init(|| pad_telemetry::registry().counter("pad_sim_accesses_total"))
            .add(walked);
    }

    sinks.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// The collector is process-global and the tests run on parallel
    /// threads, so the tests that install one hold this lock, walk a
    /// kernel no other test here walks (EXPL), and count only the events
    /// that carry its name: another test's concurrent walk reports into
    /// whatever collector is installed.
    static COLLECTOR: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Events of `events` in `category` named for `program` or one of
    /// its sinks.
    fn events_of<'e>(
        events: &'e [pad_telemetry::Event],
        category: &str,
        program: &pad_ir::Program,
    ) -> Vec<&'e pad_telemetry::Event> {
        let sink_prefix = format!("{}/", program.name());
        events
            .iter()
            .filter(|e| e.category == category)
            .filter(|e| e.name == program.name() || e.name.starts_with(&sink_prefix))
            .collect()
    }

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
        let _collector = COLLECTOR
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let program = pad_kernels::expl::spec(24);
        let layout = DataLayout::original(&program);
        let dm = CacheConfig::direct_mapped(1024, 32);
        let request = BatchRequest::new().with_heat(dm);

        let baseline = simulate_batch(&program, &layout, &request);
        let recorder = pad_telemetry::install_recorder(pad_telemetry::Mode::Events);
        let instrumented = simulate_batch(&program, &layout, &request);
        pad_telemetry::uninstall();

        assert_eq!(baseline.heat, instrumented.heat);
        let events = recorder.snapshot();
        let heat_counters = events_of(&events, "heat", &program);
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
        let sim_span = events_of(&events, "sim", &program)
            .into_iter()
            .next()
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
            &BatchRequest::new().with_reuse(32, 0).with_reuse(64, 0),
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
        let _collector = COLLECTOR
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let program = pad_kernels::expl::spec(24);
        let layout = DataLayout::original(&program);
        let dm = CacheConfig::direct_mapped(1024, 32);
        let l2 = CacheConfig::set_associative(8 * 1024, 64, 4);
        let request = BatchRequest::new()
            .with_plain(dm)
            .with_classified(dm)
            .with_victim(dm, 4)
            .with_hierarchy([dm, l2])
            .with_reuse(32, 0);

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
        let sim_spans = events_of(&events, "sim", &program);
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
        let cache_counters = events_of(&events, "cache", &program).len();
        assert_eq!(cache_counters, 4);
        // ...plus one end-of-walk reuse counter carrying the histogram
        // shape.
        let reuse_counters = events_of(&events, "reuse", &program);
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
    fn chunk_boundaries_do_not_change_results() {
        // Any split of the same stream feeds every sink kind to the same
        // results as one whole-stream chunk.
        use pad_cache_sim::XorShift64Star;

        let mut rng = XorShift64Star::new(3);
        let trace: Vec<Access> = (0..10_000)
            .map(|_| {
                let addr = rng.below(1 << 13);
                if rng.below(4) == 0 {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                }
            })
            .collect();
        let dm = CacheConfig::direct_mapped(1024, 32);
        let request = BatchRequest::new()
            .with_plain(dm)
            .with_classified(dm)
            .with_victim(dm, 8)
            .with_hierarchy([dm, CacheConfig::set_associative(4096, 64, 4)])
            .with_reuse(32, 0)
            .with_reuse(32, 2)
            .with_heat(CacheConfig::set_associative(1024, 32, 2));

        let mut whole = Sinks::new(&request);
        whole.feed(&trace);
        let whole = whole.finish();
        let mut split = Sinks::new(&request);
        for chunk in trace.chunks(997) {
            split.feed(chunk);
        }
        assert_eq!(whole, split.finish());
        assert_eq!(whole.plain[0].accesses, trace.len() as u64);
        assert_eq!(whole.reuse[1].accesses() >> 2, {
            let mut sampled = pad_cache_sim::SampledReuseAnalyzer::new(32, 2);
            sampled.run_slice(&trace);
            sampled.sampled_accesses()
        });
    }

    #[test]
    fn chunking_is_invisible() {
        // Walk compiled traces with pathological chunk sizes: the
        // concatenation must always equal the interpreted stream, and
        // every chunk but the last must be exactly `chunk` long (the
        // telemetry samplers tick once per chunk). Jacobi's innermost
        // loops carry 2 and 5 references, and at n = 40 it walks more
        // than two `BATCH_CHUNK`s; the second program mixes a
        // 3-reference innermost loop with references between loops and
        // at the top level. Both straddle chunk ends at the sizes below.
        use pad_ir::{ArrayBuilder, Loop, Stmt, Subscript};

        let mut b = pad_ir::Program::builder("mixed");
        let a = b.add_array(ArrayBuilder::new("A", [64]).elem_size(8));
        let c = b.add_array(ArrayBuilder::new("C", [64]).elem_size(4));
        let i = || Subscript::var("i");
        let j = || Subscript::var("j");
        b.push(Stmt::refs(vec![a.at([Subscript::constant(1)])]));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 61),
            vec![
                Stmt::refs(vec![c.at([i()]).write()]),
                Stmt::loop_(
                    Loop::new("j", 1, 3),
                    vec![Stmt::refs(vec![
                        a.at([j()]),
                        c.at([i()]),
                        a.at([Subscript::from_terms(
                            [
                                (pad_ir::IndexVar::new("i"), 1),
                                (pad_ir::IndexVar::new("j"), 1),
                            ],
                            0,
                        )])
                        .write(),
                    ])],
                ),
            ],
        ));
        let mixed = b.build().expect("valid");

        let jacobi = pad_kernels::jacobi::spec(40);
        let jacobi_len = crate::count_accesses(&jacobi, &DataLayout::original(&jacobi));
        assert!(jacobi_len > 2 * BATCH_CHUNK as u64);
        for program in [jacobi, mixed] {
            let layout = DataLayout::original(&program);
            let compiled = CompiledTrace::compile(&program, &layout);
            let mut plain = Vec::new();
            crate::for_each_access(&program, &layout, |a| plain.push(a));
            for chunk in [1usize, 2, 3, 7, 1024, BATCH_CHUNK, usize::MAX >> 32] {
                // A reused buffer may arrive holding stale accesses, and
                // longer than the chunk.
                let stale = vec![Access::write(u64::MAX); chunk.min(plain.len()) + 5];
                for mut buf in [Vec::new(), stale] {
                    let mut chunked = Vec::new();
                    let mut lens = Vec::new();
                    compiled.for_each_chunk(chunk, &mut buf, |c| {
                        chunked.extend_from_slice(c);
                        lens.push(c.len());
                    });
                    let name = program.name();
                    assert_eq!(plain, chunked, "{name} chunk={chunk}");
                    let (last, full) = lens.split_last().expect("a nonempty trace");
                    assert_eq!(
                        full.iter().position(|&n| n != chunk),
                        None,
                        "{name} chunk={chunk}: a short chunk before the last"
                    );
                    assert!((1..=chunk).contains(last), "{name} chunk={chunk}");
                }
            }
        }
    }
}
