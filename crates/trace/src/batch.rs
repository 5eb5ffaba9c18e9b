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
//!
//! A request is a list of sinks in call order. Each sink kind is one arm
//! of `Spec` (its configuration and memo key), `Sink` (the simulator)
//! and `Outcome` (what it measured): the compiler checks every `match`.

use pad_cache_sim::{
    Access, Cache, CacheConfig, CacheStats, ClassifiedStats, ClassifyingCache, Hierarchy,
    LevelStats, ReuseAnalyzer, ReuseHistogram, SampledReuseAnalyzer, Sampler, SetHeatReport,
    SetHeatTracker, VictimCache, VictimStats,
};
use pad_core::DataLayout;
use pad_ir::Program;
use pad_telemetry::{Event, Value};

use crate::compiled::CompiledTrace;
use crate::memo::WalkMemo;

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
    /// The sinks, in call order.
    pub(crate) specs: Vec<Spec>,
}

/// One sink of a [`BatchRequest`]: its kind and full configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Spec {
    Plain(CacheConfig),
    Classified(CacheConfig),
    /// A cache and its victim buffer's line count.
    Victim(CacheConfig, usize),
    /// Levels, L1 first.
    Hierarchy(Vec<CacheConfig>),
    /// A line size in bytes and a SHARDS sampling exponent.
    Reuse(u64, u32),
    Heat(CacheConfig),
}

impl Spec {
    /// False for a heat sink: its report grows with the set count, so
    /// the walk memo never holds it.
    pub(crate) fn memoized(&self) -> bool {
        match self {
            Spec::Heat(_) => false,
            Spec::Plain(_)
            | Spec::Classified(_)
            | Spec::Victim(..)
            | Spec::Hierarchy(_)
            | Spec::Reuse(..) => true,
        }
    }
}

impl BatchRequest {
    /// An empty request.
    pub fn new() -> Self {
        BatchRequest::default()
    }

    fn with(mut self, spec: Spec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds a plain cache simulation.
    #[must_use]
    pub fn with_plain(self, config: CacheConfig) -> Self {
        self.with(Spec::Plain(config))
    }

    /// Adds several plain cache simulations.
    #[must_use]
    pub fn with_plain_configs<I: IntoIterator<Item = CacheConfig>>(self, configs: I) -> Self {
        configs.into_iter().fold(self, BatchRequest::with_plain)
    }

    /// Adds a classified (three-C) simulation.
    #[must_use]
    pub fn with_classified(self, config: CacheConfig) -> Self {
        self.with(Spec::Classified(config))
    }

    /// Adds a simulation of `config` augmented with a `victim_lines`-line
    /// victim buffer.
    #[must_use]
    pub fn with_victim(self, config: CacheConfig, victim_lines: usize) -> Self {
        self.with(Spec::Victim(config, victim_lines))
    }

    /// Adds a multi-level hierarchy simulation (levels L1 first).
    #[must_use]
    pub fn with_hierarchy<I: IntoIterator<Item = CacheConfig>>(self, levels: I) -> Self {
        self.with(Spec::Hierarchy(levels.into_iter().collect()))
    }

    /// Adds a reuse-distance (stack-distance) analysis over lines of
    /// `line_size` bytes, sampled at rate `2^-sample_log2`. At 0 it runs
    /// the exact [`ReuseAnalyzer`]; above, a [`SampledReuseAnalyzer`].
    /// It yields a [`ReuseHistogram`]: the fully-associative LRU miss
    /// count for *every* capacity at once, estimated when sampled.
    #[must_use]
    pub fn with_reuse(self, line_size: u64, sample_log2: u32) -> Self {
        self.with(Spec::Reuse(line_size, sample_log2))
    }

    /// Adds a per-set heat classification of `config`. It yields a
    /// [`SetHeatReport`] naming which sets carry the conflict pressure —
    /// the evidence the XOR-indexing and victim-cache scenarios act on.
    #[must_use]
    pub fn with_heat(self, config: CacheConfig) -> Self {
        self.with(Spec::Heat(config))
    }

    /// True when no sink was requested.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// What a finished [`Sinks`] measured: each kind's results in the order
/// its sinks were requested.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchResults {
    /// Per-[`BatchRequest::with_plain`] statistics.
    pub plain: Vec<CacheStats>,
    /// Per-[`BatchRequest::with_classified`] statistics.
    pub classified: Vec<ClassifiedStats>,
    /// Per-[`BatchRequest::with_victim`] statistics.
    pub victim: Vec<VictimStats>,
    /// Per-[`BatchRequest::with_hierarchy`] level statistics.
    pub hierarchy: Vec<Vec<LevelStats>>,
    /// Per-[`BatchRequest::with_reuse`] histograms. A sampled histogram
    /// is rescaled: each sampled access counts `2^k`, so
    /// `accesses() >> k` is the number of sampled accesses.
    pub reuse: Vec<ReuseHistogram>,
    /// Per-[`BatchRequest::with_heat`] reports.
    pub heat: Vec<SetHeatReport>,
}

impl BatchResults {
    /// Files each sink's outcome, in request order, under its kind.
    pub(crate) fn from_outcomes(outcomes: impl IntoIterator<Item = Outcome>) -> Self {
        // Exact sizes: results outlive the walk, and `push` alone keeps
        // room for four (2 KiB for one reuse histogram).
        fn push<T>(results: &mut Vec<T>, result: T) {
            results.reserve_exact(1);
            results.push(result);
        }
        let mut results = BatchResults::default();
        for outcome in outcomes {
            match outcome {
                Outcome::Plain(stats) => push(&mut results.plain, stats),
                Outcome::Classified(stats) => push(&mut results.classified, stats),
                Outcome::Victim(stats) => push(&mut results.victim, stats),
                Outcome::Hierarchy(levels) => push(&mut results.hierarchy, levels),
                Outcome::Reuse(hist) => push(&mut results.reuse, *hist),
                Outcome::Heat(report) => push(&mut results.heat, report),
            }
        }
        results
    }
}

/// What one sink measured.
pub(crate) enum Outcome {
    Plain(CacheStats),
    Classified(ClassifiedStats),
    Victim(VictimStats),
    Hierarchy(Vec<LevelStats>),
    /// Boxed: its buckets would make every outcome half a kilobyte.
    Reuse(Box<ReuseHistogram>),
    Heat(SetHeatReport),
}

/// One live simulator.
enum Sink {
    Plain(Cache),
    Classified(ClassifyingCache),
    Victim(VictimCache),
    Hierarchy(Hierarchy),
    Reuse(ReuseAnalyzer),
    SampledReuse(SampledReuseAnalyzer),
    Heat(SetHeatTracker),
}

impl Sink {
    fn new(spec: &Spec) -> Self {
        match *spec {
            Spec::Plain(c) => Sink::Plain(Cache::new(c)),
            Spec::Classified(c) => Sink::Classified(ClassifyingCache::new(c)),
            Spec::Victim(c, lines) => Sink::Victim(VictimCache::new(c, lines)),
            Spec::Hierarchy(ref levels) => Sink::Hierarchy(Hierarchy::new(levels.clone())),
            Spec::Reuse(line, 0) => Sink::Reuse(ReuseAnalyzer::new(line)),
            Spec::Reuse(line, k) => Sink::SampledReuse(SampledReuseAnalyzer::new(line, k)),
            Spec::Heat(c) => Sink::Heat(SetHeatTracker::new(c)),
        }
    }

    fn feed(&mut self, chunk: &[Access]) {
        match self {
            Sink::Plain(c) => c.run_slice(chunk),
            Sink::Classified(c) => c.run_slice(chunk),
            Sink::Victim(c) => c.run_slice(chunk),
            Sink::Hierarchy(h) => h.run_slice(chunk),
            Sink::Reuse(r) => r.run_slice(chunk),
            Sink::SampledReuse(r) => r.run_slice(chunk),
            Sink::Heat(h) => h.run_slice(chunk),
        }
    }

    /// What the sink has measured. By reference: collecting outcomes
    /// from the sinks by value would reuse and shrink the sinks' larger
    /// allocation, leaving holes in the heap the walk memo fills.
    fn finish(&self) -> Outcome {
        match self {
            Sink::Plain(c) => Outcome::Plain(*c.stats()),
            Sink::Classified(c) => Outcome::Classified(c.stats()),
            Sink::Victim(c) => Outcome::Victim(*c.stats()),
            Sink::Hierarchy(h) => Outcome::Hierarchy(h.stats()),
            Sink::Reuse(r) => Outcome::Reuse(Box::new(r.histogram().clone())),
            Sink::SampledReuse(r) => Outcome::Reuse(Box::new(r.histogram().clone())),
            Sink::Heat(h) => Outcome::Heat(h.report()),
        }
    }

    /// The kind's word in telemetry names: `{trace}/{label}{k}` names
    /// the `k`-th sink with this label.
    fn label(&self) -> &'static str {
        match self {
            Sink::Plain(_) => "plain",
            Sink::Classified(_) => "classified",
            Sink::Victim(_) => "victim",
            Sink::Hierarchy(_) => "hier",
            Sink::Reuse(_) | Sink::SampledReuse(_) => "reuse",
            Sink::Heat(_) => "heat",
        }
    }

    /// The caches a counter sampler may watch. A victim-buffered sink
    /// does not expose its main cache.
    fn caches(&self) -> &[Cache] {
        match self {
            Sink::Plain(c) => std::slice::from_ref(c),
            Sink::Classified(c) => std::slice::from_ref(c.main()),
            Sink::Hierarchy(h) => h.levels(),
            Sink::Victim(_) | Sink::Reuse(_) | Sink::SampledReuse(_) | Sink::Heat(_) => &[],
        }
    }

    /// The names of the samplers on [`Sink::caches`], given the sink's
    /// own: a hierarchy names its levels, `.L1` on.
    fn sampler_names(&self, name: &str) -> Vec<String> {
        match self {
            Sink::Plain(_) | Sink::Classified(_) => vec![name.to_string()],
            Sink::Hierarchy(h) => (1..=h.depth()).map(|l| format!("{name}.L{l}")).collect(),
            Sink::Victim(_) | Sink::Reuse(_) | Sink::SampledReuse(_) | Sink::Heat(_) => Vec::new(),
        }
    }

    /// The end-of-walk counter of a reuse or heat sink, named `name`
    /// (see [`Sinks::emit_walk_events`]).
    fn counter(&self, name: &str) -> Option<Event> {
        let reuse = |h: &ReuseHistogram, compactions: u64, hashed: bool| {
            let table = if hashed { "hashed" } else { "paged" };
            let args = vec![
                ("accesses", Value::U64(h.accesses())),
                ("distinct_lines", Value::U64(h.cold())),
                ("max_distance", Value::U64(h.max_distance().unwrap_or(0))),
                ("compactions", Value::U64(compactions)),
                ("table", Value::Str(table.into())),
            ];
            Some(Event::counter("reuse", name.to_string(), args))
        };
        match self {
            Sink::Reuse(r) => reuse(r.histogram(), r.compactions(), r.is_hashed()),
            Sink::SampledReuse(r) => reuse(r.histogram(), r.compactions(), r.is_hashed()),
            Sink::Heat(h) => {
                let report = h.report();
                let c = report.class_counts();
                let args = vec![
                    ("very_hot_sets", Value::U64(c[0])),
                    ("hot_sets", Value::U64(c[1])),
                    ("cold_sets", Value::U64(c[2])),
                    ("very_cold_sets", Value::U64(c[3])),
                    ("evictions", Value::U64(report.total_evictions())),
                ];
                Some(Event::counter("heat", name.to_string(), args))
            }
            Sink::Plain(_) | Sink::Classified(_) | Sink::Victim(_) | Sink::Hierarchy(_) => None,
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
    sinks: Vec<Sink>,
    // Cache-counter samplers, each with the sink and the level of the
    // cache it watches. Empty unless `simulate_batch` turned sampling
    // on, so the per-chunk sampler loop iterates zero times otherwise.
    samplers: Vec<(usize, usize, Sampler)>,
}

impl Sinks {
    /// Instantiates every simulator `request` names.
    pub fn new(request: &BatchRequest) -> Self {
        Sinks {
            sinks: request.specs.iter().map(Sink::new).collect(),
            samplers: Vec::new(),
        }
    }

    /// Each sink's telemetry name on `trace`: `{trace}/{label}{k}` for
    /// the `k`-th sink with its label, in request order.
    fn names(&self, trace: &str) -> Vec<String> {
        let labels: Vec<_> = self.sinks.iter().map(Sink::label).collect();
        let k = |i: usize| labels[..i].iter().filter(|&&l| l == labels[i]).count();
        (0..labels.len())
            .map(|i| format!("{trace}/{}{}", labels[i], k(i)))
            .collect()
    }

    /// Attaches a cache-counter sampler to every cache a sink exposes.
    fn sample_every(&mut self, trace: &str, interval: u64) {
        let names = self.names(trace);
        self.samplers = (self.sinks.iter().zip(names).enumerate())
            .flat_map(|(i, (sink, name))| {
                let levels = sink.sampler_names(&name).into_iter().enumerate();
                levels
                    .filter_map(move |(level, n)| Sampler::new(n, interval).map(|s| (i, level, s)))
            })
            .collect();
    }

    /// Feeds the next chunk of the stream to every simulator.
    pub fn feed(&mut self, chunk: &[Access]) {
        for sink in &mut self.sinks {
            sink.feed(chunk);
        }
        for (i, level, s) in &mut self.samplers {
            s.tick(&self.sinks[*i].caches()[*level]);
        }
    }

    /// Closes the stream and collects every simulator's results.
    pub fn finish(self) -> BatchResults {
        BatchResults::from_outcomes(self.sinks.iter().map(Sink::finish))
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
    fn emit_walk_events(&self, trace: &str, start_us: u64, accesses: u64, chunks: u64) {
        for (i, level, s) in &self.samplers {
            s.sample(&self.sinks[*i].caches()[*level]);
        }
        for (sink, name) in self.sinks.iter().zip(self.names(trace)) {
            if let Some(event) = sink.counter(&name) {
                pad_telemetry::emit(|| event);
            }
        }

        pad_telemetry::emit(|| {
            let busy_us = pad_telemetry::now_us().saturating_sub(start_us).max(1);
            Event::span(
                start_us,
                "sim",
                trace.to_string(),
                vec![
                    ("accesses", Value::U64(accesses)),
                    ("chunks", Value::U64(chunks)),
                    ("sinks", Value::U64(self.sinks.len() as u64)),
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
/// Under an installed [`WalkMemo`] ([`WalkMemo::run`]) every sink but a
/// heat sink is looked up first by (compiled stream, sink
/// configuration): the walk feeds only the sinks the memo lacks, and a
/// request it holds entirely is answered without walking, so with no
/// `sim` span and nothing added to `pad_sim_accesses_total`. Results are
/// the same either way.
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
    if request.is_empty() {
        return BatchResults::default();
    }
    let trace = CompiledTrace::compile(program, layout);
    match WalkMemo::installed() {
        Some(memo) => memo.simulate(&trace, request),
        None => BatchResults::from_outcomes(walk(&trace, request)),
    }
}

/// Walks `trace` once in [`BATCH_CHUNK`]-sized chunks, feeding every sink
/// in `request`, with the telemetry [`simulate_batch`] documents. The
/// outcomes come in request order.
pub(crate) fn walk(trace: &CompiledTrace, request: &BatchRequest) -> Vec<Outcome> {
    thread_local! {
        // One persistent chunk buffer per thread: sweep workers call
        // `simulate_batch` per cell, and reusing the allocation keeps
        // the chunk's backing store hot in cache across walks instead
        // of paying an allocator round-trip per call. Sinks never call
        // back into `simulate_batch`, so the borrow cannot be re-entered.
        static CHUNK_BUF: std::cell::RefCell<Vec<Access>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
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

    sinks.sinks.iter().map(Sink::finish).collect()
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
    fn interleaved_kinds_keep_request_order() {
        let _collector = COLLECTOR
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let program = pad_kernels::expl::spec(24);
        let layout = DataLayout::original(&program);
        let dm = CacheConfig::direct_mapped(1024, 32);
        let two_way = CacheConfig::set_associative(2048, 32, 2);
        let l2 = CacheConfig::set_associative(8 * 1024, 64, 4);
        let request = BatchRequest::new()
            .with_heat(dm)
            .with_plain(dm)
            .with_reuse(32, 0)
            .with_plain(two_way)
            .with_classified(dm)
            .with_hierarchy([dm, l2])
            .with_victim(dm, 4)
            .with_reuse(64, 2);
        let results = simulate_batch(&program, &layout, &request);

        // Each kind's results are a request of that kind alone, in call
        // order.
        let alone = |request: BatchRequest| simulate_batch(&program, &layout, &request);
        let plain = alone(BatchRequest::new().with_plain(dm).with_plain(two_way));
        assert_eq!(results.plain, plain.plain);
        let classified = alone(BatchRequest::new().with_classified(dm));
        assert_eq!(results.classified, classified.classified);
        let hierarchy = alone(BatchRequest::new().with_hierarchy([dm, l2]));
        assert_eq!(results.hierarchy, hierarchy.hierarchy);
        let victim = alone(BatchRequest::new().with_victim(dm, 4));
        assert_eq!(results.victim, victim.victim);
        let reuse = alone(BatchRequest::new().with_reuse(32, 0).with_reuse(64, 2));
        assert_eq!(results.reuse, reuse.reuse);
        assert_eq!(results.heat, alone(BatchRequest::new().with_heat(dm)).heat);

        // Under a memo, a second identical call hits every sink but the
        // heat sink, and walks once, for it.
        let memo = std::sync::Arc::new(WalkMemo::new());
        let cold = memo.run(|| simulate_batch(&program, &layout, &request));
        let before = memo.stats();
        let warm = memo.run(|| simulate_batch(&program, &layout, &request));
        let after = memo.stats();
        assert_eq!(cold, results);
        assert_eq!(warm, results);
        assert_eq!(
            (
                after.hits - before.hits,
                after.misses - before.misses,
                after.walks - before.walks
            ),
            (7, 0, 1)
        );

        // The end-of-walk events name each sink by its kind and its place
        // among the sinks of that kind.
        let recorder = pad_telemetry::install_recorder(pad_telemetry::Mode::Events);
        let instrumented = simulate_batch(&program, &layout, &request);
        pad_telemetry::uninstall();
        assert_eq!(instrumented, results);
        let events = recorder.snapshot();
        let mut names: Vec<String> = ["cache", "reuse", "heat"]
            .iter()
            .flat_map(|category| events_of(&events, category, &program))
            .map(|e| e.name.clone())
            .collect();
        names.sort();
        let mut expected = [
            "plain0",
            "plain1",
            "classified0",
            "hier0.L1",
            "hier0.L2",
            "reuse0",
            "reuse1",
            "heat0",
        ]
        .map(|sink| format!("{}/{sink}", program.name()));
        expected.sort();
        assert_eq!(names, expected);
        let sim = events_of(&events, "sim", &program);
        assert_eq!(sim.len(), 1);
        assert_eq!(sim[0].arg("sinks").and_then(Value::as_u64), Some(8));
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
