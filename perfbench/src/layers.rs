//! Decomposed calls into the `trace`, `cache-sim` and `trace-ingest`
//! layers: one compiled walk (or one trace-file read) feeding a list of
//! sinks, with every sink's `run_slice` timed chunk by chunk.

use std::path::Path;

use pad_cache_sim::{
    Access, Cache, CacheConfig, ClassifyingCache, IndexFunction, ReuseAnalyzer, SampledReuseAnalyzer,
    SetHeatTracker, VictimCache,
};
use pad_core::DataLayout;
use pad_ir::Program;
use pad_trace::{CompiledTrace, BATCH_CHUNK};

use crate::spans::Recorder;

/// One simulator fed by a decomposed walk.
pub enum Sink {
    /// Plain set-associative cache.
    Plain(Cache),
    /// Three-C classifying cache.
    Classify(ClassifyingCache),
    /// Exact reuse-distance analyzer.
    Reuse(ReuseAnalyzer),
    /// Cache plus victim buffer.
    Victim(VictimCache),
    /// Per-set heat tracker.
    Heat(SetHeatTracker),
    /// SHARDS-sampled reuse analyzer.
    Shards(SampledReuseAnalyzer),
}

impl Sink {
    /// The span name this sink's calls are recorded under.
    pub fn name(&self) -> &'static str {
        match self {
            Sink::Plain(c) if c.config().index_function() == IndexFunction::Xor => "cache-sim.xor",
            Sink::Plain(c) => match c.config().ways() {
                1 => "cache-sim.dm",
                2 => "cache-sim.assoc2",
                4 => "cache-sim.assoc4",
                8 => "cache-sim.assoc8",
                16 => "cache-sim.assoc16",
                _ => "cache-sim.assoc",
            },
            Sink::Classify(_) => "cache-sim.classify",
            Sink::Reuse(_) => "cache-sim.reuse",
            Sink::Victim(_) => "cache-sim.victim",
            Sink::Heat(_) => "cache-sim.heat",
            Sink::Shards(_) => "cache-sim.shards",
        }
    }

    fn run_slice(&mut self, chunk: &[Access]) {
        match self {
            Sink::Plain(c) => c.run_slice(chunk),
            Sink::Classify(c) => c.run_slice(chunk),
            Sink::Reuse(r) => r.run_slice(chunk),
            Sink::Victim(v) => v.run_slice(chunk),
            Sink::Heat(h) => h.run_slice(chunk),
            Sink::Shards(s) => s.run_slice(chunk),
        }
    }

    /// Misses of a plain or classifying cache.
    pub fn misses(&self) -> u64 {
        match self {
            Sink::Plain(c) => c.stats().misses,
            Sink::Classify(c) => c.stats().cache.misses,
            _ => 0,
        }
    }
}

/// Per-sink accumulation across chunks.
struct Acc {
    first: u64,
    last: u64,
    busy: u64,
}

/// Feeds one chunk to every sink, timing each call.
fn feed(rec: &Recorder, sinks: &mut [Sink], acc: &mut [Acc], chunk: &[Access]) {
    for (sink, a) in sinks.iter_mut().zip(acc.iter_mut()) {
        let t0 = rec.now();
        sink.run_slice(chunk);
        let t1 = rec.now();
        a.first = a.first.min(t0);
        a.last = t1;
        a.busy += t1 - t0;
    }
}

fn new_acc(n: usize) -> Vec<Acc> {
    (0..n).map(|_| Acc { first: u64::MAX, last: 0, busy: 0 }).collect()
}

fn record_sinks(rec: &mut Recorder, parent: u32, sinks: &[Sink], acc: Vec<Acc>, items: u64) {
    for (sink, a) in sinks.iter().zip(acc) {
        let first = a.first.min(a.last);
        rec.aggregate(sink.name(), parent, first, a.last, a.busy, items);
    }
}

/// `CompiledTrace::compile` then `for_each_chunk` into `sinks`: spans
/// `trace.compile`, `trace.walk`, and one aggregated span per sink under
/// the walk. Returns the accesses walked.
pub fn walk(
    rec: &mut Recorder,
    parent: u32,
    program: &Program,
    layout: &DataLayout,
    sinks: &mut [Sink],
    buf: &mut Vec<Access>,
) -> u64 {
    let compiled = rec.time("trace.compile", parent, || CompiledTrace::compile(program, layout));
    let walk = rec.open("trace.walk", parent);
    let mut acc = new_acc(sinks.len());
    let mut items = 0u64;
    compiled.for_each_chunk(BATCH_CHUNK, buf, |chunk| {
        items += chunk.len() as u64;
        feed(rec, sinks, &mut acc, chunk);
    });
    rec.close(walk, items);
    record_sinks(rec, walk, sinks, acc, items);
    items
}

/// Lines of the victim buffer in the advisor's trace diagnosis.
pub const VICTIM_LINES: usize = 8;

/// The sinks `engine::advise_trace` feeds for `cache` at SHARDS rate
/// `2^-sample`: plain, XOR-indexed, victim-buffered, heat, reuse.
pub fn trace_sinks(cache: CacheConfig, sample: u32) -> Vec<Sink> {
    vec![
        Sink::Plain(Cache::new(cache)),
        Sink::Plain(Cache::new(cache.with_index_function(IndexFunction::Xor))),
        Sink::Victim(VictimCache::new(cache, VICTIM_LINES)),
        Sink::Heat(SetHeatTracker::new(cache)),
        Sink::Shards(SampledReuseAnalyzer::new(cache.line_size(), sample)),
    ]
}

/// Reads a trace file (`read_binary` / `read_ndjson`) and replays every
/// decoded chunk into `sinks`: span `trace-ingest.ptrc` or
/// `trace-ingest.ndjson` around the read, `trace-ingest.replay` (the
/// per-chunk feed, aggregated) under it, and one aggregated span per sink
/// under the replay. Returns the accesses decoded.
pub fn replay_file(
    rec: &mut Recorder,
    parent: u32,
    path: &Path,
    ndjson: bool,
    sinks: &mut [Sink],
) -> Result<u64, String> {
    let mut file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let read = rec.open(if ndjson { "trace-ingest.ndjson" } else { "trace-ingest.ptrc" }, parent);
    let mut acc = new_acc(sinks.len());
    let mut feed_acc = new_acc(1);
    let mut sink_fn = |chunk: &[Access]| {
        let t0 = rec.now();
        feed(rec, sinks, &mut acc, chunk);
        let t1 = rec.now();
        let f = &mut feed_acc[0];
        f.first = f.first.min(t0);
        f.last = t1;
        f.busy += t1 - t0;
    };
    let result = if ndjson {
        pad_trace_ingest::ndjson::read_ndjson(&mut std::io::BufReader::new(&mut file), &mut sink_fn)
    } else {
        pad_trace_ingest::binary::read_binary(&mut file, &mut sink_fn)
    };
    let items = result.map_err(|e| format!("{}: {e}", path.display()))?;
    rec.close(read, items);
    let f = feed_acc.pop().expect("one feed accumulator");
    let replay = rec.aggregate("trace-ingest.replay", read, f.first.min(f.last), f.last, f.busy, items);
    record_sinks(rec, replay, sinks, acc, items);
    Ok(items)
}
