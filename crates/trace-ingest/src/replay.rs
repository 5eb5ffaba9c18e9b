//! Replaying an ingested trace through the cache simulator.
//!
//! A [`Replayer`] is a bundle of live analysis sinks — plain caches,
//! victim-cache scenarios, per-set heat trackers, and one exact or
//! SHARDS-sampled reuse analyzer — fed chunk by chunk from the streaming
//! readers. Every sink consumes each chunk in order, so one pass over
//! the file answers every configured question; memory is the sinks'
//! state plus one chunk buffer, never the trace.
//!
//! The plain-cache path uses the same [`Cache::run_slice`] kernels the
//! kernel-based batch engine uses, which is what makes the
//! record-then-replay differential tests meaningful: a trace recorded
//! from a built-in kernel replays to bit-identical miss counts.

use pad_cache_sim::{
    Access, Cache, CacheConfig, CacheStats, ReuseHistogram, SampledReuseAnalyzer, SetHeatReport,
    SetHeatTracker, VictimCache, VictimStats,
};

/// What a replay should measure. Build with the `with_*` methods; an
/// empty request still counts records (useful as a format check).
#[derive(Debug, Clone, Default)]
pub struct ReplayRequest {
    plain: Vec<CacheConfig>,
    victim: Vec<(CacheConfig, usize)>,
    heat: Vec<CacheConfig>,
    reuse: Option<(u64, u32)>,
}

impl ReplayRequest {
    /// An empty request.
    pub fn new() -> Self {
        ReplayRequest::default()
    }

    /// Adds a plain cache simulation (any geometry, XOR-indexed
    /// included).
    pub fn with_plain(mut self, config: CacheConfig) -> Self {
        self.plain.push(config);
        self
    }

    /// Adds a victim-cache scenario: `config` backed by a
    /// `victim_lines`-entry fully-associative victim buffer.
    pub fn with_victim(mut self, config: CacheConfig, victim_lines: usize) -> Self {
        self.victim.push((config, victim_lines));
        self
    }

    /// Adds a per-set heat classification of `config`.
    pub fn with_heat(mut self, config: CacheConfig) -> Self {
        self.heat.push(config);
        self
    }

    /// Adds reuse-distance analysis at `line_size`, sampled at rate
    /// `2^-sample_log2` (0 = exact).
    pub fn with_reuse(mut self, line_size: u64, sample_log2: u32) -> Self {
        self.reuse = Some((line_size, sample_log2));
        self
    }

    /// True if no sink was configured.
    pub fn is_empty(&self) -> bool {
        self.plain.is_empty()
            && self.victim.is_empty()
            && self.heat.is_empty()
            && self.reuse.is_none()
    }

    /// Number of configured sinks.
    pub fn sinks(&self) -> usize {
        self.plain.len() + self.victim.len() + self.heat.len() + usize::from(self.reuse.is_some())
    }
}

/// Reuse-distance results of a replay.
#[derive(Debug, Clone)]
pub struct ReuseOutcome {
    /// The (rescaled, if sampled) distance histogram.
    pub histogram: ReuseHistogram,
    /// The sampling exponent the analysis ran with (0 = exact).
    pub sample_log2: u32,
    /// Accesses that entered the sampled sub-stream.
    pub sampled_accesses: u64,
}

/// Everything a finished replay measured.
#[derive(Debug, Clone)]
pub struct ReplayResults {
    /// Records replayed.
    pub accesses: u64,
    /// Statistics per [`ReplayRequest::with_plain`] entry, in order.
    pub plain: Vec<CacheStats>,
    /// Statistics per [`ReplayRequest::with_victim`] entry, in order.
    pub victim: Vec<VictimStats>,
    /// Reports per [`ReplayRequest::with_heat`] entry, in order.
    pub heat: Vec<SetHeatReport>,
    /// Reuse-distance outcome, if requested.
    pub reuse: Option<ReuseOutcome>,
}

/// The live sinks of an in-progress replay.
pub struct Replayer {
    plain: Vec<Cache>,
    victim: Vec<VictimCache>,
    heat: Vec<SetHeatTracker>,
    reuse: Option<SampledReuseAnalyzer>,
    accesses: u64,
    start_us: u64,
}

impl Replayer {
    /// Instantiates the sinks of `request`.
    pub fn new(request: &ReplayRequest) -> Self {
        Replayer {
            plain: request.plain.iter().map(|c| Cache::new(*c)).collect(),
            victim: request
                .victim
                .iter()
                .map(|(c, lines)| VictimCache::new(*c, *lines))
                .collect(),
            heat: request
                .heat
                .iter()
                .map(|c| SetHeatTracker::new(*c))
                .collect(),
            reuse: request
                .reuse
                .map(|(line, k)| SampledReuseAnalyzer::new(line, k)),
            accesses: 0,
            start_us: pad_telemetry::now_us(),
        }
    }

    /// Feeds one decoded chunk to every sink. Chunk boundaries are
    /// invisible to the results — any split of the same trace produces
    /// identical outcomes.
    pub fn feed(&mut self, chunk: &[Access]) {
        self.accesses += chunk.len() as u64;
        if pad_telemetry::metrics_enabled() {
            crate::metrics::ingest_metrics()
                .records
                .add(chunk.len() as u64);
        }
        for cache in &mut self.plain {
            cache.run_slice(chunk);
        }
        for victim in &mut self.victim {
            victim.run_slice(chunk);
        }
        for heat in &mut self.heat {
            heat.run_slice(chunk);
        }
        if let Some(reuse) = &mut self.reuse {
            reuse.run_slice(chunk);
        }
    }

    /// Records replayed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Closes the replay, recording its metrics and collecting results.
    pub fn finish(self) -> ReplayResults {
        if pad_telemetry::metrics_enabled() {
            let m = crate::metrics::ingest_metrics();
            let elapsed = pad_telemetry::now_us().saturating_sub(self.start_us);
            m.replays.inc();
            m.replay_us.record(elapsed);
            if elapsed > 0 {
                let rate = (self.accesses as f64 * 1e6 / elapsed as f64) as i64;
                m.replay_records_per_sec.set(rate);
            }
        }
        ReplayResults {
            accesses: self.accesses,
            plain: self.plain.iter().map(|c| *c.stats()).collect(),
            victim: self.victim.iter().map(|v| *v.stats()).collect(),
            heat: self.heat.iter().map(|h| h.report()).collect(),
            reuse: self.reuse.map(|r| ReuseOutcome {
                sample_log2: r.sample_log2(),
                sampled_accesses: r.sampled_accesses(),
                histogram: r.into_histogram(),
            }),
        }
    }
}

/// One-call replay of an in-memory trace (tests, small traces).
pub fn replay_slice(trace: &[Access], request: &ReplayRequest) -> ReplayResults {
    let mut replayer = Replayer::new(request);
    replayer.feed(trace);
    replayer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_cache_sim::XorShift64Star;

    fn trace(n: usize) -> Vec<Access> {
        let mut rng = XorShift64Star::new(3);
        (0..n)
            .map(|_| {
                let addr = rng.below(1 << 13);
                if rng.below(4) == 0 {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                }
            })
            .collect()
    }

    #[test]
    fn chunk_boundaries_do_not_change_results() {
        let t = trace(10_000);
        let request = ReplayRequest::new()
            .with_plain(CacheConfig::try_new(1024, 32, 1).unwrap())
            .with_victim(CacheConfig::try_new(1024, 32, 1).unwrap(), 8)
            .with_heat(CacheConfig::try_new(1024, 32, 2).unwrap())
            .with_reuse(32, 0);
        assert_eq!(request.sinks(), 4);

        let whole = replay_slice(&t, &request);
        let mut split = Replayer::new(&request);
        for chunk in t.chunks(997) {
            split.feed(chunk);
        }
        let split = split.finish();

        assert_eq!(whole.accesses, split.accesses);
        assert_eq!(whole.plain, split.plain);
        assert_eq!(whole.victim, split.victim);
        assert_eq!(whole.heat, split.heat);
        assert_eq!(
            whole.reuse.as_ref().unwrap().histogram,
            split.reuse.as_ref().unwrap().histogram
        );
    }

    #[test]
    fn plain_replay_matches_direct_cache_run() {
        let t = trace(5000);
        let cfg = CacheConfig::try_new(2048, 32, 4).unwrap();
        let mut direct = Cache::new(cfg);
        direct.run_slice(&t);
        let results = replay_slice(&t, &ReplayRequest::new().with_plain(cfg));
        assert_eq!(&results.plain[0], direct.stats());
    }

    #[test]
    fn empty_request_counts_records() {
        let results = replay_slice(&trace(123), &ReplayRequest::new());
        assert!(ReplayRequest::new().is_empty());
        assert_eq!(results.accesses, 123);
        assert!(results.plain.is_empty() && results.heat.is_empty());
    }
}
