//! Every sink of `Sinks` against a naive model of its own, over the whole
//! space of cache geometries `CacheConfig::try_new` accepts.
//!
//! Each case draws a geometry with `SplitMix64`: 1- to 64-byte lines,
//! direct-mapped through fully associative, LRU, FIFO and random
//! replacement, both write policies, modulo and XOR indexing. It builds
//! one stream of a kind the sinks find hard: a strided sweep, uniform
//! random addresses, a conflict set of W + 1 lines in one set, or
//! addresses at the top of `u64`. The stream is fed through one `Sinks`
//! holding a plain, a classifying, a victim-buffered, a hierarchy, a
//! reuse and a heat sink, in chunks cut at random boundaries, and the
//! finished `BatchResults` must equal the reference models'. Standalone
//! `Cache`, `ClassifyingCache` and `VictimCache` sinks also run the
//! stream one access at a time, and each access's outcome must equal the
//! reference's.
//!
//! The reference models are `BaselineCache`s plus explicit state, and
//! share no code with the sinks they check:
//! - a victim cache keeps a buffer of `(line, entry time)` pairs beside
//!   a `BaselineCache`. A main miss that finds its line there is served;
//!   the line leaves the buffer unless the miss was a write-through
//!   store, which allocates nothing in the main cache. A main eviction
//!   enters the buffer, displacing the entry that entered first.
//! - a hierarchy is a list of `BaselineCache`s, each level's misses and
//!   dirty evictions (as writes) passed down to the next.
//! - heat tallies come from `BaselineCache` outcomes and
//!   `CacheConfig::set_of`, classified on the documented ladder.
//! - a classifier is a `BaselineCache`, a fully-associative LRU list of
//!   equal capacity and a set of the lines seen.
//! - reuse distances come from a move-to-front stack,
//!   `pad_cache_sim::reference::NaiveStack`.

use std::collections::HashSet;

use pad_cache_sim::reference::NaiveStack;
use pad_cache_sim::{
    Access, BaselineCache, Cache, CacheConfig, ClassifiedStats, ClassifyingCache, HeatClass,
    IndexFunction, LevelStats, MissClass, ReplacementPolicy, SetHeatRow, SplitMix64, VictimCache,
    VictimStats, WritePolicy,
};
use pad_trace::{BatchRequest, Sinks};

/// Geometries drawn per stream kind.
const GEOMETRIES: u64 = 48;
/// Accesses per stream.
const STREAM_LEN: usize = 1200;

/// A geometry `try_new` accepts: ways of at least 4 bytes, at most 1024
/// lines, every policy and index function.
fn draw_config(rng: &mut SplitMix64) -> CacheConfig {
    loop {
        let line = 1u64 << rng.below(7);
        let ways = 1u32 << rng.below(6);
        // One set in four: fully associative.
        let sets = if rng.below(4) == 0 {
            1
        } else {
            1u64 << rng.below(6)
        };
        if line * sets < 4 {
            continue;
        }
        let replacement = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ][rng.below(3) as usize];
        let write_policy = if rng.below(2) == 0 {
            WritePolicy::WriteBackAllocate
        } else {
            WritePolicy::WriteThroughNoAllocate
        };
        let index = if rng.below(2) == 0 {
            IndexFunction::Modulo
        } else {
            IndexFunction::Xor
        };
        return CacheConfig::try_new(line * u64::from(ways) * sets, line, ways)
            .expect("ways of at least 4 bytes are a valid geometry")
            .with_replacement(replacement)
            .with_write_policy(write_policy)
            .with_index_function(index);
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Strided,
    Random,
    ConflictSet,
    TopOfU64,
}

/// One stream of `kind` shaped to `config`, a third of it stores.
fn stream(kind: Kind, config: &CacheConfig, rng: &mut SplitMix64) -> Vec<Access> {
    let size = config.size();
    let line = config.line_size();
    let mut addrs: Vec<u64> = Vec::with_capacity(STREAM_LEN);
    match kind {
        Kind::Strided => {
            // Repeated sweeps of a window, so lines come back.
            let stride = [
                1,
                4,
                8,
                line,
                size / u64::from(config.ways()),
                size,
                size + line,
            ][rng.below(7) as usize];
            let period = 1 + rng.below(4 * config.num_lines());
            let base = rng.below(1 << 40);
            for i in 0..STREAM_LEN as u64 {
                addrs.push(base.wrapping_add((i % period).wrapping_mul(stride)));
            }
        }
        Kind::Random => {
            let span = size * (1 + rng.below(8));
            let base = rng.below(1 << 40);
            for _ in 0..STREAM_LEN {
                addrs.push(base + rng.below(span));
            }
        }
        Kind::ConflictSet => {
            // W + 1 lines of one set (sometimes W + 2), at low tags or at
            // the highest ones, cycled with a random member now and then.
            let members = u64::from(config.ways()) + 1 + rng.below(2);
            let set = rng.below(config.num_sets());
            let top_tag = (u64::MAX / line) / config.num_sets();
            let first = if rng.below(2) == 0 {
                rng.below(1 << 20)
            } else {
                top_tag - members
            };
            let lines: Vec<u64> = (first..first + members)
                .map(|tag| config.line_addr_from(set, tag))
                .collect();
            for i in 0..STREAM_LEN {
                let member = if rng.below(4) == 0 {
                    rng.below(members) as usize
                } else {
                    i % members as usize
                };
                addrs.push(lines[member] + rng.below(line));
            }
        }
        Kind::TopOfU64 => {
            let span = (4 * size).max(64);
            for _ in 0..STREAM_LEN {
                addrs.push(u64::MAX - rng.below(span));
            }
        }
    }
    addrs
        .into_iter()
        .map(|addr| Access {
            addr,
            is_write: rng.below(3) == 0,
        })
        .collect()
}

/// A `BaselineCache` with a victim buffer of `(line, entry time)` pairs.
struct RefVictim {
    main: BaselineCache,
    buffer: Vec<(u64, u64)>,
    capacity: usize,
    clock: u64,
    stats: VictimStats,
}

impl RefVictim {
    fn new(config: CacheConfig, capacity: usize) -> Self {
        RefVictim {
            main: BaselineCache::new(config),
            buffer: Vec::new(),
            capacity,
            clock: 0,
            stats: VictimStats::default(),
        }
    }

    /// Whether the access was served without going to memory.
    fn access(&mut self, access: Access) -> bool {
        self.stats.accesses += 1;
        let outcome = self.main.access(access);
        if outcome.hit {
            self.stats.main_hits += 1;
            return true;
        }
        let config = *self.main.config();
        let line = config.line_addr(access.addr);
        let bypass =
            access.is_write && config.write_policy() == WritePolicy::WriteThroughNoAllocate;
        let buffered = self.buffer.iter().position(|&(l, _)| l == line);
        match buffered {
            Some(slot) => {
                self.stats.victim_hits += 1;
                if !bypass {
                    self.buffer.swap_remove(slot);
                }
            }
            None => self.stats.misses += 1,
        }
        if let Some(evicted) = outcome.evicted {
            if self.buffer.len() == self.capacity {
                let oldest = (0..self.buffer.len())
                    .min_by_key(|&slot| self.buffer[slot].1)
                    .expect("a full buffer has entries");
                self.buffer.swap_remove(oldest);
            }
            self.clock += 1;
            self.buffer.push((evicted, self.clock));
        }
        buffered.is_some()
    }
}

/// Runs `access` through `levels`, passing each miss and each dirty
/// eviction (as a write) to the next level.
fn hierarchy_access(levels: &mut [BaselineCache], access: Access) {
    let Some((level, below)) = levels.split_first_mut() else {
        return;
    };
    let outcome = level.access(access);
    if !outcome.hit {
        hierarchy_access(below, access);
    }
    if outcome.writeback {
        let victim = outcome.evicted.expect("a writeback evicts a line");
        hierarchy_access(below, Access::write(victim));
    }
}

/// Per-set tallies of a `BaselineCache`.
struct RefHeat {
    cache: BaselineCache,
    accesses: Vec<u64>,
    misses: Vec<u64>,
    evictions: Vec<u64>,
}

impl RefHeat {
    fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets() as usize;
        RefHeat {
            cache: BaselineCache::new(config),
            accesses: vec![0; sets],
            misses: vec![0; sets],
            evictions: vec![0; sets],
        }
    }

    fn access(&mut self, access: Access) {
        let set = self.cache.config().set_of(access.addr) as usize;
        let outcome = self.cache.access(access);
        self.accesses[set] += 1;
        self.misses[set] += u64::from(!outcome.hit);
        self.evictions[set] += u64::from(outcome.evicted.is_some());
    }

    /// The rows of the report, each set on the ladder: at least twice the
    /// mean eviction count is very hot, at least the mean hot, at least a
    /// quarter of it cold, and the rest (or every set when nothing was
    /// evicted) very cold.
    fn rows(&self) -> Vec<SetHeatRow> {
        let sets = self.evictions.len() as u128;
        let total = self.evictions.iter().sum::<u64>() as u128;
        (0..self.evictions.len())
            .map(|set| {
                let e = self.evictions[set] as u128;
                let class = if total == 0 {
                    HeatClass::VeryCold
                } else if e * sets >= 2 * total {
                    HeatClass::VeryHot
                } else if e * sets >= total {
                    HeatClass::Hot
                } else if 4 * e * sets >= total {
                    HeatClass::Cold
                } else {
                    HeatClass::VeryCold
                };
                SetHeatRow {
                    set: set as u64,
                    accesses: self.accesses[set],
                    misses: self.misses[set],
                    evictions: self.evictions[set],
                    class,
                }
            })
            .collect()
    }
}

/// Hill's three Cs from a `BaselineCache`, a fully-associative LRU list
/// of equal capacity (line ids, most recent first) and the lines seen.
struct RefClassifier {
    main: BaselineCache,
    lru: Vec<u64>,
    seen: HashSet<u64>,
    stats: ClassifiedStats,
}

impl RefClassifier {
    fn new(config: CacheConfig) -> Self {
        RefClassifier {
            main: BaselineCache::new(config),
            lru: Vec::new(),
            seen: HashSet::new(),
            stats: ClassifiedStats::default(),
        }
    }

    fn access(&mut self, access: Access) -> Option<MissClass> {
        let config = *self.main.config();
        let line = access.addr / config.line_size();
        let lru_hit = match self.lru.iter().position(|&l| l == line) {
            Some(depth) => {
                self.lru.remove(depth);
                true
            }
            None => false,
        };
        self.lru.insert(0, line);
        self.lru.truncate(config.num_lines() as usize);
        let first_touch = self.seen.insert(line);
        if self.main.access(access).hit {
            return None;
        }
        let class = if first_touch {
            self.stats.compulsory += 1;
            MissClass::Compulsory
        } else if !lru_hit {
            self.stats.capacity += 1;
            MissClass::Capacity
        } else {
            self.stats.conflict += 1;
            MissClass::Conflict
        };
        Some(class)
    }

    fn stats(&self) -> ClassifiedStats {
        ClassifiedStats {
            cache: *self.main.stats(),
            ..self.stats
        }
    }
}

/// One case: every sink on `config` (the hierarchy's first level) and
/// `lower` (its lower levels) over `stream`, against the references.
fn check_case(
    label: &str,
    config: CacheConfig,
    lower: &[CacheConfig],
    victim_lines: usize,
    stream: &[Access],
    rng: &mut SplitMix64,
) {
    let levels: Vec<CacheConfig> = std::iter::once(config)
        .chain(lower.iter().copied())
        .collect();
    let request = BatchRequest::new()
        .with_plain(config)
        .with_classified(config)
        .with_victim(config, victim_lines)
        .with_hierarchy(levels.iter().copied())
        .with_reuse(config.line_size(), 0)
        .with_heat(config);
    let mut sinks = Sinks::new(&request);
    let mut rest = stream;
    while !rest.is_empty() {
        let len = (rng.below(300) as usize).min(rest.len());
        let (chunk, tail) = rest.split_at(len);
        sinks.feed(chunk);
        rest = tail;
    }
    let results = sinks.finish();

    let mut plain = Cache::new(config);
    let mut classifier = ClassifyingCache::new(config);
    let mut victim = VictimCache::new(config, victim_lines);
    let mut ref_plain = BaselineCache::new(config);
    let mut ref_classifier = RefClassifier::new(config);
    let mut ref_victim = RefVictim::new(config, victim_lines);
    let mut ref_levels: Vec<BaselineCache> =
        levels.iter().map(|&c| BaselineCache::new(c)).collect();
    let mut ref_heat = RefHeat::new(config);
    for (n, &access) in stream.iter().enumerate() {
        assert_eq!(
            plain.access(access),
            ref_plain.access(access),
            "{label}: plain, access {n} ({access:?})"
        );
        assert_eq!(
            classifier.access(access),
            ref_classifier.access(access),
            "{label}: classifier, access {n} ({access:?})"
        );
        assert_eq!(
            victim.access(access),
            ref_victim.access(access),
            "{label}: victim, access {n} ({access:?})"
        );
        hierarchy_access(&mut ref_levels, access);
        ref_heat.access(access);
    }

    assert_eq!(results.plain, [*ref_plain.stats()], "{label}: plain stats");
    assert_eq!(
        results.classified,
        [ref_classifier.stats()],
        "{label}: classified stats"
    );
    assert_eq!(results.victim, [ref_victim.stats], "{label}: victim stats");
    let want: Vec<LevelStats> = ref_levels
        .iter()
        .enumerate()
        .map(|(level, cache)| LevelStats {
            level,
            stats: *cache.stats(),
        })
        .collect();
    assert_eq!(results.hierarchy, [want], "{label}: hierarchy stats");
    assert_eq!(
        results.reuse,
        [NaiveStack::histogram(stream, config.line_size())],
        "{label}: reuse histogram"
    );
    let report = &results.heat[0];
    let rows = ref_heat.rows();
    assert_eq!(report.rows(), &rows[..], "{label}: heat rows");
    let mut class_counts = [0u64; 4];
    for row in &rows {
        let rung = HeatClass::ALL.iter().position(|&c| c == row.class);
        class_counts[rung.expect("every class is on the ladder")] += 1;
    }
    assert_eq!(report.class_counts(), class_counts, "{label}: heat classes");
    assert_eq!(
        report.total_evictions(),
        rows.iter().map(|r| r.evictions).sum::<u64>(),
        "{label}: heat evictions"
    );
}

fn run_kind(kind: Kind, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for case in 0..GEOMETRIES {
        let config = draw_config(&mut rng);
        let lower: Vec<CacheConfig> = (0..1 + rng.below(2))
            .map(|_| draw_config(&mut rng))
            .collect();
        let victim_lines = 1 + rng.below(8) as usize;
        let stream = stream(kind, &config, &mut rng);
        let label = format!(
            "{kind:?} case {case}: {config:?}, lower {lower:?}, {victim_lines}-line buffer"
        );
        check_case(&label, config, &lower, victim_lines, &stream, &mut rng);
    }
}

#[test]
fn strided_streams_match_the_reference_models() {
    run_kind(Kind::Strided, 0x5151_0001);
}

#[test]
fn random_streams_match_the_reference_models() {
    run_kind(Kind::Random, 0x5151_0002);
}

#[test]
fn conflict_sets_match_the_reference_models() {
    run_kind(Kind::ConflictSet, 0x5151_0003);
}

#[test]
fn addresses_at_the_top_of_u64_match_the_reference_models() {
    run_kind(Kind::TopOfU64, 0x5151_0004);
}
