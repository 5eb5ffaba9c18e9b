//! Seeded inputs: the request lists of the two serve workloads and the
//! cell list of the figure sweep.
//!
//! Every list is a pure function of `(seed, count)`. Draws are stratified
//! (each kernel gets an equal share, and within a kernel the problem sizes
//! are a Latin-hypercube sample of its log-size band), so two seeds give
//! different requests with nearly the same total cost — the spread between
//! seeds then measures the system, not the luck of the draw.

use std::collections::HashSet;
use std::fmt::Write as _;

use pad_advisor::json::Json;
use pad_cache_sim::SplitMix64;
use pad_ir::{AccessKind, Program, Stmt};

/// Cache geometry as the wire protocol spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geo {
    /// Capacity in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity.
    pub ways: u32,
}

impl Geo {
    /// The simulator's configuration for this geometry.
    pub fn config(self) -> pad_cache_sim::CacheConfig {
        pad_cache_sim::CacheConfig::set_associative(self.size, self.line, self.ways)
    }
}

/// One advise request, before it is given an id and rendered as a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// A suite kernel by name.
    Kernel {
        kernel: &'static str,
        n: i64,
        cache: Geo,
        algorithm: &'static str,
        fast: bool,
    },
    /// The same nest sent as inline `program` text.
    Inline {
        kernel: &'static str,
        n: i64,
        cache: Geo,
        algorithm: &'static str,
    },
    /// A recorded trace file (index into the workload's trace list).
    Trace { file: usize, cache: Geo, sample: u32 },
    /// A global layout search.
    Search {
        kernel: &'static str,
        n: i64,
        cache: Geo,
        strategy: &'static str,
        budget: u64,
        seed: u64,
    },
}

/// A trace file recorded before timing: the original-layout access
/// stream of `kernel` at size `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// File name, relative to the server's working directory.
    pub name: String,
    /// Source kernel.
    pub kernel: &'static str,
    /// Problem size.
    pub n: i64,
    /// True for NDJSON, false for PTRC binary.
    pub ndjson: bool,
}

/// One request of a serve workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// What to ask.
    pub spec: Spec,
    /// Index of the earlier request this one repeats verbatim.
    pub repeat_of: Option<usize>,
    /// Answered by an earlier server process and replayed from its journal.
    pub journal: bool,
}

/// A serve workload's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// Requests in send order; a request's id is its index.
    pub reqs: Vec<Req>,
    /// Trace files the trace requests name.
    pub traces: Vec<TraceFile>,
}

/// The size band (in problem-size `n`) a kernel is drawn from.
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// Suite kernel name.
    pub kernel: &'static str,
    /// Smallest size.
    pub lo: i64,
    /// Largest size.
    pub hi: i64,
}

const fn band(kernel: &'static str, lo: i64, hi: i64) -> Band {
    Band { kernel, lo, hi }
}

/// Serve bands: one exact walk of the original layout is ~20K-400K
/// accesses at every size, so even the largest exact answer costs a
/// small fraction of the server's 2 s deadline.
pub const SERVE_BANDS: [Band; 13] = [
    band("JACOBI512", 56, 240),
    band("SHAL512", 24, 88),
    band("DOT256K", 10240, 32768),
    band("EXPL512", 25, 104),
    band("ADI512", 50, 208),
    band("CHOL256", 35, 90),
    band("DGEFA256", 29, 100),
    band("MULT300", 19, 68),
    band("RB512", 62, 258),
    band("SIMPLE", 25, 100),
    band("ERLE64", 13, 32),
    band("TOMCATV", 31, 130),
    band("IRR500K", 2525, 50000),
];

/// Kernels whose nests are also sent as inline program text.
pub const INLINE_KERNELS: [&str; 6] = ["JACOBI512", "DOT256K", "MULT300", "RB512", "ADI512", "CHOL256"];

/// Sweep bands: 1/2 to 1x the paper's sizes, 0.4-10 M accesses per walk
/// (stencils, linear algebra, a 3-D kernel). Few kernels with many
/// configurations each keep every kernel's share of the work steady.
pub const SWEEP_BANDS: [Band; 6] = [
    band("JACOBI512", 256, 512),
    band("EXPL512", 256, 512),
    band("SHAL512", 256, 456),
    band("DGEFA256", 128, 256),
    band("MULT300", 150, 300),
    band("ERLE64", 32, 64),
];

/// Looks up a suite kernel's spec builder by name.
pub fn spec_fn(kernel: &str) -> fn(i64) -> Program {
    pad_kernels::suite()
        .into_iter()
        .find(|k| k.name == kernel)
        .unwrap_or_else(|| panic!("`{kernel}` is not a suite kernel"))
        .spec
}

/// Builds `kernel` at size `n`.
pub fn program(kernel: &str, n: i64) -> Program {
    spec_fn(kernel)(n)
}

/// `m` draws in `[0, 1)`, one per equal-width stratum, in seeded order;
/// each lies within `jitter` (a fraction of the stratum's width) around
/// its stratum's centre (`jitter = 1` draws anywhere in the stratum).
fn stratified(rng: &mut SplitMix64, m: usize, jitter: f64) -> Vec<f64> {
    let mut slots: Vec<usize> = (0..m).collect();
    shuffle(rng, &mut slots);
    slots
        .into_iter()
        .map(|s| (s as f64 + 0.5 + jitter * (rng.unit_f64() - 0.5)) / m as f64)
        .collect()
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The size at fraction `u` of the band, log-spaced (so access counts,
/// which grow as a power of `n`, are log-uniform too).
fn size_at(b: &Band, u: f64) -> i64 {
    let n = (b.lo as f64) * (b.hi as f64 / b.lo as f64).powf(u);
    (n.round() as i64).clamp(b.lo, b.hi)
}

/// `(kernel index, u)` pairs: `count` draws spread evenly over `bands`,
/// each kernel's draws Latin-hypercube over `[0, u_max)`.
fn kernel_draws(rng: &mut SplitMix64, nbands: usize, count: usize, u_max: f64) -> Vec<(usize, f64)> {
    let mut order: Vec<usize> = (0..nbands).collect();
    shuffle(rng, &mut order);
    let mut per = vec![0usize; nbands];
    for i in 0..count {
        per[order[i % nbands]] += 1;
    }
    let mut draws = Vec::with_capacity(count);
    for (k, &m) in per.iter().enumerate() {
        for u in stratified(rng, m, 1.0) {
            draws.push((k, u * u_max));
        }
    }
    shuffle(rng, &mut draws);
    draws
}

/// Cycles through `choices` in a seeded order, so every choice is drawn
/// equally often.
fn balanced<T: Copy>(rng: &mut SplitMix64, choices: &[T], count: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut round = choices.to_vec();
        shuffle(rng, &mut round);
        out.extend(round);
    }
    out.truncate(count);
    out
}

fn grid(sizes: &[u64], ways: &[u32], line: u64) -> Vec<Geo> {
    let mut out = Vec::new();
    for &size in sizes {
        for &w in ways {
            out.push(Geo { size, line, ways: w });
        }
    }
    out
}

/// Picks a size near `n` in the band that is not yet used for this
/// (kernel, cache, algorithm), so only the planned repeats hit the store.
fn unique_size(
    used: &mut HashSet<(&'static str, i64, Geo, &'static str)>,
    b: &Band,
    n: i64,
    cache: Geo,
    algorithm: &'static str,
) -> i64 {
    for step in 0..=(b.hi - b.lo) {
        for cand in [n + step, n - step] {
            if (b.lo..=b.hi).contains(&cand) && used.insert((b.kernel, cand, cache, algorithm)) {
                return cand;
            }
        }
    }
    n
}

/// Salt separating the warm-up stream from the timed one.
pub const WARMUP_SALT: u64 = 0x5741_524d_5550;

/// The `advise-mix` request list: `count` requests of which ~10% are
/// `mode: fast`, ~10% inline program text, ~7.5% trace files, ~10%
/// verbatim repeats of earlier requests, and ~10% pre-answered in the
/// journal of an earlier server process. `line` is the cache line size
/// of every request (the warm-up stream uses a different one so its
/// answers never shadow the timed stream's). `full` adds the traces,
/// repeats and journal subset.
pub fn advise_mix(seed: u64, count: usize, line: u64, full: bool) -> ServeInputs {
    let mut rng = SplitMix64::new(seed ^ 0xAD71_5E00);
    let caches = grid(&[4096, 8192, 16384, 32768], &[1, 2, 4, 8], line);
    let mut used = HashSet::new();
    // Trace files: four recordings (two PTRC, two NDJSON) of kernels drawn
    // by seed, all at the same band fraction (~60K accesses), each replayed
    // by several requests.
    let mut kernels: Vec<usize> = (0..SERVE_BANDS.len()).collect();
    shuffle(&mut rng, &mut kernels);
    let traces: Vec<TraceFile> = (0..if full { 4 } else { 0 })
        .map(|i| {
            let ndjson = i % 2 == 1;
            let b = &SERVE_BANDS[kernels[i]];
            TraceFile {
                name: format!("trace-{i}.{}", if ndjson { "ndjson" } else { "ptrc" }),
                kernel: b.kernel,
                n: size_at(b, 0.35),
                ndjson,
            }
        })
        .collect();
    let (rng, used, caches) = (&mut rng, &mut used, &caches[..]);
    let share = |num: usize, den: usize| if full { count * num / den } else { 0 };
    let n_trace = share(3, 40);
    let n_repeat = share(1, 10);
    let n_journal = share(1, 10);
    let n_fast = count / 10;
    let n_inline = count / 10;
    let n_exact = count - n_trace - n_repeat - n_fast - n_inline;
    let mut base: Vec<Req> = Vec::with_capacity(count);

    let draws = kernel_draws(rng, SERVE_BANDS.len(), n_exact, 1.0);
    let geos = balanced(rng, caches, n_exact);
    let algs = balanced(rng, &["pad", "padlite"], n_exact);
    for (i, &(k, u)) in draws.iter().enumerate() {
        let b = &SERVE_BANDS[k];
        let n = unique_size(used, b, size_at(b, u), geos[i], algs[i]);
        base.push(Req {
            spec: Spec::Kernel { kernel: b.kernel, n, cache: geos[i], algorithm: algs[i], fast: false },
            repeat_of: None,
            journal: false,
        });
    }
    // The journal subset is a systematic sample of the exact requests in
    // size order, so the pre-answered share spans the cost range evenly.
    if n_journal > 0 {
        let mut by_size: Vec<usize> = (0..n_exact).collect();
        by_size.sort_by(|&a, &b| draws[a].1.total_cmp(&draws[b].1));
        let stride = n_exact as f64 / n_journal as f64;
        let start = rng.unit_f64() * stride;
        for j in 0..n_journal {
            base[by_size[(start + j as f64 * stride) as usize]].journal = true;
        }
    }

    let draws = kernel_draws(rng, SERVE_BANDS.len(), n_fast, 1.0);
    let geos = balanced(rng, caches, n_fast);
    let algs = balanced(rng, &["pad", "padlite"], n_fast);
    for (i, &(k, u)) in draws.iter().enumerate() {
        let b = &SERVE_BANDS[k];
        base.push(Req {
            spec: Spec::Kernel { kernel: b.kernel, n: size_at(b, u), cache: geos[i], algorithm: algs[i], fast: true },
            repeat_of: None,
            journal: false,
        });
    }

    let inline_bands: Vec<Band> = SERVE_BANDS
        .iter()
        .filter(|b| INLINE_KERNELS.contains(&b.kernel))
        .copied()
        .collect();
    let draws = kernel_draws(rng, inline_bands.len(), n_inline, 1.0);
    let geos = balanced(rng, caches, n_inline);
    let algs = balanced(rng, &["pad", "padlite"], n_inline);
    for (i, &(k, u)) in draws.iter().enumerate() {
        let b = &inline_bands[k];
        let n = unique_size(used, b, size_at(b, u), geos[i], algs[i]);
        base.push(Req {
            spec: Spec::Inline { kernel: b.kernel, n, cache: geos[i], algorithm: algs[i] },
            repeat_of: None,
            journal: false,
        });
    }

    let files = balanced(rng, &[0usize, 1, 2, 3], n_trace);
    let geos = balanced(rng, caches, n_trace);
    let samples = balanced(rng, &[0u32, 0, 2, 4], n_trace);
    for i in 0..n_trace {
        base.push(Req {
            spec: Spec::Trace { file: files[i], cache: geos[i], sample: samples[i] },
            repeat_of: None,
            journal: false,
        });
    }

    shuffle(rng, &mut base);

    // Each repeat goes at least `GAP` requests after its original, so the
    // original is answered (and stored) before the repeat is sent.
    const GAP: f64 = 50.0;
    let len = base.len() as f64;
    let mut exact: Vec<usize> = (0..base.len())
        .filter(|&i| matches!(base[i].spec, Spec::Kernel { fast: false, .. }) && !base[i].journal)
        .filter(|&o| o as f64 + GAP < len)
        .collect();
    shuffle(rng, &mut exact);
    let originals: Vec<usize> = exact.into_iter().take(n_repeat).collect();
    let mut keyed: Vec<(f64, Req)> = base.iter().cloned().enumerate().map(|(i, r)| (i as f64, r)).collect();
    for &o in &originals {
        let lo = o as f64 + GAP;
        let key = lo + rng.unit_f64() * (len - lo);
        keyed.push((key, Req { spec: base[o].spec.clone(), repeat_of: Some(o), journal: false }));
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Re-point repeats at their originals' final positions.
    let mut pos = vec![0usize; base.len()];
    for (j, (key, r)) in keyed.iter().enumerate() {
        if r.repeat_of.is_none() {
            pos[*key as usize] = j;
        }
    }
    let reqs = keyed
        .into_iter()
        .map(|(_, mut r)| {
            r.repeat_of = r.repeat_of.map(|o| pos[o]);
            r
        })
        .collect();
    ServeInputs { reqs, traces }
}

/// Search bands: the lower half (in log-accesses) of the serve bands,
/// for the kernels whose layout spaces are largest.
const SEARCH_KERNELS: [&str; 10] = [
    "JACOBI512", "SHAL512", "EXPL512", "ADI512", "DGEFA256", "MULT300", "RB512", "SIMPLE", "CHOL256",
    "TOMCATV",
];

/// The `search-exact` request list: beam and anneal searches with budgets
/// 150/300/600 and drawn seeds, on direct-mapped and 2-way caches of
/// 4-16 KiB.
pub fn search_exact(seed: u64, count: usize, line: u64) -> ServeInputs {
    let mut rng = SplitMix64::new(seed ^ 0x5EA2_C400);
    let bands: Vec<Band> = SERVE_BANDS
        .iter()
        .filter(|b| SEARCH_KERNELS.contains(&b.kernel))
        .copied()
        .collect();
    let caches = grid(&[4096, 8192, 16384], &[1, 2], line);
    let draws = kernel_draws(&mut rng, bands.len(), count, 0.5);
    let geos = balanced(&mut rng, &caches, count);
    let strategies = balanced(&mut rng, &["beam", "anneal"], count);
    let budgets = balanced(&mut rng, &[150u64, 300, 600], count);
    let reqs = draws
        .iter()
        .enumerate()
        .map(|(i, &(k, u))| Req {
            spec: Spec::Search {
                kernel: bands[k].kernel,
                n: size_at(&bands[k], u),
                cache: geos[i],
                strategy: strategies[i],
                budget: budgets[i],
                seed: rng.below(1_000_000_000),
            },
            repeat_of: None,
            journal: false,
        })
        .collect();
    ServeInputs { reqs, traces: Vec::new() }
}

fn cache_json(c: Geo) -> String {
    format!(r#"{{"size":{},"line":{},"ways":{}}}"#, c.size, c.line, c.ways)
}

impl Spec {
    /// The NDJSON request frame for this spec under `id`.
    pub fn frame(&self, id: u64, traces: &[TraceFile]) -> String {
        match self {
            Spec::Kernel { kernel, n, cache, algorithm, fast } => format!(
                r#"{{"id":{id},"op":"advise","kernel":"{kernel}","n":{n},"cache":{},"algorithm":"{algorithm}","mode":"{}"}}"#,
                cache_json(*cache),
                if *fast { "fast" } else { "auto" }
            ),
            Spec::Inline { kernel, n, cache, algorithm } => {
                let mut text = String::new();
                Json::Str(program_text(&program(kernel, *n))).write(&mut text);
                format!(
                    r#"{{"id":{id},"op":"advise","program":{text},"cache":{},"algorithm":"{algorithm}","mode":"auto"}}"#,
                    cache_json(*cache)
                )
            }
            Spec::Trace { file, cache, sample } => {
                let t = &traces[*file];
                format!(
                    r#"{{"id":{id},"op":"advise","trace":"{}","format":"{}","sample":{sample},"cache":{}}}"#,
                    t.name,
                    if t.ndjson { "ndjson" } else { "binary" },
                    cache_json(*cache)
                )
            }
            Spec::Search { kernel, n, cache, strategy, budget, seed } => format!(
                r#"{{"id":{id},"op":"advise","kernel":"{kernel}","n":{n},"cache":{},"algorithm":"search","strategy":"{strategy}","budget":{budget},"seed":{seed},"mode":"auto"}}"#,
                cache_json(*cache)
            ),
        }
    }
}

/// Renders a program in the `pad-ir` text syntax `pad_ir::parse` reads:
/// every write becomes an assignment whose right-hand side is the reads
/// before it, so the access stream is unchanged.
pub fn program_text(p: &Program) -> String {
    let mut s = format!("program {}\n", p.name());
    if let Some(lines) = p.source_lines() {
        let _ = writeln!(s, "lines {lines}");
    }
    for a in p.arrays() {
        let dims: Vec<String> = a
            .dims()
            .iter()
            .map(|d| if d.lower == 1 { d.size.to_string() } else { format!("{}:{}", d.lower, d.upper()) })
            .collect();
        let _ = write!(s, "array {}({})", a.name(), dims.join(", "));
        if a.elem_size() != 8 {
            let _ = write!(s, " elem {}", a.elem_size());
        }
        let safety = a.safety();
        for (on, word) in [
            (safety.passed_as_parameter, " param"),
            (safety.storage_associated, " assoc"),
            (safety.fixed_common_block, " common"),
        ] {
            if on {
                s.push_str(word);
            }
        }
        s.push('\n');
    }
    for stmt in p.body() {
        stmt_text(p, stmt, 0, &mut s);
    }
    s
}

fn stmt_text(p: &Program, stmt: &Stmt, depth: usize, s: &mut String) {
    let pad = "  ".repeat(depth);
    match stmt {
        Stmt::Loop { header, body } => {
            let _ = write!(s, "{pad}do {} = {}, {}", header.var(), header.lower(), header.upper());
            if header.step() != 1 {
                let _ = write!(s, ", {}", header.step());
            }
            s.push('\n');
            for inner in body {
                stmt_text(p, inner, depth + 1, s);
            }
            let _ = writeln!(s, "{pad}end");
        }
        Stmt::Refs(refs) => {
            let mut reads: Vec<String> = Vec::new();
            for r in refs {
                let subs: Vec<String> = r.subscripts().iter().map(ToString::to_string).collect();
                let text = format!("{}({})", p.array(r.array()).name(), subs.join(", "));
                if r.kind() == AccessKind::Write {
                    let rhs = if reads.is_empty() { "0".to_string() } else { reads.join(" + ") };
                    let _ = writeln!(s, "{pad}{text} = {rhs}");
                    reads.clear();
                } else {
                    reads.push(text);
                }
            }
            if !reads.is_empty() {
                let _ = writeln!(s, "{pad}t = {}", reads.join(" + "));
            }
        }
    }
}

/// One set of caches a sweep cell feeds from a single walk per layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSet {
    /// Figure 11-style size sweep: 2, 4, 8, 16 KiB direct-mapped.
    Sizes,
    /// Figure 9/10-style associativity sweep: 16 KiB, 1/2/4/8/16-way.
    Ways,
    /// Figure 8-style 3C classification on 16 KiB direct-mapped.
    Classified,
}

impl CacheSet {
    /// The caches of this set, 32-byte lines.
    pub fn geos(self) -> Vec<Geo> {
        match self {
            CacheSet::Sizes => grid(&[2048, 4096, 8192, 16384], &[1], 32),
            CacheSet::Ways => grid(&[16384], &[1, 2, 4, 8, 16], 32),
            CacheSet::Classified => grid(&[16384], &[1], 32),
        }
    }

    /// Label used in cell names.
    pub fn label(self) -> &'static str {
        match self {
            CacheSet::Sizes => "sizes",
            CacheSet::Ways => "ways",
            CacheSet::Classified => "3c",
        }
    }
}

/// One drawn sweep configuration; it yields an original, a PADLITE and
/// a PAD cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Suite kernel.
    pub kernel: &'static str,
    /// Problem size.
    pub n: i64,
    /// Caches every cell of this configuration simulates.
    pub set: CacheSet,
}

/// How far a sweep size may stray from its stratum's centre. Sweep cells
/// cost 0.4-10 M accesses each and a run holds ~200, so full-width draws
/// would move the run's total work (and its median cell) from seed to
/// seed; a fifth of a stratum keeps seeds distinct but their work close.
const SWEEP_JITTER: f64 = 0.2;

/// Cache sets of a kernel's configurations, in allocation order: of
/// every six, three size sweeps, two associativity sweeps, one 3C.
const SET_PATTERN: [CacheSet; 6] =
    [CacheSet::Sizes, CacheSet::Ways, CacheSet::Classified, CacheSet::Sizes, CacheSet::Ways, CacheSet::Sizes];

/// The `figure-sweep` configurations. Every kernel gets the same number
/// of configurations (±1) and the same mix of cache sets; the sizes of
/// one kernel's configurations of one set are a Latin-hypercube sample of
/// its band — 3C configurations of its lowest 10%, since classification
/// costs ~10x a plain pass and keeps a set of every line it has seen.
pub fn figure_sweep(seed: u64, count: usize) -> Vec<SweepConfig> {
    let mut rng = SplitMix64::new(seed ^ 0xF16_5EE9);
    let mut order: Vec<usize> = (0..SWEEP_BANDS.len()).collect();
    shuffle(&mut rng, &mut order);
    let mut configs = Vec::with_capacity(count);
    for (rank, &k) in order.iter().enumerate() {
        let b = &SWEEP_BANDS[k];
        let m = count / SWEEP_BANDS.len() + usize::from(rank < count % SWEEP_BANDS.len());
        for set in [CacheSet::Sizes, CacheSet::Ways, CacheSet::Classified] {
            let of_set = SET_PATTERN.iter().cycle().take(m).filter(|s| **s == set).count();
            let u_max = if set == CacheSet::Classified { 0.1 } else { 1.0 };
            for u in stratified(&mut rng, of_set, SWEEP_JITTER) {
                configs.push(SweepConfig { kernel: b.kernel, n: size_at(b, u * u_max), set });
            }
        }
    }
    shuffle(&mut rng, &mut configs);
    // Space the 3C configurations evenly through the sweep: each holds a
    // reuse stack over every line it touches, so two running side by side
    // would make the run's peak memory depend on scheduling.
    let (classified, plain): (Vec<SweepConfig>, Vec<SweepConfig>) =
        configs.into_iter().partition(|c| c.set == CacheSet::Classified);
    let stride = (classified.len() + plain.len()) / classified.len().max(1);
    let (mut classified, mut plain) = (classified.into_iter(), plain.into_iter());
    let mut spaced = Vec::with_capacity(count);
    for i in 0..count {
        let next = if i % stride == stride / 2 { classified.next().or_else(|| plain.next()) } else { plain.next().or_else(|| classified.next()) };
        spaced.extend(next);
    }
    spaced
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(inputs: &ServeInputs) -> Vec<String> {
        inputs
            .reqs
            .iter()
            .enumerate()
            .map(|(i, r)| r.spec.frame(i as u64, &inputs.traces))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_byte_for_byte() {
        assert_eq!(frames(&advise_mix(7, 400, 32, true)), frames(&advise_mix(7, 400, 32, true)));
        assert_eq!(advise_mix(7, 400, 32, true), advise_mix(7, 400, 32, true));
        assert_eq!(frames(&search_exact(7, 120, 32)), frames(&search_exact(7, 120, 32)));
        assert_eq!(figure_sweep(7, 60), figure_sweep(7, 60));
        assert_ne!(frames(&advise_mix(7, 400, 32, true)), frames(&advise_mix(8, 400, 32, true)));
        assert_ne!(figure_sweep(7, 60), figure_sweep(8, 60));
    }

    #[test]
    fn advise_mix_has_the_planned_shares() {
        let inputs = advise_mix(3, 400, 32, true);
        let reqs = &inputs.reqs;
        assert_eq!(reqs.len(), 400);
        let count = |f: &dyn Fn(&Req) -> bool| reqs.iter().filter(|r| f(r)).count();
        assert_eq!(count(&|r| r.repeat_of.is_some()), 40);
        assert_eq!(count(&|r| r.journal), 40);
        assert_eq!(count(&|r| matches!(r.spec, Spec::Trace { .. })), 30);
        assert_eq!(count(&|r| matches!(r.spec, Spec::Inline { .. })), 40);
        assert_eq!(count(&|r| matches!(r.spec, Spec::Kernel { fast: true, .. })), 40);
        for (i, r) in reqs.iter().enumerate() {
            if let Some(o) = r.repeat_of {
                assert!(i >= o + 50, "repeat {i} too close to original {o}");
                assert_eq!(reqs[o].spec, r.spec);
                assert!(reqs[o].repeat_of.is_none() && !reqs[o].journal);
            }
        }
    }

    #[test]
    fn inline_text_reparses_to_the_same_access_stream() {
        use pad_core::DataLayout;
        for kernel in INLINE_KERNELS {
            let b = SERVE_BANDS.iter().find(|b| b.kernel == kernel).expect("band");
            for n in [b.lo, b.hi] {
                let p = program(kernel, n);
                let q = pad_ir::parse(&program_text(&p)).unwrap_or_else(|e| panic!("{kernel} {n}: {e}"));
                let (lp, lq) = (DataLayout::original(&p), DataLayout::original(&q));
                let mut a = Vec::new();
                pad_trace::for_each_access(&p, &lp, |x| a.push(x));
                let mut b = Vec::new();
                pad_trace::for_each_access(&q, &lq, |x| b.push(x));
                assert!(a == b, "{kernel} {n}: access streams differ");
            }
        }
    }

    #[test]
    fn serve_bands_stay_within_the_exact_budget() {
        use pad_core::DataLayout;
        for b in SERVE_BANDS {
            for n in [b.lo, b.hi] {
                let p = program(b.kernel, n);
                let accesses = pad_trace::count_accesses(&p, &DataLayout::original(&p));
                assert!((15_000..=420_000).contains(&accesses), "{} n={n}: {accesses}", b.kernel);
            }
        }
    }
}
