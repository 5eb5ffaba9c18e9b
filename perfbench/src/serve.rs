//! The two serve workloads: a spawned `padtool serve` driven over one
//! stdin/stdout pipe by a closed loop with two requests in flight, then
//! (traced runs only) the same requests replayed in-process, first through
//! the advisor's public calls and then decomposed into the layers below.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pad_advisor::json::{self, Json};
use pad_advisor::{engine, parse_request, AdviseRequest, Algorithm, Mode, Op, Source, Store};
use pad_cache_sim::{BaselineCache, Cache, CacheConfig, ReuseAnalyzer, SplitMix64};
use pad_core::{DataLayout, PaddingPipeline};
use pad_ir::{Dim, Program};
use pad_trace::padding_config_for;

use crate::gen::{self, Req, ServeInputs, Spec};
use crate::layers::{self, Sink};
use crate::profile::{self, Extras};
use crate::spans::{self, Recorder, Span, ROOT};
use crate::stats::{median, percentile, Fnv, Metric};
use crate::{Ctx, Outcome, Workload};

/// Requests per second of `--seconds` each workload is sized for (two
/// in flight on a 2-core host), so a run's fixed request list takes about
/// `--seconds` to serve.
fn requests_per_second(w: Workload) -> u64 {
    match w {
        Workload::AdviseMix => 90,
        _ => 50,
    }
}

/// Requests in flight: the server's default worker count.
const IN_FLIGHT: usize = 2;
/// Spawns timed for `setup_s`: half before the timed phase (the last of
/// those serves the run), the rest after it.
const SETUP_SPAWNS: usize = 15;
/// Exact answers re-simulated by the reference oracle per run.
const ORACLE_SAMPLE: usize = 6;
/// Id offset of the warm-up and journal-priming streams.
const SIDE_IDS: u64 = 1 << 40;

/// A spawned `padtool serve`.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `padtool serve` in `cwd` with every tuning knob at its
    /// default, optionally persisting answers to `store`.
    fn spawn(padtool: &Path, cwd: &Path, store: Option<&str>) -> Result<Server, String> {
        let mut cmd = Command::new(padtool);
        cmd.arg("serve").current_dir(cwd).stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::null());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("RIVERA_") {
                cmd.env_remove(key);
            }
        }
        if let Some(store) = store {
            cmd.env(pad_advisor::STORE_ENV, store);
        }
        let mut child = cmd.spawn().map_err(|e| format!("cannot spawn {}: {e}", padtool.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Server { child, stdin, stdout })
    }

    fn send(&mut self, frame: &str) -> Result<(), String> {
        let mut line = String::with_capacity(frame.len() + 1);
        line.push_str(frame);
        line.push('\n');
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        stdin.write_all(line.as_bytes()).map_err(|e| format!("server stdin: {e}"))
    }

    /// The next answer line, `None` at EOF.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => {
                line.truncate(line.trim_end().len());
                Some(line)
            }
        }
    }

    /// Sends a control op and returns its answer (nothing else is in flight).
    fn control(&mut self, op: &str) -> Result<String, String> {
        self.send(&format!(r#"{{"id":"{op}","op":"{op}"}}"#))?;
        self.recv().ok_or_else(|| format!("server closed before answering `{op}`"))
    }

    /// Peak resident set of the server so far, MB.
    fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the server to drain and exit, and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        let bye = self.control("shutdown");
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("waiting for server: {e}"))?;
        bye?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on error paths (shutdown consumes the server after
        // waiting): never leave a child behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One answered request: the raw answer line and its round trip.
struct Answer {
    line: String,
    ms: f64,
}

/// The request id an answer line echoes (`{"id":<n>,...`).
fn answer_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Sends `frames` (ids `base..`) keeping `IN_FLIGHT` outstanding; each
/// answer's round trip runs from its send to the read of its line.
fn closed_loop(server: &mut Server, frames: &[String], base: u64) -> Result<Vec<Option<Answer>>, String> {
    let n = frames.len();
    let mut sent = vec![None::<Instant>; n];
    let mut answers: Vec<Option<Answer>> = (0..n).map(|_| None).collect();
    let mut next = 0;
    while next < n.min(IN_FLIGHT) {
        sent[next] = Some(Instant::now());
        server.send(&frames[next])?;
        next += 1;
    }
    let mut done = 0;
    while done < n {
        let Some(line) = server.recv() else { break };
        let now = Instant::now();
        let slot = answer_id(&line).and_then(|id| id.checked_sub(base)).map(|i| i as usize);
        let Some(i) = slot.filter(|&i| i < n && answers[i].is_none()) else {
            return Err(format!("unexpected answer line: {}", &line[..line.len().min(200)]));
        };
        let ms = now.duration_since(sent[i].expect("answered requests were sent")).as_secs_f64() * 1e3;
        answers[i] = Some(Answer { line, ms });
        done += 1;
        if next < n {
            sent[next] = Some(Instant::now());
            server.send(&frames[next])?;
            next += 1;
        }
    }
    Ok(answers)
}

/// The `result` body of an ok answer, byte for byte as the server wrote it.
fn raw_body(line: &str) -> Option<&str> {
    let at = line.find(",\"result\":")?;
    line.get(at + 10..line.len().checked_sub(1)?)
}

fn frames(inputs: &ServeInputs, reqs: &[Req], base: u64) -> Vec<String> {
    reqs.iter().enumerate().map(|(i, r)| r.spec.frame(base + i as u64, &inputs.traces)).collect()
}

/// Records every trace file the inputs name into `work`.
fn record_traces(inputs: &ServeInputs, work: &Path) -> Result<(), String> {
    for t in &inputs.traces {
        let program = gen::program(t.kernel, t.n);
        let compiled = pad_trace::CompiledTrace::compile(&program, &DataLayout::original(&program));
        let mut trace = Vec::new();
        compiled.for_each(|a| trace.push(a));
        let path = work.join(&t.name);
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
        let written = if t.ndjson {
            pad_trace_ingest::ndjson::write_ndjson(&mut out, &trace).map_err(|e| e.to_string())
        } else {
            pad_trace_ingest::binary::write_binary(&mut out, &trace).map_err(|e| e.to_string())
        };
        written.and_then(|()| out.flush().map_err(|e| e.to_string()))?;
    }
    Ok(())
}

/// Journal the primed subset is recorded into, and its pristine copy.
const JOURNAL: &str = "answers.journal";
const JOURNAL_PRIMED: &str = "answers.primed";

/// Has an earlier server process answer the journal subset, so the timed
/// server replays those answers from disk at start.
fn prime_journal(ctx: &Ctx, inputs: &ServeInputs) -> Result<(), String> {
    let primed: Vec<Req> = inputs.reqs.iter().filter(|r| r.journal).cloned().collect();
    let mut server = Server::spawn(ctx.padtool, ctx.work, Some(JOURNAL))?;
    let answers = closed_loop(&mut server, &frames(inputs, &primed, SIDE_IDS), SIDE_IDS)?;
    server.shutdown()?;
    if answers.iter().any(|a| a.as_ref().is_none_or(|a| !a.line.contains("\"status\":\"ok\""))) {
        return Err("priming the answer journal failed".into());
    }
    std::fs::copy(ctx.work.join(JOURNAL), ctx.work.join(JOURNAL_PRIMED)).map_err(|e| e.to_string())?;
    Ok(())
}

/// Spawn-to-first-ping times (ms) of `count` servers; returns them and
/// the last server, still running.
fn timed_spawns(ctx: &Ctx, store: Option<&str>, count: usize) -> Result<(Vec<f64>, Server), String> {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for i in 0..count {
        let t0 = Instant::now();
        let mut server = Server::spawn(ctx.padtool, ctx.work, store)?;
        let pong = server.control("ping")?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        if !pong.contains("\"pong\":true") {
            return Err(format!("bad ping answer: {pong}"));
        }
        if i + 1 == count {
            last = Some(server);
        } else {
            server.shutdown()?;
        }
    }
    Ok((times, last.expect("count >= 1")))
}

/// Runs a serve workload: untimed preparation, timed set-up, warm-up,
/// the timed closed loop, output checks, and — when `traced` — the
/// in-process replays for the per-layer profile.
pub fn run(ctx: &Ctx, w: Workload, traced: bool) -> Result<Outcome, String> {
    let count = (ctx.seconds * requests_per_second(w)) as usize;
    let (inputs, warm) = match w {
        Workload::AdviseMix => (
            gen::advise_mix(ctx.seed, count, 32, true),
            gen::advise_mix(ctx.seed ^ gen::WARMUP_SALT, (count / 20).max(20), 64, false),
        ),
        _ => (
            gen::search_exact(ctx.seed, count, 32),
            gen::search_exact(ctx.seed ^ gen::WARMUP_SALT, (count / 20).max(10), 64),
        ),
    };

    // Preparation (not timed): trace recordings and the primed journal.
    record_traces(&inputs, ctx.work)?;
    let store = (w == Workload::AdviseMix).then_some(JOURNAL);
    if store.is_some() {
        prime_journal(ctx, &inputs)?;
    }

    // Set-up: spawn until the first ping is answered (store replay
    // included), sampled before and after the timed phase so that no one
    // moment's host load sets it.
    let (mut setup_ms, mut server) = timed_spawns(ctx, store, SETUP_SPAWNS / 2)?;

    closed_loop(&mut server, &frames(&warm, &warm.reqs, SIDE_IDS), SIDE_IDS)?;

    let t0 = Instant::now();
    let answers = closed_loop(&mut server, &frames(&inputs, &inputs.reqs, 0), 0)?;
    let wall = t0.elapsed().as_secs_f64();

    let stats = json::parse(&server.control("stats")?).map_err(|e| e.to_string())?;
    let rss = server.peak_rss_mb();
    server.shutdown()?;
    // The timed server appended to its journal; later spawns replay a
    // pristine copy of the primed one.
    if store.is_some() {
        std::fs::copy(ctx.work.join(JOURNAL_PRIMED), ctx.work.join(JOURNAL)).map_err(|e| e.to_string())?;
    }
    let (late_ms, last) = timed_spawns(ctx, store, SETUP_SPAWNS - SETUP_SPAWNS / 2)?;
    last.shutdown()?;
    setup_ms.extend(late_ms);

    let mut out = Outcome::new(count);
    let checked = check(ctx, w, &inputs, &answers, &mut out);

    let latencies: Vec<f64> = answers.iter().flatten().map(|a| a.ms).collect();
    let n = latencies.len();
    out.e2e = vec![
        Metric::sampled("setup_s", median(&setup_ms) / 1e3, "s", setup_ms.len()),
        Metric::sampled("wall_s", wall, "s", count),
        Metric::sampled("p50_ms", percentile(&latencies, 0.5).unwrap_or(f64::NAN), "ms", n),
        Metric::sampled("p95_ms", percentile(&latencies, 0.95).unwrap_or(f64::NAN), "ms", n),
        Metric::exact("peak_rss_mb", rss, "MB"),
        Metric::exact("padded_miss_ratio", checked.padded_miss_ratio, "ratio"),
    ];
    if let Some(p99) = percentile(&latencies, 0.99) {
        out.notes.push(format!("p99_ms = {p99:.3} ms (n={n})"));
    }
    let hits = stats.get("stats").and_then(|s| s.get("cache_hits")).and_then(Json::as_i64).unwrap_or(0);
    let requests = stats.get("stats").and_then(|s| s.get("requests")).and_then(Json::as_i64).unwrap_or(0);
    out.notes.push(format!("digest {} · server stats: {requests} advise requests, {hits} store hits", checked.digest));

    if traced && out.problems.is_empty() {
        let hit_frac = hits as f64 / (count as f64);
        trace_run(ctx, w, &inputs, &answers, &checked, hit_frac, &mut out)?;
    }
    Ok(out)
}

/// What the output checks learned about the answers.
struct Checked {
    digest: String,
    padded_miss_ratio: f64,
}

/// A parsed exact answer's claims.
struct Claim {
    original: (u64, u64),
    padded: (u64, u64),
    arrays: Vec<(u64, Vec<i64>)>,
    best_exact: Option<u64>,
}

fn claim(result: &Json) -> Option<Claim> {
    let pair = |key: &str| -> Option<(u64, u64)> {
        let s = result.get(key)?;
        Some((s.get("accesses")?.as_u64()?, s.get("misses")?.as_u64()?))
    };
    let Json::Arr(items) = result.get("arrays")? else { return None };
    let arrays = items
        .iter()
        .map(|a| {
            let Json::Arr(dims) = a.get("dims")? else { return None };
            Some((a.get("base")?.as_u64()?, dims.iter().map(Json::as_i64).collect::<Option<Vec<_>>>()?))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Claim {
        original: pair("original")?,
        padded: pair("padded")?,
        arrays,
        best_exact: result.get("search").and_then(|s| s.get("best_exact_misses")).and_then(Json::as_u64),
    })
}

/// The program a spec names, built in-process.
fn spec_program(spec: &Spec) -> Option<Program> {
    match spec {
        Spec::Kernel { kernel, n, .. } | Spec::Search { kernel, n, .. } => Some(gen::program(kernel, *n)),
        Spec::Inline { kernel, n, .. } => pad_ir::parse(&gen::program_text(&gen::program(kernel, *n))).ok(),
        Spec::Trace { .. } => None,
    }
}

fn spec_cache(spec: &Spec) -> CacheConfig {
    match spec {
        Spec::Kernel { cache, .. } | Spec::Inline { cache, .. } | Spec::Trace { cache, .. } | Spec::Search { cache, .. } => {
            cache.config()
        }
    }
}

/// The layout an answer claims, rebuilt from its `arrays` section.
fn claimed_layout(program: &Program, arrays: &[(u64, Vec<i64>)]) -> Option<DataLayout> {
    if arrays.len() != program.arrays().len() {
        return None;
    }
    let dims = program
        .arrays()
        .iter()
        .zip(arrays)
        .map(|(spec, (_, sizes))| {
            (spec.rank() == sizes.len()).then(|| {
                spec.dims().iter().zip(sizes).map(|(d, &s)| Dim::with_lower(s.max(1), d.lower)).collect()
            })
        })
        .collect::<Option<Vec<Vec<Dim>>>>()?;
    let mut layout = DataLayout::with_dims(program, dims);
    for ((id, _), (base, _)) in program.arrays_with_ids().zip(arrays) {
        layout.set_base_addr(id, *base);
    }
    Some(layout)
}

/// The reference oracle: the original interpreter driving the baseline
/// cache model. Returns `(accesses, misses)`.
pub fn oracle(program: &Program, layout: &DataLayout, cache: &CacheConfig) -> (u64, u64) {
    let mut reference = BaselineCache::new(*cache);
    pad_trace::for_each_access(program, layout, |a| {
        reference.access(a);
    });
    (reference.stats().accesses, reference.stats().misses)
}

fn same_layout(a: &DataLayout, b: &DataLayout, program: &Program) -> bool {
    program
        .arrays_with_ids()
        .all(|(id, _)| a.base_addr(id) == b.base_addr(id) && a.dims(id) == b.dims(id))
}

/// Output checks, outside the timed phase. Problems land in
/// `out.problems`; failed or missing answers in `out.failed`.
fn check(ctx: &Ctx, w: Workload, inputs: &ServeInputs, answers: &[Option<Answer>], out: &mut Outcome) -> Checked {
    let reqs = &inputs.reqs;
    let mut bodies: Vec<Option<String>> = vec![None; reqs.len()];
    let mut claims: Vec<Option<Claim>> = (0..reqs.len()).map(|_| None).collect();
    let mut ratios = Vec::new();
    for (i, answer) in answers.iter().enumerate() {
        let Some(answer) = answer else {
            out.failed += 1;
            out.problem(format!("request {i}: no answer"));
            continue;
        };
        let parsed = json::parse(&answer.line).ok();
        let ok = parsed.as_ref().and_then(|p| p.get("status")).and_then(Json::as_str) == Some("ok");
        let degraded = parsed.as_ref().and_then(|p| p.get("degraded")).and_then(Json::as_bool) != Some(false);
        let body = raw_body(&answer.line);
        if !ok || degraded || body.is_none() {
            out.failed += 1;
            out.problem(format!("request {i}: not an exact ok answer: {}", &answer.line[..answer.line.len().min(300)]));
            continue;
        }
        bodies[i] = body.map(str::to_string);
        let result = parsed.as_ref().and_then(|p| p.get("result"));
        if let Some(c) = result.and_then(claim) {
            if c.original.1 > 0 {
                ratios.push(c.padded.1 as f64 / c.original.1 as f64);
            }
            claims[i] = Some(c);
        }
    }

    for (i, r) in reqs.iter().enumerate() {
        if let Some(o) = r.repeat_of {
            if bodies[i].is_some() && bodies[o].is_some() && bodies[i] != bodies[o] {
                out.problem(format!("request {i} repeats {o} but its answer differs"));
            }
        }
        let exact = matches!(r.spec, Spec::Kernel { fast: false, .. } | Spec::Inline { .. } | Spec::Search { .. });
        if exact && bodies[i].is_some() && claims[i].is_none() {
            out.problem(format!("request {i}: exact answer lacks miss counts or arrays"));
        }
    }

    // Reference oracle on a seeded sample of exact answers.
    let mut rng = SplitMix64::new(ctx.seed ^ 0x0AC1E);
    let candidates: Vec<usize> = (0..reqs.len()).filter(|&i| claims[i].is_some()).collect();
    for _ in 0..ORACLE_SAMPLE.min(candidates.len()) {
        let i = candidates[rng.below(candidates.len() as u64) as usize];
        if let Err(e) = oracle_check(&reqs[i].spec, claims[i].as_ref().expect("candidate")) {
            out.problem(format!("request {i}: {e}"));
        }
    }

    // Search never does worse than PAD.
    if w == Workload::SearchExact {
        for (i, r) in reqs.iter().enumerate() {
            let (Some(c), Some(program)) = (claims[i].as_ref(), spec_program(&r.spec)) else { continue };
            let cache = spec_cache(&r.spec);
            let pad = PaddingPipeline::pad(padding_config_for(&cache)).run(&program).layout;
            let pad_misses = pad_bench::harness::exact_misses(&program, &pad, &cache);
            match c.best_exact {
                Some(best) if best <= pad_misses && best == c.padded.1 => {}
                other => out.problem(format!(
                    "request {i}: best_exact_misses {other:?} vs PAD {pad_misses}, padded {}",
                    c.padded.1
                )),
            }
        }
    }

    let digest = body_digest(bodies.iter().map(Option::as_deref));
    if let Err(e) = crate::remember_digest(ctx, w, &digest) {
        out.problem(e);
    }
    Checked {
        digest,
        padded_miss_ratio: crate::stats::mean(&ratios),
    }
}

/// Digest of answer bodies in request-id order (`-` for a missing one).
fn body_digest<'a>(bodies: impl Iterator<Item = Option<&'a str>>) -> String {
    let mut fnv = Fnv::default();
    for (i, body) in bodies.enumerate() {
        fnv.eat(format!("{i}\n").as_bytes());
        fnv.eat(body.unwrap_or("-").as_bytes());
        fnv.eat(b"\n");
    }
    fnv.hex()
}

/// Re-simulates an exact answer's original and claimed layouts with the
/// reference oracle; for PAD/PADLITE the claimed layout must also be the
/// one the pipeline computes in-process.
fn oracle_check(spec: &Spec, c: &Claim) -> Result<(), String> {
    let program = spec_program(spec).ok_or("cannot rebuild the program")?;
    let cache = spec_cache(spec);
    let layout = claimed_layout(&program, &c.arrays).ok_or("answer's arrays do not fit the program")?;
    if let Spec::Kernel { algorithm, .. } | Spec::Inline { algorithm, .. } = spec {
        let config = padding_config_for(&cache);
        let pipeline = if *algorithm == "pad" { PaddingPipeline::pad(config) } else { PaddingPipeline::padlite(config) };
        if !same_layout(&pipeline.run(&program).layout, &layout, &program) {
            return Err(format!("claimed layout differs from in-process {algorithm}"));
        }
    }
    let original = oracle(&program, &DataLayout::original(&program), &cache);
    let padded = oracle(&program, &layout, &cache);
    if original != c.original || padded != c.padded {
        return Err(format!(
            "oracle (accesses, misses) original {original:?} padded {padded:?}; answer claims {:?} {:?}",
            c.original, c.padded
        ));
    }
    Ok(())
}

/// Per-request results of the in-process advisor pass.
struct PassA {
    spans: Vec<Vec<Span>>,
    bodies: Vec<String>,
    hit: Vec<bool>,
    /// In-process time per request, ms.
    ms: Vec<f64>,
    wall: f64,
    replay_ms: Vec<f64>,
}

/// Runs `f(i, thread)` for every request index on `IN_FLIGHT` threads,
/// claiming requests in order, like the closed loop's two in flight.
fn parallel(count: usize, f: impl Fn(usize, u32) + Sync) -> f64 {
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..IN_FLIGHT {
            let (cursor, f) = (&cursor, &f);
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                f(i, t as u32);
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

fn parse_advise(frame: &str) -> Option<AdviseRequest> {
    let parsed = parse_request(&json::parse(frame).ok()?).ok()?;
    match parsed.op {
        Op::Advise(a) => Some(a),
        _ => None,
    }
}

/// The server's first two steps as spans: `json::parse` + `parse_request`,
/// then `engine::resolve` (with `pad_ir::parse` as its child for inline
/// text). Trace sources resolve to no program.
fn frame_and_resolve(rec: &mut Recorder, frame: &str) -> Option<(AdviseRequest, Option<Program>)> {
    let request = rec.time("advisor.frame", ROOT, || parse_advise(frame))?;
    let program = match &request.source {
        Source::Trace { .. } => None,
        Source::Text(text) => {
            let resolve = rec.open("advisor.resolve", ROOT);
            let program = rec.time("ir.parse", resolve, || pad_ir::parse(text)).ok()?;
            rec.close(resolve, 0);
            Some(program)
        }
        source => Some(rec.time("advisor.resolve", ROOT, || engine::resolve(source)).ok()?),
    };
    Some((request, program))
}

/// The server's path in-process: frame parse, resolve, store, engine,
/// serialize — each a span — against a store replayed from the primed
/// journal, with live metrics on as `serve` has them.
fn pass_a(ctx: &Ctx, inputs: &ServeInputs, origin: Instant) -> Result<PassA, String> {
    let primed = ctx.work.join(JOURNAL_PRIMED);
    let mut replay_ms = Vec::new();
    let mut store = Store::in_memory();
    if primed.exists() {
        for k in 0..5 {
            let path = ctx.work.join(format!("pass-a-{k}.journal"));
            std::fs::copy(&primed, &path).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            store = Store::open(&path).map_err(|e| e.to_string())?;
            replay_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let frames = frames(inputs, &inputs.reqs, 0);
    let n = frames.len();
    // Per request: its spans, its answer body, and whether the store answered.
    type Replayed = (Vec<Span>, String, bool);
    let results: Mutex<Vec<Option<Replayed>>> = Mutex::new(vec![None; n]);
    pad_telemetry::set_metrics_enabled(true);
    let wall = parallel(n, |i, thread| {
        let mut rec = Recorder::new(origin, i as u32, thread);
        let out = advisor_calls(&mut rec, &frames[i], &store);
        if let Some((body, hit)) = out {
            results.lock().expect("results lock")[i] = Some((rec.spans, body, hit));
        }
    });
    pad_telemetry::set_metrics_enabled(false);
    let mut a = PassA { spans: Vec::new(), bodies: Vec::new(), hit: Vec::new(), ms: Vec::new(), wall, replay_ms };
    for r in results.into_inner().expect("results lock") {
        let (spans, body, hit) = r.ok_or("an in-process request failed")?;
        a.ms.push(spans.iter().filter(|s| s.parent == ROOT).map(|s| s.busy as f64).sum::<f64>() / 1e6);
        a.spans.push(spans);
        a.bodies.push(body);
        a.hit.push(hit);
    }
    Ok(a)
}

/// One request through the advisor's public calls; returns the body and
/// whether the store answered it.
fn advisor_calls(rec: &mut Recorder, frame: &str, store: &Store) -> Option<(String, bool)> {
    let (request, program) = frame_and_resolve(rec, frame)?;
    let key = program
        .as_ref()
        .filter(|_| request.mode != Mode::Fast && request.algorithm != Algorithm::Search)
        .map(|p| Store::key(&p.to_string(), &request.cache, request.algorithm));
    if let Some(key) = key {
        if let Some(body) = rec.time("advisor.store", ROOT, || store.get(key)) {
            return Some((body, true));
        }
    }
    // The server budgets every resolved request against its deadline
    // before choosing a rung.
    if let Some(p) = &program {
        rec.time("advisor.budget", ROOT, || engine::exact_cost(p));
    }
    let advice = rec.time("advisor.engine", ROOT, || match &program {
        None => engine::advise_trace(&request).ok(),
        Some(p) => Some(engine::advise(p, &request, request.mode != Mode::Fast, false)),
    })?;
    let mut body = String::new();
    rec.time("advisor.serialize", ROOT, || advice.body.write(&mut body));
    if let Some(key) = key {
        rec.time("advisor.store", ROOT, || store.put(key, &body));
    }
    Some((body, false))
}

/// Counters the decomposed pass accumulates.
#[derive(Default)]
struct Counts {
    pads: u64,
    fast_evals: u64,
    exact_evals: u64,
    probe_fast_evals: u64,
}

/// The engine's work decomposed into the layers below it: pipeline or
/// search, estimate, compile, walk, each sink, trace decode and replay.
fn engine_layers(rec: &mut Recorder, frame: &str, counts: &Mutex<Counts>) -> Result<(), String> {
    let (request, program) = frame_and_resolve(rec, frame).ok_or("unresolvable request")?;
    let cache = request.cache;
    let program = match (&request.source, program) {
        (Source::Trace { path, format, sample_log2 }, _) => {
            let ndjson = *format == Some(pad_trace_ingest::TraceFormat::Ndjson);
            let mut sinks = layers::trace_sinks(cache, *sample_log2);
            layers::replay_file(rec, ROOT, Path::new(path), ndjson, &mut sinks)?;
            return Ok(());
        }
        (_, program) => program.ok_or("unresolvable request")?,
    };
    rec.time("advisor.budget", ROOT, || engine::exact_cost(&program));
    let config = padding_config_for(&cache);
    let layout = match request.algorithm {
        Algorithm::Search => {
            let mut cfg = pad_search::SearchConfig { threads: 1, confirm_exact: true, ..Default::default() };
            let p = &request.search;
            cfg.strategy = p.strategy.unwrap_or(cfg.strategy);
            cfg.budget = p.budget.unwrap_or(cfg.budget);
            cfg.seed = p.seed.unwrap_or(cfg.seed);
            cfg.beam_width = p.beam.unwrap_or(cfg.beam_width);
            let result = rec.time("pad-search.search", ROOT, || pad_search::search(&program, &cache, &cfg));
            // Probe: the same search on the fast rung only, to split the
            // search's time into analytic scoring and exact confirmation.
            let fast_cfg = pad_search::SearchConfig { confirm_exact: false, ..cfg };
            let fast = rec.time(PROBE_FAST_SEARCH, ROOT, || pad_search::search(&program, &cache, &fast_cfg));
            let mut c = counts.lock().expect("counts lock");
            c.fast_evals += result.fast_evals;
            c.exact_evals += result.exact_evals;
            c.probe_fast_evals += fast.fast_evals;
            result.best.layout
        }
        alg => {
            let pipeline = if alg == Algorithm::Pad { PaddingPipeline::pad(config.clone()) } else { PaddingPipeline::padlite(config.clone()) };
            let outcome = rec.time("core.pipeline", ROOT, || pipeline.run(&program));
            counts.lock().expect("counts lock").pads +=
                (outcome.stats.arrays_intra_padded + outcome.stats.arrays_inter_padded) as u64;
            outcome.layout
        }
    };
    let original = DataLayout::original(&program);
    if request.mode == Mode::Fast {
        for l in [&original, &layout] {
            rec.time("core.estimate", ROOT, || pad_core::estimate_miss_rate(&program, l, &config));
        }
        return Ok(());
    }
    let mut buf = Vec::new();
    for l in [&original, &layout] {
        let mut sinks = [Sink::Plain(Cache::new(cache)), Sink::Reuse(ReuseAnalyzer::new(cache.line_size()))];
        layers::walk(rec, ROOT, &program, l, &mut sinks, &mut buf);
    }
    Ok(())
}

/// Span name of the fast-rung-only search probe (excluded from the
/// residual: the program never makes this call).
pub const PROBE_FAST_SEARCH: &str = "pad-search.fast_only";

/// Spans that are not part of `engine::advise`: the advisor's own steps
/// around it, and the search probe.
fn is_advisor_step(name: &str) -> bool {
    name.starts_with("advisor.") || name == "ir.parse" || name == PROBE_FAST_SEARCH
}

/// The traced replay: spawn timing, the in-process advisor pass, the
/// decomposed pass, and the per-layer metrics.
fn trace_run(
    ctx: &Ctx,
    w: Workload,
    inputs: &ServeInputs,
    answers: &[Option<Answer>],
    checked: &Checked,
    hit_frac: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let (spawn_ms, server) = timed_spawns(ctx, None, 5)?;
    server.shutdown()?;

    let previous = std::env::current_dir().map_err(|e| e.to_string())?;
    std::env::set_current_dir(ctx.work).map_err(|e| e.to_string())?;
    let origin = Instant::now();
    let frames = frames(inputs, &inputs.reqs, 0);
    let counts = Mutex::new(Counts::default());
    let b_spans: Mutex<HashMap<usize, Vec<Span>>> = Mutex::new(HashMap::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let replayed = pass_a(ctx, inputs, origin).map(|a| {
        let b_wall = parallel(frames.len(), |i, thread| {
            if a.hit[i] {
                return;
            }
            let mut rec = Recorder::new(origin, i as u32, thread);
            match engine_layers(&mut rec, &frames[i], &counts).map_err(|e| format!("request {i}: {e}")) {
                Ok(()) => {
                    b_spans.lock().expect("spans lock").insert(i, rec.spans);
                }
                Err(e) => errors.lock().expect("errors lock").push(e),
            }
        });
        (a, b_wall)
    });
    std::env::set_current_dir(previous).map_err(|e| e.to_string())?;
    let (a, b_wall) = replayed?;
    for e in errors.into_inner().expect("errors lock") {
        out.problem(e);
    }

    // The in-process replay must reproduce the server's answers.
    let replayed = body_digest(a.bodies.iter().map(|b| Some(b.as_str())));
    if replayed != checked.digest {
        out.problem(format!("in-process answers digest {replayed} != served {}", checked.digest));
    }

    let mut b_spans: Vec<(usize, Vec<Span>)> = b_spans.into_inner().expect("spans lock").into_iter().collect();
    b_spans.sort_by_key(|(i, _)| *i);
    let engine_ns: f64 = b_spans
        .iter()
        .flat_map(|(i, _)| a.spans[*i].iter().filter(|s| s.name == "advisor.engine"))
        .map(|s| s.busy as f64)
        .sum();
    let b_only: Vec<Vec<Span>> = b_spans.into_iter().map(|(_, s)| s).collect();
    let b_totals = spans::totals(&b_only);
    // The engine's layers: everything below the advisor's own calls.
    let layer_ns: f64 = b_totals
        .iter()
        .filter(|(name, _)| !is_advisor_step(name))
        .map(|(_, t)| t.self_ns as f64)
        .sum();
    let transport: Vec<f64> = answers
        .iter()
        .zip(&a.ms)
        .filter_map(|(ans, ms)| ans.as_ref().map(|ans| ans.ms - ms))
        .collect();

    let mut all = a.spans.clone();
    all.extend(b_only);
    let counts = counts.into_inner().expect("counts lock");
    let totals = spans::totals(&all);
    let fast_only = totals.get(PROBE_FAST_SEARCH).copied().unwrap_or_default();
    let search = totals.get("pad-search.search").copied().unwrap_or_default();
    let extras = Extras {
        spawn_ms: Some(median(&spawn_ms)),
        store_replay_ms: (!a.replay_ms.is_empty()).then(|| median(&a.replay_ms)),
        store_hit_frac: hit_frac,
        transport_ms: crate::stats::mean(&transport),
        pads: counts.pads,
        fast_evals: counts.fast_evals,
        exact_evals: counts.exact_evals,
        fast_eval_us: if counts.probe_fast_evals == 0 { 0.0 } else { fast_only.busy as f64 / counts.probe_fast_evals as f64 / 1e3 },
        confirm_ms: if search.calls == 0 { 0.0 } else { (search.busy as f64 - fast_only.busy as f64) / search.calls as f64 / 1e6 },
        bench: None,
        residual_frac: if engine_ns > 0.0 { 1.0 - layer_ns / engine_ns } else { 0.0 },
        trace_overhead_frac: b_wall / a.wall - 1.0,
    };
    out.layers = profile::layer_metrics(&totals, &extras);
    out.notes.extend(profile::shares(&b_totals, PROBE_FAST_SEARCH));
    out.notes.push(format!("in-process advisor pass {:.3} s, decomposed pass {b_wall:.3} s", a.wall));
    let header = format!("{} workload={}", ctx.header, w.name());
    let path = ctx.out.join(format!("spans-{}.ndjson", w.name()));
    spans::write_ndjson(&path, &header, &all).map_err(|e| e.to_string())?;
    out.notes.push(format!("spans written to {}", path.display()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_ids_and_bodies_are_cut_from_the_raw_line() {
        let line = r#"{"id":17,"status":"ok","cached":false,"degraded":false,"result":{"a":[1,2],"b":"x"}}"#;
        assert_eq!(answer_id(line), Some(17));
        assert_eq!(raw_body(line), Some(r#"{"a":[1,2],"b":"x"}"#));
        assert_eq!(answer_id(r#"{"id":"ping","status":"ok"}"#), None);
    }

    fn exact_answer(misses: u64) -> String {
        let program = gen::program("JACOBI512", 60);
        let cache = CacheConfig::direct_mapped(4096, 32);
        let layout = PaddingPipeline::pad(padding_config_for(&cache)).run(&program).layout;
        let (acc, orig) = oracle(&program, &DataLayout::original(&program), &cache);
        let (_, padded) = oracle(&program, &layout, &cache);
        let arrays: Vec<String> = program
            .arrays_with_ids()
            .map(|(id, _)| {
                let dims: Vec<String> = layout.dims(id).iter().map(|d| d.size.to_string()).collect();
                format!(r#"{{"base":{},"dims":[{}]}}"#, layout.base_addr(id), dims.join(","))
            })
            .collect();
        let padded = if misses == u64::MAX { padded } else { misses };
        format!(
            r#"{{"original":{{"accesses":{acc},"misses":{orig}}},"padded":{{"accesses":{acc},"misses":{padded}}},"arrays":[{}]}}"#,
            arrays.join(",")
        )
    }

    #[test]
    fn the_oracle_accepts_a_true_answer_and_rejects_a_corrupted_one() {
        let spec = Spec::Kernel {
            kernel: "JACOBI512",
            n: 60,
            cache: gen::Geo { size: 4096, line: 32, ways: 1 },
            algorithm: "pad",
            fast: false,
        };
        let good = claim(&json::parse(&exact_answer(u64::MAX)).expect("json")).expect("claim");
        assert_eq!(oracle_check(&spec, &good), Ok(()));
        let bad = claim(&json::parse(&exact_answer(good.padded.1 + 1)).expect("json")).expect("claim");
        assert!(oracle_check(&spec, &bad).is_err(), "an off-by-one miss count must be caught");
        let mut moved = claim(&json::parse(&exact_answer(u64::MAX)).expect("json")).expect("claim");
        moved.arrays[1].0 += 32;
        assert!(oracle_check(&spec, &moved).is_err(), "a moved array must be caught");
    }
}
