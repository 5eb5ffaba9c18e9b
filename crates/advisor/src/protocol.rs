//! The advisor wire protocol: typed requests, typed errors.
//!
//! One NDJSON frame is one request object:
//!
//! ```json
//! {"id": 7, "op": "advise", "kernel": "EXPL", "n": 64,
//!  "cache": {"size": 16384, "line": 32, "ways": 1},
//!  "algorithm": "pad", "mode": "auto"}
//! ```
//!
//! `op` is one of `advise`, `ping`, `stats`, `metrics`, `shutdown`. An
//! advise
//! request names a registered kernel (`kernel`, optional `n`), carries
//! an inline loop-nest spec (`program`, pad-ir surface syntax), or
//! points at an on-disk address trace (`trace`, optional `format` and
//! SHARDS `sample` exponent) for a conflict diagnosis.
//! `cache` defaults to the paper's base configuration; `algorithm` to
//! `pad` (`padlite` selects the heuristic-only variant, `search` the
//! global layout optimizer, qualified by optional `strategy`, `budget`,
//! `seed`, and `beam` fields); `mode` to `auto` (`exact` forbids
//! degradation, `fast` skips simulation).
//!
//! Every way a frame can be wrong maps to a typed [`ErrorKind`], so a
//! client always learns *why* it was refused — the server never answers
//! a malformed frame with silence, and never crashes on one.

use pad_cache_sim::CacheConfig;
use pad_trace_ingest::TraceFormat;

use crate::json::Json;

/// Largest inline program text accepted, in bytes. Loop-nest specs in
/// the paper's entire Table 2 are under 2 KiB; anything near this limit
/// is adversarial.
pub const MAX_PROGRAM_BYTES: usize = 64 * 1024;

/// Largest trace file path accepted, in bytes. Real paths are tens of
/// bytes; a multi-kilobyte one is adversarial.
pub const MAX_TRACE_PATH_BYTES: usize = 4096;

/// Largest problem size accepted for a kernel instantiation. Keeps a
/// single request's trace bounded; the deadline ladder handles cost
/// within the bound.
pub const MAX_PROBLEM_SIZE: i64 = 1 << 16;

/// Largest search candidate budget a request may ask for. The fast rung
/// evaluates in microseconds, so this bounds one request to well under a
/// second of analytic work.
pub const MAX_SEARCH_BUDGET: u64 = 100_000;

/// Largest beam width a request may ask for.
pub const MAX_SEARCH_BEAM: u64 = 64;

/// Why a request was refused. The wire string (`ErrorKind::wire`) is
/// stable protocol surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame was not valid JSON, or not an object.
    Malformed,
    /// The frame exceeded the server's size limit.
    Oversized,
    /// An inline program failed to parse as a loop-nest spec.
    Parse,
    /// The frame was well-formed JSON but semantically invalid
    /// (unknown op/kernel/algorithm, bad cache geometry, out-of-range n).
    Invalid,
    /// The admission queue was full; the request was shed unprocessed.
    Overloaded,
    /// The request exceeded its deadline and could not be degraded.
    Timeout,
    /// The handler failed unexpectedly (an isolated panic).
    Internal,
}

impl ErrorKind {
    /// The stable wire name of this error kind.
    pub fn wire(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Parse => "parse",
            ErrorKind::Invalid => "invalid",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A typed refusal: kind plus a human-readable detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The error class (stable wire surface).
    pub kind: ErrorKind,
    /// What exactly was wrong.
    pub detail: String,
}

impl RequestError {
    /// Builds an error of `kind` with `detail`.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        RequestError {
            kind,
            detail: detail.into(),
        }
    }
}

fn invalid(detail: impl Into<String>) -> RequestError {
    RequestError::new(ErrorKind::Invalid, detail)
}

/// Where the loop nest to analyze comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A kernel from the registered suite, instantiated at problem size
    /// `n` (`None` = the kernel's default).
    Kernel {
        /// Registered kernel name (case-insensitive match).
        name: String,
        /// Problem size override.
        n: Option<i64>,
    },
    /// An inline loop-nest spec in pad-ir surface syntax.
    Text(String),
    /// An on-disk address trace (read server-side with
    /// `pad-trace-ingest`). Trace requests answer a conflict *diagnosis*
    /// — measured miss rates, XOR/victim comparisons, per-set heat, and
    /// a (possibly SHARDS-sampled) miss-ratio curve — rather than
    /// padding advice: a raw address stream names no arrays to pad.
    Trace {
        /// Path of the trace file, resolved server-side.
        path: String,
        /// Encoding override (`None` = guess from the extension,
        /// defaulting to binary).
        format: Option<TraceFormat>,
        /// SHARDS sampling exponent for the reuse analysis
        /// (`0` = exact).
        sample_log2: u32,
    },
}

/// Which padding algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Full PAD: set-conflict search, paper §4.
    Pad,
    /// PADLITE: GCD-based heuristic, paper §5.
    PadLite,
    /// Global layout search over joint inter/intra pad vectors
    /// (`pad-search`), seeded with both heuristics' answers.
    Search,
}

impl Algorithm {
    /// Canonical lowercase name (used in cache keys and responses).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Pad => "pad",
            Algorithm::PadLite => "padlite",
            Algorithm::Search => "search",
        }
    }
}

/// Per-request overrides for the `search` algorithm; absent fields take
/// the server's defaults. Qualifies `algorithm: "search"` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchParams {
    /// Strategy override (`"beam"` or `"anneal"`).
    pub strategy: Option<pad_search::StrategyKind>,
    /// Fast-evaluation candidate budget.
    pub budget: Option<u64>,
    /// Annealer seed.
    pub seed: Option<u64>,
    /// Beam width.
    pub beam: Option<usize>,
}

/// How hard to try for an exact (simulation-backed) answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Exact when the deadline budget allows, analytic fallback
    /// otherwise (`degraded: true` on the response).
    Auto,
    /// Exact or nothing: a blown deadline is a `timeout` error.
    Exact,
    /// Analytic estimate only; never simulates.
    Fast,
}

impl Mode {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Auto => "auto",
            Mode::Exact => "exact",
            Mode::Fast => "fast",
        }
    }
}

/// A validated advise request.
#[derive(Debug, Clone, PartialEq)]
pub struct AdviseRequest {
    /// The loop nest to analyze.
    pub source: Source,
    /// The cache to pad for.
    pub cache: CacheConfig,
    /// Which transformation to run.
    pub algorithm: Algorithm,
    /// Search overrides (all-default unless `algorithm` is `search`).
    pub search: SearchParams,
    /// Degradation policy.
    pub mode: Mode,
}

/// One parsed request frame. `id` is echoed verbatim on the response so
/// clients can pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Run a padding analysis.
    Advise(AdviseRequest),
    /// Liveness probe; also a sync barrier (answered in receive order,
    /// ahead of queued work).
    Ping,
    /// Ten request tallies (`requests`, `ok`, `errors`, `shed`,
    /// `cache_hits`, `simulations`, `degraded`, `timeouts`, `panics`,
    /// `replayed`), read off the server's own metric families.
    Stats,
    /// Live metrics snapshot: every counter, gauge, and latency
    /// histogram (with p50/p95/p99) of the process registry and the
    /// server's own, answered inline like `stats`: the one way to read
    /// live metrics.
    Metrics,
    /// Drain and exit cleanly.
    Shutdown,
}

/// A request frame: the echoed `id` plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client correlation id, echoed verbatim (any JSON value; `null`
    /// when absent).
    pub id: Json,
    /// The operation.
    pub op: Op,
}

/// Parses and validates one frame that already passed JSON parsing.
///
/// # Errors
///
/// Returns a typed [`RequestError`] for every invalid shape — unknown
/// ops, missing/mistyped fields, out-of-range sizes, bad cache
/// geometry. Never panics.
pub fn parse_request(frame: &Json) -> Result<Request, RequestError> {
    let Json::Obj(_) = frame else {
        return Err(RequestError::new(
            ErrorKind::Malformed,
            "frame is not a JSON object",
        ));
    };
    let id = frame.get("id").cloned().unwrap_or(Json::Null);
    let op = match frame.get("op").and_then(Json::as_str) {
        None => return Err(invalid("missing `op` field")),
        Some("ping") => Op::Ping,
        Some("stats") => Op::Stats,
        Some("metrics") => Op::Metrics,
        Some("shutdown") => Op::Shutdown,
        Some("advise") => Op::Advise(parse_advise(frame)?),
        Some(other) => return Err(invalid(format!("unknown op `{other}`"))),
    };
    Ok(Request { id, op })
}

fn parse_advise(frame: &Json) -> Result<AdviseRequest, RequestError> {
    let named = [
        frame.get("kernel"),
        frame.get("program"),
        frame.get("trace"),
    ]
    .iter()
    .filter(|v| v.is_some())
    .count();
    if named > 1 {
        return Err(invalid(
            "`kernel`, `program`, and `trace` are mutually exclusive",
        ));
    }
    if named == 0 {
        return Err(invalid("advise needs `kernel`, `program`, or `trace`"));
    }
    // `format` and `sample` qualify a trace source only.
    if frame.get("trace").is_none()
        && (frame.get("format").is_some() || frame.get("sample").is_some())
    {
        return Err(invalid("`format`/`sample` require a `trace` source"));
    }
    let source = match (frame.get("kernel"), frame.get("program")) {
        (Some(_), Some(_)) => unreachable!("exclusivity checked above"),
        (None, None) => parse_trace_source(frame)?,
        (Some(k), None) => {
            let Some(name) = k.as_str() else {
                return Err(invalid("`kernel` must be a string"));
            };
            let n = match frame.get("n") {
                None | Some(Json::Null) => None,
                Some(v) => match v.as_i64() {
                    Some(n) if (1..=MAX_PROBLEM_SIZE).contains(&n) => Some(n),
                    Some(n) => {
                        return Err(invalid(format!(
                            "`n` must be in 1..={MAX_PROBLEM_SIZE}, got {n}"
                        )))
                    }
                    None => return Err(invalid("`n` must be an integer")),
                },
            };
            Source::Kernel {
                name: name.to_string(),
                n,
            }
        }
        (None, Some(p)) => {
            let Some(text) = p.as_str() else {
                return Err(invalid("`program` must be a string"));
            };
            if text.len() > MAX_PROGRAM_BYTES {
                return Err(RequestError::new(
                    ErrorKind::Oversized,
                    format!(
                        "program text is {} bytes; limit is {MAX_PROGRAM_BYTES}",
                        text.len()
                    ),
                ));
            }
            Source::Text(text.to_string())
        }
    };

    let cache = match frame.get("cache") {
        None => CacheConfig::paper_base(),
        Some(c) => parse_cache(c)?,
    };

    let algorithm = match frame.get("algorithm").and_then(Json::as_str) {
        None | Some("pad") => Algorithm::Pad,
        Some("padlite") => Algorithm::PadLite,
        Some("search") => Algorithm::Search,
        Some(other) => return Err(invalid(format!("unknown algorithm `{other}`"))),
    };

    // `strategy`/`budget`/`seed`/`beam` qualify the search algorithm only.
    if algorithm != Algorithm::Search
        && ["strategy", "budget", "seed", "beam"]
            .iter()
            .any(|k| frame.get(k).is_some())
    {
        return Err(invalid(
            "`strategy`/`budget`/`seed`/`beam` require `algorithm: \"search\"`",
        ));
    }
    let search = if algorithm == Algorithm::Search {
        // A raw address trace names no arrays, so there is no layout
        // space to search over.
        if matches!(source, Source::Trace { .. }) {
            return Err(invalid("algorithm `search` cannot answer a `trace` source"));
        }
        parse_search_params(frame)?
    } else {
        SearchParams::default()
    };

    let mode = match frame.get("mode").and_then(Json::as_str) {
        None | Some("auto") => Mode::Auto,
        Some("exact") => Mode::Exact,
        Some("fast") => Mode::Fast,
        Some(other) => return Err(invalid(format!("unknown mode `{other}`"))),
    };

    // Trace diagnosis has no analytic model to fall back on — the fast
    // rung cannot answer it, so asking for it is a client error.
    if mode == Mode::Fast && matches!(source, Source::Trace { .. }) {
        return Err(invalid("mode `fast` cannot answer a `trace` source"));
    }

    Ok(AdviseRequest {
        source,
        cache,
        algorithm,
        search,
        mode,
    })
}

fn parse_search_params(frame: &Json) -> Result<SearchParams, RequestError> {
    let strategy = match frame.get("strategy") {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_str() {
            Some("beam") => Some(pad_search::StrategyKind::Beam),
            Some("anneal") => Some(pad_search::StrategyKind::Anneal),
            Some(other) => {
                return Err(invalid(format!(
                    "unknown strategy `{other}` (beam or anneal)"
                )))
            }
            None => return Err(invalid("`strategy` must be a string")),
        },
    };
    let bounded = |key: &str, max: u64| -> Result<Option<u64>, RequestError> {
        match frame.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => match v.as_u64() {
                Some(x) if (1..=max).contains(&x) => Ok(Some(x)),
                Some(x) => Err(invalid(format!("`{key}` must be in 1..={max}, got {x}"))),
                None => Err(invalid(format!("`{key}` must be a positive integer"))),
            },
        }
    };
    let budget = bounded("budget", MAX_SEARCH_BUDGET)?;
    let beam = bounded("beam", MAX_SEARCH_BEAM)?.map(|b| b as usize);
    let seed = match frame.get("seed") {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_u64() {
            Some(s) => Some(s),
            None => return Err(invalid("`seed` must be a non-negative integer")),
        },
    };
    Ok(SearchParams {
        strategy,
        budget,
        seed,
        beam,
    })
}

fn parse_trace_source(frame: &Json) -> Result<Source, RequestError> {
    let trace = frame.get("trace").expect("caller checked presence");
    let Some(path) = trace.as_str() else {
        return Err(invalid("`trace` must be a string path"));
    };
    if path.is_empty() {
        return Err(invalid("`trace` path is empty"));
    }
    if path.len() > MAX_TRACE_PATH_BYTES {
        return Err(RequestError::new(
            ErrorKind::Oversized,
            format!(
                "trace path is {} bytes; limit is {MAX_TRACE_PATH_BYTES}",
                path.len()
            ),
        ));
    }
    let format = match frame.get("format") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let Some(name) = v.as_str() else {
                return Err(invalid("`format` must be a string"));
            };
            Some(TraceFormat::from_name(name).ok_or_else(|| {
                invalid(format!("unknown trace format `{name}` (binary or ndjson)"))
            })?)
        }
    };
    let sample_log2 = match frame.get("sample") {
        None | Some(Json::Null) => 0,
        Some(v) => match v.as_u64() {
            Some(k) if k <= u64::from(pad_cache_sim::MAX_SAMPLE_LOG2) => k as u32,
            Some(k) => {
                return Err(invalid(format!(
                    "`sample` must be in 0..={}, got {k}",
                    pad_cache_sim::MAX_SAMPLE_LOG2
                )))
            }
            None => return Err(invalid("`sample` must be a non-negative integer")),
        },
    };
    Ok(Source::Trace {
        path: path.to_string(),
        format,
        sample_log2,
    })
}

fn parse_cache(c: &Json) -> Result<CacheConfig, RequestError> {
    let Json::Obj(_) = c else {
        return Err(invalid("`cache` must be an object"));
    };
    let field = |key: &str, default: u64| -> Result<u64, RequestError> {
        match c.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| invalid(format!("cache `{key}` must be a non-negative integer"))),
        }
    };
    let size = field("size", 16 * 1024)?;
    let line = field("line", 32)?;
    let ways = field("ways", 1)?;
    let ways =
        u32::try_from(ways).map_err(|_| invalid(format!("cache `ways` out of range: {ways}")))?;
    CacheConfig::try_new(size, line, ways).map_err(|e| invalid(format!("bad cache geometry: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn req(text: &str) -> Result<Request, RequestError> {
        parse_request(&json::parse(text).expect("test frames are valid JSON"))
    }

    #[test]
    fn parses_a_full_advise_frame() {
        let r = req(r#"{"id": 7, "op": "advise", "kernel": "EXPL", "n": 64,
               "cache": {"size": 8192, "line": 64, "ways": 2},
               "algorithm": "padlite", "mode": "fast"}"#)
        .expect("valid frame");
        assert_eq!(r.id, Json::Int(7));
        let Op::Advise(a) = r.op else {
            panic!("expected advise")
        };
        assert_eq!(
            a.source,
            Source::Kernel {
                name: "EXPL".into(),
                n: Some(64)
            }
        );
        assert_eq!(a.cache.size(), 8192);
        assert_eq!(a.cache.line_size(), 64);
        assert_eq!(a.cache.ways(), 2);
        assert_eq!(a.algorithm, Algorithm::PadLite);
        assert_eq!(a.mode, Mode::Fast);
    }

    #[test]
    fn defaults_fill_in() {
        let r = req(r#"{"op": "advise", "kernel": "dot"}"#).expect("valid");
        let Op::Advise(a) = r.op else { panic!() };
        assert_eq!(a.cache, CacheConfig::paper_base());
        assert_eq!(a.algorithm, Algorithm::Pad);
        assert_eq!(a.mode, Mode::Auto);
        assert_eq!(r.id, Json::Null, "absent id echoes as null");
    }

    #[test]
    fn control_ops_parse() {
        for (text, want) in [
            (r#"{"op":"ping"}"#, Op::Ping),
            (r#"{"op":"stats"}"#, Op::Stats),
            (r#"{"op":"metrics"}"#, Op::Metrics),
            (r#"{"op":"shutdown"}"#, Op::Shutdown),
        ] {
            assert_eq!(req(text).expect("valid").op, want);
        }
    }

    #[test]
    fn every_invalid_shape_gets_a_typed_error() {
        let cases: &[(&str, ErrorKind)] = &[
            ("[1,2,3]", ErrorKind::Malformed),
            (r#""just a string""#, ErrorKind::Malformed),
            (r#"{"id": 1}"#, ErrorKind::Invalid),
            (r#"{"op": "frobnicate"}"#, ErrorKind::Invalid),
            (r#"{"op": "advise"}"#, ErrorKind::Invalid),
            (
                r#"{"op": "advise", "kernel": "a", "program": "b"}"#,
                ErrorKind::Invalid,
            ),
            (r#"{"op": "advise", "kernel": 7}"#, ErrorKind::Invalid),
            (
                r#"{"op": "advise", "kernel": "dot", "n": 0}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "kernel": "dot", "n": -5}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "kernel": "dot", "n": 99999999}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "kernel": "dot", "n": 1.5}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "kernel": "dot", "algorithm": "magic"}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "kernel": "dot", "mode": "wishful"}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "kernel": "dot", "cache": 42}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "kernel": "dot", "cache": {"size": 1000}}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "kernel": "dot", "cache": {"ways": -1}}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "kernel": "dot", "cache": {"size": 32, "line": 64}}"#,
                ErrorKind::Invalid,
            ),
            // Fully associative with 1-byte lines: each way holds 1 byte.
            (
                r#"{"op": "advise", "kernel": "dot", "cache": {"size": 64, "line": 1, "ways": 64}}"#,
                ErrorKind::Invalid,
            ),
        ];
        for (text, kind) in cases {
            match req(text) {
                Err(e) => assert_eq!(e.kind, *kind, "{text} -> {e:?}"),
                Ok(r) => panic!("{text} parsed as {r:?}"),
            }
        }
    }

    #[test]
    fn parses_the_search_algorithm_with_qualifiers() {
        let r = req(r#"{"op": "advise", "kernel": "dot", "algorithm": "search",
               "strategy": "anneal", "budget": 500, "seed": 42, "beam": 8}"#)
        .expect("valid frame");
        let Op::Advise(a) = r.op else {
            panic!("expected advise")
        };
        assert_eq!(a.algorithm, Algorithm::Search);
        assert_eq!(a.search.strategy, Some(pad_search::StrategyKind::Anneal));
        assert_eq!(a.search.budget, Some(500));
        assert_eq!(a.search.seed, Some(42));
        assert_eq!(a.search.beam, Some(8));

        // Defaults: all overrides absent.
        let r = req(r#"{"op": "advise", "kernel": "dot", "algorithm": "search"}"#).expect("valid");
        let Op::Advise(a) = r.op else { panic!() };
        assert_eq!(a.search, SearchParams::default());
    }

    #[test]
    fn search_qualifier_invalid_shapes_are_typed() {
        let cases: &[&str] = &[
            // Search fields without the search algorithm.
            r#"{"op": "advise", "kernel": "dot", "budget": 10}"#,
            r#"{"op": "advise", "kernel": "dot", "algorithm": "pad", "seed": 1}"#,
            // No layout space behind a raw address trace.
            r#"{"op": "advise", "trace": "t.bin", "algorithm": "search"}"#,
            // Out-of-range or mistyped overrides.
            r#"{"op": "advise", "kernel": "dot", "algorithm": "search", "strategy": "magic"}"#,
            r#"{"op": "advise", "kernel": "dot", "algorithm": "search", "strategy": 7}"#,
            r#"{"op": "advise", "kernel": "dot", "algorithm": "search", "budget": 0}"#,
            r#"{"op": "advise", "kernel": "dot", "algorithm": "search", "budget": 100001}"#,
            r#"{"op": "advise", "kernel": "dot", "algorithm": "search", "beam": 65}"#,
            r#"{"op": "advise", "kernel": "dot", "algorithm": "search", "seed": -1}"#,
        ];
        for text in cases {
            let err = req(text).expect_err(text);
            assert_eq!(err.kind, ErrorKind::Invalid, "{text}");
        }
    }

    #[test]
    fn parses_a_trace_source_with_qualifiers() {
        let r =
            req(r#"{"op": "advise", "trace": "/tmp/app.trc", "format": "ndjson", "sample": 6}"#)
                .expect("valid frame");
        let Op::Advise(a) = r.op else {
            panic!("expected advise")
        };
        assert_eq!(
            a.source,
            Source::Trace {
                path: "/tmp/app.trc".into(),
                format: Some(TraceFormat::Ndjson),
                sample_log2: 6,
            }
        );

        // Defaults: no format override, exact reuse analysis.
        let r = req(r#"{"op": "advise", "trace": "t.bin"}"#).expect("valid");
        let Op::Advise(a) = r.op else { panic!() };
        assert_eq!(
            a.source,
            Source::Trace {
                path: "t.bin".into(),
                format: None,
                sample_log2: 0
            }
        );
    }

    #[test]
    fn trace_source_invalid_shapes_are_typed() {
        let cases: &[(&str, ErrorKind)] = &[
            (r#"{"op": "advise", "trace": 7}"#, ErrorKind::Invalid),
            (r#"{"op": "advise", "trace": ""}"#, ErrorKind::Invalid),
            (
                r#"{"op": "advise", "trace": "t", "kernel": "dot"}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "trace": "t", "program": "x"}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "trace": "t", "format": "csv"}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "trace": "t", "format": 9}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "trace": "t", "sample": -1}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "trace": "t", "sample": 64}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "trace": "t", "sample": 1.5}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "trace": "t", "mode": "fast"}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "kernel": "dot", "sample": 4}"#,
                ErrorKind::Invalid,
            ),
            (
                r#"{"op": "advise", "kernel": "dot", "format": "ndjson"}"#,
                ErrorKind::Invalid,
            ),
        ];
        for (text, kind) in cases {
            match req(text) {
                Err(e) => assert_eq!(e.kind, *kind, "{text} -> {e:?}"),
                Ok(r) => panic!("{text} parsed as {r:?}"),
            }
        }

        let long = format!(
            r#"{{"op": "advise", "trace": "{}"}}"#,
            "p".repeat(MAX_TRACE_PATH_BYTES + 1)
        );
        assert_eq!(
            req(&long).expect_err("must refuse").kind,
            ErrorKind::Oversized
        );
    }

    #[test]
    fn oversized_inline_programs_are_refused_as_oversized() {
        let big = "x".repeat(MAX_PROGRAM_BYTES + 1);
        let frame = Json::Obj(vec![
            ("op".into(), Json::Str("advise".into())),
            ("program".into(), Json::Str(big)),
        ]);
        let err = parse_request(&frame).expect_err("must refuse");
        assert_eq!(err.kind, ErrorKind::Oversized);
    }

    #[test]
    fn wire_names_are_stable() {
        assert_eq!(ErrorKind::Overloaded.wire(), "overloaded");
        assert_eq!(ErrorKind::Timeout.wire(), "timeout");
        assert_eq!(ErrorKind::Internal.wire(), "internal");
        assert_eq!(Algorithm::PadLite.name(), "padlite");
        assert_eq!(Mode::Auto.name(), "auto");
    }
}
