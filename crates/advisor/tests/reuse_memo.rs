//! Exact answers are the same bytes whether the advisor's process-wide
//! walk memo is cold or warm.
//!
//! A chain of requests warms the memo for the next: PAD on a 4 KiB
//! direct-mapped cache, the same nest under an 8 KiB 2-way cache (both
//! layouts' curves memoized, neither's plain counts), PADLITE (the
//! original's plain counts and curve memoized), two nests whose display
//! forms, bases and dims agree but whose element sizes differ (the second
//! must not take the first's results), and a search whose winner is the
//! original layout, after a PAD answer that walked that layout. Then each
//! request is answered again after more distinct streams than the memo
//! holds have evicted everything it put there, and its bytes must not
//! change. The warm search answer walks nothing for the original: its
//! confirmation and its curve come from the memo, so
//! `pad_sim_accesses_total` counts exactly two walks of it fewer than for
//! the cold answer.
//!
//! The memo and the metrics registry are process-global, so this lives
//! in its own integration binary with a single test.

use pad_advisor::protocol::SearchParams;
use pad_advisor::{advise, resolve, AdviseRequest, Algorithm, Json, Mode, Source};
use pad_cache_sim::CacheConfig;
use pad_core::DataLayout;
use pad_ir::Program;
use pad_search::StrategyKind;
use pad_trace::{CompiledTrace, WALK_MEMO_CAPACITY};

fn counter(name: &str) -> u64 {
    pad_telemetry::registry()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

fn hits() -> u64 {
    counter("pad_sim_memo_total{outcome=\"hit\"}")
}

fn walked() -> u64 {
    counter("pad_sim_accesses_total")
}

fn request(cache: CacheConfig, algorithm: Algorithm) -> AdviseRequest {
    AdviseRequest {
        source: Source::Text(String::new()),
        cache,
        algorithm,
        search: SearchParams::default(),
        mode: Mode::Exact,
    }
}

fn kernel(name: &str, n: i64) -> Program {
    resolve(&Source::Kernel {
        name: name.into(),
        n: Some(n),
    })
    .expect("suite kernel")
}

/// Answers `count` exact requests for one-array nests whose streams were
/// never walked before, each adding results to the memo; `next` numbers
/// them across calls.
fn flood(next: &mut usize, count: usize) {
    let before = hits();
    let req = request(CacheConfig::direct_mapped(4096, 32), Algorithm::Pad);
    for _ in 0..count {
        let i = *next;
        *next += 1;
        let text = format!(
            "program f{i}\narray A({})\ndo k = 1, 4\n  t = A(k + {i})\nend\n",
            i + 4
        );
        let program = pad_ir::parse(&text).expect("flood nest parses");
        advise(&program, &req, true, false);
    }
    assert_eq!(hits(), before, "every flood stream is new");
}

#[test]
fn exact_answers_are_the_same_bytes_from_a_cold_or_a_warm_memo() {
    pad_telemetry::set_metrics_enabled(true);
    let dm = CacheConfig::direct_mapped(4096, 32);
    let two_way = CacheConfig::set_associative(8192, 32, 2);
    let jacobi = kernel("JACOBI512", 32);
    let dot = kernel("DOT256K", 256);
    let twin = |elem: &str| {
        pad_ir::parse(&format!(
            "program twin\narray A(1024){elem}\ndo i = 1, 1024\n  t = A(i)\nend\n"
        ))
        .expect("twin parses")
    };
    let (eight, four) = (twin(""), twin(" elem 4"));
    let mut search = request(dm, Algorithm::Search);
    search.search = SearchParams {
        strategy: Some(StrategyKind::Beam),
        budget: Some(40),
        ..SearchParams::default()
    };

    // (label, program, request, memo hits when it follows the previous
    // request in this order, and from a cold memo)
    let chain = [
        ("PAD, 4 KiB DM", &jacobi, request(dm, Algorithm::Pad), 0, 0),
        // Both layouts' curves; new plain counts.
        (
            "PAD, 8 KiB 2-way",
            &jacobi,
            request(two_way, Algorithm::Pad),
            2,
            0,
        ),
        // The original's plain counts and curve; PADLITE's layout is new.
        (
            "PADLITE, 4 KiB DM",
            &jacobi,
            request(dm, Algorithm::PadLite),
            2,
            0,
        ),
        ("PAD on A(1024)", &eight, request(dm, Algorithm::Pad), 0, 0),
        (
            "PAD on A(1024) elem 4",
            &four,
            request(dm, Algorithm::Pad),
            0,
            0,
        ),
        ("PAD on DOT", &dot, request(dm, Algorithm::Pad), 0, 0),
        // The original's confirmation, then its plain counts and curve;
        // cold, the answer's plain counts come from its own confirmation.
        ("search on DOT", &dot, search, 3, 1),
    ];
    let mut warm = Vec::new();
    let mut warm_search_walk = 0;
    let mut search_arrays = Json::Null;
    for (label, program, req, expected_hits, _) in &chain {
        let (h, w) = (hits(), walked());
        let body = advise(program, req, true, false).body;
        assert_eq!(hits() - h, *expected_hits, "{label}: memo hits");
        warm_search_walk = walked() - w;
        search_arrays = body.get("arrays").cloned().unwrap_or(Json::Null);
        warm.push(body.to_string());
    }

    // The search kept the original layout, so its warm answer walked
    // nothing for it.
    let Json::Arr(arrays) = search_arrays else {
        panic!("the search answer lists its arrays")
    };
    let original = DataLayout::original(&dot);
    for ((id, _), item) in dot.arrays_with_ids().zip(&arrays) {
        let dims: Vec<Json> = original
            .dims(id)
            .iter()
            .map(|d| Json::Int(d.size))
            .collect();
        assert_eq!(
            (item.get("base").and_then(Json::as_u64), item.get("dims")),
            (Some(original.base_addr(id)), Some(&Json::Arr(dims))),
            "the search's winner is the original layout"
        );
    }

    let mut next = 0;
    for ((label, program, req, _, cold_hits), warm) in chain.iter().zip(&warm) {
        // More new results than the memo holds: nothing of `req`'s is
        // left.
        flood(&mut next, WALK_MEMO_CAPACITY);
        let (h, w) = (hits(), walked());
        let cold = advise(program, req, true, false).body.to_string();
        assert_eq!(hits() - h, *cold_hits, "{label}: the memo was cold");
        assert_eq!(&cold, warm, "{label}: cold and warm answers differ");
        if req.algorithm == Algorithm::Search {
            let one_walk = CompiledTrace::compile(program, &original).count();
            assert_eq!(
                walked() - w,
                warm_search_walk + 2 * one_walk,
                "{label}: the cold answer walks the original twice more"
            );
        }
    }
}
