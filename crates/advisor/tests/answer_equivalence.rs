//! Exact answers against direct simulation.
//!
//! For every suite kernel at two small sizes, three caches and all three
//! algorithms, the engine's `original` and `padded` stats,
//! `improvement_points` and every miss-ratio-curve point must equal a
//! `simulate_batch` of the original layout and of the answer's layout.
//! The test recomputes that layout itself, with the same pipeline or
//! search config the engine uses. The matrix must hold both unchanged and
//! changed layouts for every algorithm, so both ways the engine can fill
//! the `padded` section are checked.

use pad_advisor::json::Json;
use pad_advisor::protocol::SearchParams;
use pad_advisor::{advise, AdviseRequest, Algorithm, Mode, Source};
use pad_cache_sim::CacheConfig;
use pad_core::{DataLayout, PaddingPipeline};
use pad_ir::Program;
use pad_trace::{padding_config_for, simulate_batch, BatchRequest, BatchResults};

const SIZES: [i64; 2] = [8, 16];
const SEARCH_BUDGET: u64 = 60;

fn caches() -> [CacheConfig; 3] {
    [
        CacheConfig::direct_mapped(4 * 1024, 64),
        CacheConfig::set_associative(8 * 1024, 64, 2),
        CacheConfig::set_associative(16 * 1024, 64, 4),
    ]
}

/// The layout the answer must carry, computed the way the engine does.
fn expected_layout(program: &Program, cache: &CacheConfig, algorithm: Algorithm) -> DataLayout {
    let config = padding_config_for(cache);
    match algorithm {
        Algorithm::Pad => PaddingPipeline::pad(config).run(program).layout,
        Algorithm::PadLite => PaddingPipeline::padlite(config).run(program).layout,
        Algorithm::Search => {
            let cfg = pad_search::SearchConfig {
                budget: SEARCH_BUDGET,
                threads: 1,
                confirm_exact: true,
                ..pad_search::SearchConfig::default()
            };
            pad_search::search(program, cache, &cfg).best.layout
        }
    }
}

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.get(key)
        .unwrap_or_else(|| panic!("answer lacks `{key}`: {json}"))
}

fn num(json: &Json) -> f64 {
    match json {
        Json::Num(x) => *x,
        other => panic!("expected a float, got {other}"),
    }
}

/// `(accesses, misses, miss_rate_percent)` of an answer's stats section.
fn answer_stats(section: &Json) -> (u64, u64, f64) {
    (
        field(section, "accesses").as_u64().expect("accesses"),
        field(section, "misses").as_u64().expect("misses"),
        num(field(section, "miss_rate_percent")),
    )
}

/// The same triple for the first plain sink of a direct walk.
fn walk_stats(results: &BatchResults) -> (u64, u64, f64) {
    let s = &results.plain[0];
    let pct = if s.accesses == 0 {
        0.0
    } else {
        100.0 * s.misses as f64 / s.accesses as f64
    };
    (s.accesses, s.misses, pct)
}

/// `(capacity_bytes, original, padded)` for every curve point.
fn answer_mrc(answer: &Json) -> Vec<(u64, f64, f64)> {
    let Json::Arr(points) = field(answer, "mrc") else {
        panic!("mrc is a list")
    };
    points
        .iter()
        .map(|p| {
            (
                field(p, "capacity_bytes").as_u64().expect("capacity"),
                num(field(p, "original")),
                num(field(p, "padded")),
            )
        })
        .collect()
}

fn walk_mrc(line: u64, before: &BatchResults, after: &BatchResults) -> Vec<(u64, f64, f64)> {
    let (hb, ha) = (&before.reuse[0], &after.reuse[0]);
    let mut lines: Vec<u64> = hb
        .pow2_capacities()
        .into_iter()
        .chain(ha.pow2_capacities())
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines
        .into_iter()
        .map(|l| (l * line, hb.miss_ratio_at(l), ha.miss_ratio_at(l)))
        .collect()
}

/// `(base, dims)` per array, from the answer and from a layout.
fn answer_arrays(answer: &Json) -> Vec<(u64, Vec<i64>)> {
    let Json::Arr(items) = field(answer, "arrays") else {
        panic!("arrays is a list")
    };
    items
        .iter()
        .map(|a| {
            let Json::Arr(dims) = field(a, "dims") else {
                panic!("dims is a list")
            };
            (
                field(a, "base").as_u64().expect("base"),
                dims.iter().map(|d| d.as_i64().expect("dim")).collect(),
            )
        })
        .collect()
}

fn layout_arrays(program: &Program, layout: &DataLayout) -> Vec<(u64, Vec<i64>)> {
    program
        .arrays_with_ids()
        .map(|(id, _)| {
            (
                layout.base_addr(id),
                layout.dims(id).iter().map(|d| d.size).collect(),
            )
        })
        .collect()
}

/// Runs the whole matrix for one algorithm and returns how many cells
/// kept the original layout and how many changed it.
fn check_algorithm(algorithm: Algorithm) -> (usize, usize) {
    let (mut unchanged, mut changed) = (0, 0);
    for kernel in pad_kernels::suite() {
        for n in SIZES {
            let program = (kernel.spec)(n);
            let original = DataLayout::original(&program);
            for cache in caches() {
                let request = AdviseRequest {
                    source: Source::Kernel {
                        name: kernel.name.into(),
                        n: Some(n),
                    },
                    cache,
                    algorithm,
                    search: SearchParams {
                        budget: Some(SEARCH_BUDGET),
                        ..SearchParams::default()
                    },
                    mode: Mode::Exact,
                };
                let answer = advise(&program, &request, true, false).body;
                let cell = format!("{} n={n} {cache:?} {}", kernel.name, algorithm.name());

                let layout = expected_layout(&program, &cache, algorithm);
                assert_eq!(
                    answer_arrays(&answer),
                    layout_arrays(&program, &layout),
                    "{cell}: the answer's layout"
                );
                if layout == original {
                    unchanged += 1;
                } else {
                    changed += 1;
                }

                let batch = BatchRequest::new()
                    .with_plain(cache)
                    .with_reuse(cache.line_size(), 0);
                let before = simulate_batch(&program, &original, &batch);
                let after = simulate_batch(&program, &layout, &batch);
                assert_eq!(
                    answer_stats(field(&answer, "original")),
                    walk_stats(&before),
                    "{cell}: original stats"
                );
                assert_eq!(
                    answer_stats(field(&answer, "padded")),
                    walk_stats(&after),
                    "{cell}: padded stats"
                );
                assert_eq!(
                    num(field(&answer, "improvement_points")),
                    before.plain[0].miss_rate_percent() - after.plain[0].miss_rate_percent(),
                    "{cell}: improvement"
                );
                assert_eq!(
                    answer_mrc(&answer),
                    walk_mrc(cache.line_size(), &before, &after),
                    "{cell}: miss-ratio curve"
                );
            }
        }
    }
    (unchanged, changed)
}

fn assert_matrix(algorithm: Algorithm) {
    let (unchanged, changed) = check_algorithm(algorithm);
    assert!(
        unchanged > 0 && changed > 0,
        "{}: the matrix must hold unchanged and changed layouts, got {unchanged} and {changed}",
        algorithm.name()
    );
}

#[test]
fn pad_answers_equal_direct_walks() {
    assert_matrix(Algorithm::Pad);
}

#[test]
fn padlite_answers_equal_direct_walks() {
    assert_matrix(Algorithm::PadLite);
}

#[test]
fn search_answers_equal_direct_walks() {
    assert_matrix(Algorithm::Search);
}
