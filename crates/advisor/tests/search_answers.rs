//! Exact search answers against plain walks.
//!
//! A search answer takes its `original` and `padded` miss counts from the
//! search's own exact confirmations and walks only the reuse sink. For
//! beam and annealing searches of five kernels on a direct-mapped and a
//! 2-way cache, both sections' accesses and misses must equal a plain
//! `simulate_batch` walk of the original layout and of the layout the
//! answer's `arrays` describe.

use pad_advisor::json::Json;
use pad_advisor::protocol::SearchParams;
use pad_advisor::{advise, resolve, AdviseRequest, Algorithm, Mode, Source};
use pad_cache_sim::CacheConfig;
use pad_core::DataLayout;
use pad_ir::{Dim, Program};
use pad_search::StrategyKind;
use pad_trace::{simulate_batch, BatchRequest};

const KERNELS: [(&str, i64); 5] = [
    ("JACOBI512", 32),
    ("SHAL512", 24),
    ("EXPL512", 24),
    ("TOMCATV", 24),
    ("ADI512", 32),
];

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.get(key)
        .unwrap_or_else(|| panic!("answer lacks `{key}`: {json}"))
}

/// The layout an answer's `arrays` section describes.
fn answer_layout(program: &Program, answer: &Json) -> DataLayout {
    let Json::Arr(items) = field(answer, "arrays") else {
        panic!("arrays is a list")
    };
    let dims = program
        .arrays()
        .iter()
        .zip(items)
        .map(|(spec, item)| {
            let Json::Arr(sizes) = field(item, "dims") else {
                panic!("dims is a list")
            };
            spec.dims()
                .iter()
                .zip(sizes)
                .map(|(d, size)| Dim {
                    size: size.as_i64().expect("size"),
                    ..*d
                })
                .collect()
        })
        .collect();
    let mut layout = DataLayout::with_dims(program, dims);
    for ((id, _), item) in program.arrays_with_ids().zip(items) {
        layout.set_base_addr(id, field(item, "base").as_u64().expect("base"));
    }
    layout
}

/// `(accesses, misses)` of an answer section.
fn counts(section: &Json) -> (u64, u64) {
    (
        field(section, "accesses").as_u64().expect("accesses"),
        field(section, "misses").as_u64().expect("misses"),
    )
}

#[test]
fn search_answers_count_what_plain_walks_count() {
    let (mut unchanged, mut changed) = (0, 0);
    for (kernel, n) in KERNELS {
        let source = Source::Kernel {
            name: kernel.into(),
            n: Some(n),
        };
        let program = resolve(&source).expect("suite kernel");
        let original = DataLayout::original(&program);
        for cache in [
            CacheConfig::direct_mapped(4096, 32),
            CacheConfig::set_associative(8192, 32, 2),
        ] {
            for strategy in [StrategyKind::Beam, StrategyKind::Anneal] {
                let request = AdviseRequest {
                    source: source.clone(),
                    cache,
                    algorithm: Algorithm::Search,
                    search: SearchParams {
                        strategy: Some(strategy),
                        budget: Some(120),
                        ..SearchParams::default()
                    },
                    mode: Mode::Exact,
                };
                let answer = advise(&program, &request, true, false).body;
                let cell = format!("{kernel} n={n} {cache:?} {}", strategy.name());
                let layout = answer_layout(&program, &answer);
                if layout == original {
                    unchanged += 1;
                } else {
                    changed += 1;
                }
                let walk = |layout: &DataLayout| {
                    let stats =
                        simulate_batch(&program, layout, &BatchRequest::new().with_plain(cache))
                            .plain[0];
                    (stats.accesses, stats.misses)
                };
                assert_eq!(
                    counts(field(&answer, "original")),
                    walk(&original),
                    "{cell}: original"
                );
                assert_eq!(
                    counts(field(&answer, "padded")),
                    walk(&layout),
                    "{cell}: padded"
                );
            }
        }
    }
    assert!(
        unchanged > 0 && changed > 0,
        "the matrix must hold kept and changed layouts, got {unchanged} and {changed}"
    );
}
