//! Padding keeps the IR's address limits.
//!
//! The IR accepts arrays up to 2^62 bytes in all, and reference offsets
//! up to 2^62 bytes from their bases. Each program below sits near one of
//! those limits, so a pad of one element would break it: `BIG` (the
//! INTRAPADLITE case) and `PAIR` (INTRAPAD) by footprint, `COLS` (LINPAD1
//! and LINPAD2) by footprint through the column, `FAR` by a reference's
//! offset under the padded strides. Such a pad must fail the array, which
//! then keeps its declared shape. Run in a debug build, where an
//! overflowing multiply panics.
//!
//! A layout is checked by rebuilding its program with the layout's
//! shapes, so the IR's own validator prices the padded footprint and
//! every reference's offset.

use pad_cache_sim::CacheConfig;
use pad_core::{
    DataLayout, InterHeuristic, IntraHeuristic, LinAlgHeuristic, PadEvent, PaddingPipeline,
};
use pad_ir::{ArrayBuilder, ArrayId, IrError, Program};
use pad_search::{search, SearchConfig, StrategyKind};
use pad_trace::padding_config_for;

/// A 2^61-byte array whose every pad breaks the footprint limit.
const BIG: &str = "\
program BIG
array A(1, 144115188075855872, 2)
do i = 1, 2
  A(1, i, 1) = A(1, i, 1)
end
";

/// `BIG` with a pair a whole plane apart: 2^60 bytes, a multiple of the
/// cache, so INTRAPAD sees a severe conflict and pads the column.
const PAIR: &str = "\
program PAIR
array A(1, 144115188075855872, 2)
do i = 1, 2
  A(1, i, 2) = A(1, i, 1)
end
";

/// 4096-byte columns, 2^50 − 1 of them: 2^62 − 4096 bytes. The columns
/// are a multiple of two lines (LINPAD1) and conflict at j = 4
/// (LINPAD2), and `A(i, j)` against `A(i, k)` is the linear-algebra
/// pattern PAD gates LINPAD2 on.
const COLS: &str = "\
program COLS
array A(512, 1125899906842623)
do k = 1, 2
  do j = 1, 2
    do i = 1, 512
      A(i, j) = A(i, k)
    end
  end
end
";

/// A 128-byte array whose reference reaches 2^62 − 16 bytes past its
/// base: a 32-byte column is within `M` of the cache size, and any wider
/// one pushes the reference past the limit.
const FAR: &str = "\
program FAR
array A(4, 4)
do j = 1, 144115188075855870
  A(1, j) = A(1, j)
end
";

const INTRA: [IntraHeuristic; 3] = [
    IntraHeuristic::None,
    IntraHeuristic::Lite,
    IntraHeuristic::Analyzed,
];
const LINALG: [LinAlgHeuristic; 4] = [
    LinAlgHeuristic::None,
    LinAlgHeuristic::LinPad1,
    LinAlgHeuristic::LinPad2,
    LinAlgHeuristic::GatedLinPad2,
];
const INTER: [InterHeuristic; 3] = [
    InterHeuristic::None,
    InterHeuristic::Lite,
    InterHeuristic::Analyzed,
];

/// `program` rebuilt with `layout`'s shapes, or the validator's verdict.
fn reshaped(program: &Program, layout: &DataLayout) -> Result<Program, IrError> {
    let mut b = Program::builder(program.name());
    for (id, spec) in program.arrays_with_ids() {
        b.add_array(
            ArrayBuilder::new(spec.name(), [])
                .dims(layout.dims(id).iter().copied())
                .elem_size(spec.elem_size()),
        );
    }
    for stmt in program.body() {
        b.push(stmt.clone());
    }
    b.build()
}

fn assert_within_limits(program: &Program, layout: &DataLayout, what: &str) {
    if let Err(e) = reshaped(program, layout) {
        panic!("{}: {what} breaks the IR's limits: {e}", program.name());
    }
    assert!(layout.check_no_overlap(), "{}: {what}", program.name());
}

#[test]
fn every_phase_combination_keeps_the_limits() {
    let config = padding_config_for(&CacheConfig::paper_base());
    for text in [BIG, PAIR, COLS, FAR] {
        let program = pad_ir::parse(text).expect("the IR accepts the program");
        for intra in INTRA {
            for linalg in LINALG {
                for inter in INTER {
                    let outcome =
                        PaddingPipeline::custom(intra, linalg, inter, config.clone()).run(&program);
                    let what = format!("{intra:?}/{linalg:?}/{inter:?}");
                    assert_within_limits(&program, &outcome.layout, &what);
                }
            }
        }
    }
}

#[test]
fn pads_past_the_limits_fail_the_array() {
    let config = padding_config_for(&CacheConfig::paper_base());
    let a = ArrayId::from_index(0);
    let cases = [
        (BIG, PaddingPipeline::padlite(config.clone())),
        (PAIR, PaddingPipeline::pad(config.clone())),
        (COLS, PaddingPipeline::padlite(config.clone())),
        (COLS, PaddingPipeline::pad(config.clone())),
        (FAR, PaddingPipeline::padlite(config.clone())),
    ];
    for (text, pipeline) in cases {
        let program = pad_ir::parse(text).expect("the IR accepts the program");
        let outcome = pipeline.run(&program);
        assert_eq!(
            outcome.layout.dims(a),
            program.arrays()[0].dims(),
            "{}: A keeps its declared shape",
            program.name()
        );
        assert!(
            matches!(outcome.events.as_slice(), [PadEvent::IntraFailed { name, .. }] if name == "A"),
            "{}: {:?}",
            program.name(),
            outcome.events
        );
    }
}

#[test]
fn searches_keep_the_limits() {
    let cache = CacheConfig::paper_base();
    for (text, confirm_exact) in [(BIG, true), (PAIR, true), (COLS, true), (FAR, false)] {
        let program = pad_ir::parse(text).expect("the IR accepts the program");
        for strategy in [StrategyKind::Beam, StrategyKind::Anneal] {
            let cfg = SearchConfig {
                strategy,
                budget: 120,
                threads: 1,
                confirm_exact,
                ..SearchConfig::default()
            };
            let result = search(&program, &cache, &cfg);
            assert_within_limits(&program, &result.best.layout, strategy.name());
            assert_eq!(result.best_exact.is_some(), confirm_exact);
        }
    }
}
