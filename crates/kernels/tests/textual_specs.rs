//! The textual kernel corpus (`specs/*.pad`) must be *trace-equivalent*
//! to the builder-constructed specifications: same arrays, same reference
//! structure, and — the strongest check — the exact same address stream
//! under the same layout. This pins the parser and the builder API to one
//! another.

use pad_core::DataLayout;
use pad_ir::{parse, Program};

fn traces_match(text: &str, built: &Program) {
    let parsed = parse(text).expect("corpus file parses");
    assert_eq!(parsed.name(), built.name());
    assert_eq!(parsed.arrays().len(), built.arrays().len());
    for (a, b) in parsed.arrays().iter().zip(built.arrays()) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.dims(), b.dims());
        assert_eq!(a.elem_size(), b.elem_size());
    }
    assert_eq!(parsed.all_refs().len(), built.all_refs().len());

    // Identical declarations mean identical original layouts, so the
    // address streams must agree byte for byte.
    let layout_parsed = DataLayout::original(&parsed);
    let layout_built = DataLayout::original(built);
    let mut ta = Vec::new();
    pad_trace::for_each_access(&parsed, &layout_parsed, |a| ta.push((a.addr, a.is_write)));
    let mut tb = Vec::new();
    pad_trace::for_each_access(built, &layout_built, |a| tb.push((a.addr, a.is_write)));
    assert_eq!(ta.len(), tb.len(), "trace lengths differ");
    assert_eq!(ta, tb, "address streams differ");
}

#[test]
fn jacobi_text_matches_builder() {
    traces_match(
        include_str!("../specs/jacobi.pad"),
        &pad_kernels::jacobi::spec(512),
    );
}

#[test]
fn dgefa_text_matches_builder() {
    traces_match(
        include_str!("../specs/dgefa.pad"),
        &pad_kernels::dgefa::spec(256),
    );
}

#[test]
fn dot_text_matches_builder() {
    traces_match(
        include_str!("../specs/dot.pad"),
        &pad_kernels::dot::spec(32 * 1024),
    );
}

#[test]
fn mult_text_matches_builder() {
    traces_match(
        include_str!("../specs/mult.pad"),
        &pad_kernels::mult::spec(300),
    );
}

#[test]
fn chol_text_matches_builder_including_triangular_bounds() {
    traces_match(
        include_str!("../specs/chol.pad"),
        &pad_kernels::chol::spec(256),
    );
}

#[test]
fn erle_text_matches_builder_including_rank3_arrays() {
    traces_match(
        include_str!("../specs/erle.pad"),
        &pad_kernels::erle::spec(64),
    );
}

#[test]
fn padding_decisions_agree_between_text_and_builder() {
    use pad_core::{PaddingConfig, PaddingPipeline};
    let parsed = parse(include_str!("../specs/jacobi.pad")).expect("parses");
    let built = pad_kernels::jacobi::spec(512);
    let config = PaddingConfig::paper_base();
    let a = PaddingPipeline::pad(config.clone()).run(&parsed);
    let b = PaddingPipeline::pad(config).run(&built);
    assert_eq!(a.layout.total_bytes(), b.layout.total_bytes());
    assert_eq!(a.stats.inter_bytes_skipped, b.stats.inter_bytes_skipped);
    assert_eq!(a.stats.arrays_intra_padded, b.stats.arrays_intra_padded);
}
