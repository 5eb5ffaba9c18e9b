//! ORA proxy — SPEC92 ray tracing through an optical system (453 lines,
//! **zero** global arrays in the paper's Table 2).
//!
//! ORA is pure scalar floating-point code: it traces rays through lens
//! surfaces with no array state at all. It exists in the suite as the
//! degenerate control — the padding pipeline must handle an array-free
//! program gracefully and report nothing to do.

use pad_ir::Program;

/// Ray count (irrelevant — the program has no array accesses).
pub const DEFAULT_N: i64 = 1;

/// Builds the empty-data-space program.
pub fn spec(_n: i64) -> Program {
    let mut b = Program::builder("ORA");
    b.source_lines(453);
    b.build().expect("ORA spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{DataLayout, PaddingConfig, PaddingPipeline};

    #[test]
    fn no_arrays_no_padding_no_crash() {
        let p = spec(DEFAULT_N);
        assert!(p.arrays().is_empty());
        for outcome in [
            PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p),
            PaddingPipeline::padlite(PaddingConfig::paper_base()).run(&p),
        ] {
            assert!(outcome.events.is_empty());
            assert_eq!(outcome.layout.total_bytes(), 0);
        }
        assert_eq!(DataLayout::original(&p).total_bytes(), 0);
    }
}
