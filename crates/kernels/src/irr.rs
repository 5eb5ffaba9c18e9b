//! IRR — relaxation over an irregular mesh (196 lines, 4 global arrays).
//!
//! The paper's negative control: the real code gathers neighbours through
//! an index array, so its references are *not* uniformly generated and
//! the analysis can prove nothing — Table 2 shows zero arrays padded and
//! the figures show no improvement. Affine IR cannot express true
//! indirection, so this proxy models the same property with non-unit
//! coefficient subscripts (`X(3i-2)`), which are equally opaque to the
//! conflict analysis: the uniform-reference fraction is low and neither
//! PADLITE nor PAD transforms anything.

use pad_ir::{ArrayBuilder, IndexVar, Loop, Program, Stmt, Subscript};

use crate::util::at1;

/// Node count of the mesh.
pub const DEFAULT_N: i64 = 50_000;

/// Builds the irregular relaxation proxy over `n` nodes.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("IRR500K");
    b.source_lines(196);
    let x = b.add_array(ArrayBuilder::new("X", [3 * n]));
    let y = b.add_array(ArrayBuilder::new("Y", [n]));
    let w = b.add_array(ArrayBuilder::new("W", [3 * n]));
    let deg = b.add_array(ArrayBuilder::new("DEG", [n]));
    let scaled = |c: i64, off: i64| Subscript::from_terms([(IndexVar::new("i"), c)], off);
    b.push(Stmt::loop_(
        Loop::new("i", 1, n),
        vec![Stmt::refs(vec![
            x.at([scaled(3, -2)]),
            w.at([scaled(3, -2)]),
            x.at([scaled(3, -1)]),
            w.at([scaled(3, -1)]),
            x.at([scaled(3, 0)]),
            w.at([scaled(3, 0)]),
            at1(deg, "i", 0),
            at1(y, "i", 0).write(),
        ])],
    ));
    b.build().expect("IRR spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{uniform_ref_fraction, PaddingConfig, PaddingPipeline};

    #[test]
    fn most_references_are_not_uniform() {
        let p = spec(1000);
        assert!(uniform_ref_fraction(&p) < 0.30);
    }

    #[test]
    fn padding_leaves_irr_untouched() {
        let p = spec(1000);
        for outcome in [
            PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p),
            PaddingPipeline::padlite(PaddingConfig::paper_base()).run(&p),
        ] {
            assert_eq!(outcome.stats.arrays_intra_padded, 0);
            // INTERPADLITE may still separate equal-size variables (it
            // needs no reference analysis), but the analytical INTERPAD
            // can prove nothing about the scaled references.
        }
        let pad = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert_eq!(pad.stats.inter_bytes_skipped, 0);
    }
}
