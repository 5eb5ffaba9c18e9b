//! FFTPDE proxy — NAS 3-D fast Fourier transform PDE (773 lines, 7
//! arrays, 60% uniform references in the paper).
//!
//! Like TURB3D, the hot loops are power-of-two-strided butterflies, but
//! FFTPDE also contains bit-reversal permutations that the analysis
//! cannot express (modeled with scaled subscripts), which is why its
//! Table 2 row shows a lower uniform fraction and why the paper's
//! Figure 9 lists FFTPDE among the programs padding fails to fix.

use pad_ir::{ArrayBuilder, IndexVar, Loop, Program, Stmt, Subscript};

use crate::util::at3;

/// Cube size.
pub const DEFAULT_N: i64 = 64;

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 4] = ["XR", "XI", "TWIDDLE", "SCR"];

/// Builds butterfly and bit-reversal nests.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("FFTPDE");
    b.source_lines(773);
    let xr = b.add_array(ArrayBuilder::new("XR", [n, n, n]));
    let xi = b.add_array(ArrayBuilder::new("XI", [n, n, n]));
    let tw = b.add_array(ArrayBuilder::new("TWIDDLE", [n, n, n]));
    let scr = b.add_array(ArrayBuilder::new("SCR", [n, n, n]));
    let half = n / 2;

    // One butterfly stage in each direction (as in TURB3D).
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, n),
            Loop::new("j", 1, n),
            Loop::new("i", 1, half),
        ],
        vec![Stmt::refs(vec![
            at3(xr, "i", 0, "j", 0, "k", 0),
            at3(xr, "i", half, "j", 0, "k", 0),
            at3(xi, "i", 0, "j", 0, "k", 0),
            at3(xi, "i", half, "j", 0, "k", 0),
            at3(tw, "i", 0, "j", 0, "k", 0),
            at3(xr, "i", 0, "j", 0, "k", 0).write(),
            at3(xi, "i", half, "j", 0, "k", 0).write(),
        ])],
    ));
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, half),
            Loop::new("j", 1, n),
            Loop::new("i", 1, n),
        ],
        vec![Stmt::refs(vec![
            at3(xr, "i", 0, "j", 0, "k", 0),
            at3(xr, "i", 0, "j", 0, "k", half),
            at3(xr, "i", 0, "j", 0, "k", 0).write(),
            at3(xr, "i", 0, "j", 0, "k", half).write(),
        ])],
    ));
    // Bit-reversal copy: the permuted index is data-dependent; the proxy
    // uses a scaled subscript the analysis must treat as opaque.
    let rev = Subscript::from_terms([(IndexVar::new("i"), 2)], -1);
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, n),
            Loop::new("j", 1, n),
            Loop::new("i", 1, half),
        ],
        vec![Stmt::refs(vec![
            xr.at([rev.clone(), Subscript::var("j"), Subscript::var("k")]),
            scr.at([
                Subscript::var("i"),
                Subscript::var("j"),
                Subscript::var("k"),
            ])
            .write(),
        ])],
    ));
    b.build().expect("FFTPDE spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{uniform_ref_fraction, PaddingConfig, PaddingPipeline};

    #[test]
    fn uniform_fraction_sits_between_irr_and_stencils() {
        let p = spec(16);
        let f = uniform_ref_fraction(&p);
        assert!(f > 0.5 && f < 1.0, "fraction {f}");
    }

    #[test]
    fn pad_runs_and_layout_is_valid() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.layout.check_no_overlap());
    }
}
