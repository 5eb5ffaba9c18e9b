//! NASA7 proxy — SPEC92's seven NASA Ames kernels (1204 lines, 38
//! arrays in the paper).
//!
//! NASA7 is a medley: complex matmul, 2-D FFT, Cholesky, block
//! tridiagonal, vortex generation, emission, and Gaussian elimination.
//! The proxy includes three representative members — a matmul, a
//! power-of-two FFT stage, and a GMTRY-style back substitution — over
//! shared arrays, so the program mixes linear-algebra and butterfly
//! access like the original.

use pad_ir::{ArrayBuilder, Loop, Program, Stmt, Subscript};

use crate::util::{at1, at2};

/// Base matrix order.
pub const DEFAULT_N: i64 = 128;

/// Builds the three-kernel medley.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("NASA7");
    b.source_lines(1204);
    let a = b.add_array(ArrayBuilder::new("A", [n, n]));
    let bb = b.add_array(ArrayBuilder::new("B", [n, n]));
    let c = b.add_array(ArrayBuilder::new("C", [n, n]));
    let xr = b.add_array(ArrayBuilder::new("XR", [2 * n * n]));
    let xi = b.add_array(ArrayBuilder::new("XI", [2 * n * n]));
    let rhs = b.add_array(ArrayBuilder::new("RHS", [n]));
    let half = n * n;

    // MXM: matrix multiply (truncated outer loop as in MULT).
    b.push(Stmt::loop_(
        Loop::new("j", 1, 16.min(n)),
        vec![Stmt::loop_(
            Loop::new("k", 1, n),
            vec![
                Stmt::refs(vec![at2(bb, "k", 0, "j", 0)]),
                Stmt::loop_(
                    Loop::new("i", 1, n),
                    vec![Stmt::refs(vec![
                        at2(c, "i", 0, "j", 0),
                        at2(a, "i", 0, "k", 0),
                        at2(c, "i", 0, "j", 0).write(),
                    ])],
                ),
            ],
        )],
    ));
    // CFFT2D: one butterfly stage at half-array distance.
    b.push(Stmt::loop_(
        Loop::new("i", 1, half),
        vec![Stmt::refs(vec![
            at1(xr, "i", 0),
            xr.at([Subscript::var_offset("i", half)]),
            at1(xi, "i", 0),
            xi.at([Subscript::var_offset("i", half)]),
            at1(xr, "i", 0).write(),
            xi.at([Subscript::var_offset("i", half)]).write(),
        ])],
    ));
    // GMTRY-style back substitution over A.
    b.push(Stmt::loop_(
        Loop::new("k", 1, 16.min(n - 1)),
        vec![Stmt::loop_(
            Loop::new("i", Subscript::var_offset("k", 1), n),
            vec![Stmt::refs(vec![
                at2(a, "i", 0, "k", 0),
                at1(rhs, "k", 0),
                at1(rhs, "i", 0),
                at1(rhs, "i", 0).write(),
            ])],
        )],
    ));
    b.build().expect("NASA7 spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(32);
        assert_eq!(p.arrays().len(), 6);
        assert!(p.ref_groups().len() >= 4);
    }

    #[test]
    fn butterfly_arrays_conflict_at_power_of_two() {
        // XR and XI are 2n² doubles; at n=128 each is 256 KiB, so their
        // bases and the half-distance butterflies alias a 16 KiB cache.
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(
            outcome.stats.arrays_inter_padded > 0,
            "{:?}",
            outcome.events
        );
    }
}
