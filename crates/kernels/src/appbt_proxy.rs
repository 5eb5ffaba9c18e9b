//! APPBT proxy — NAS block-tridiagonal PDE solver (4441 lines, 42 arrays
//! in the paper).
//!
//! APPBT factors 5×5 blocks along lines of a 3-D grid. The proxy keeps
//! the two access shapes that matter: block-strided sweeps over rank-3
//! state arrays (the `5·n` folded component dimension, as in the APPSP
//! proxy) and the small dense per-cell block solves that make APPBT's
//! reuse more register- than cache-bound — which is why the paper's
//! Table 2 shows modest padding activity for it. Dropped: the actual
//! Gaussian block inverses and boundary handling.

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at3;

/// Cube size.
pub const DEFAULT_N: i64 = 32;

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 5] = ["U", "RHS", "LHSA", "LHSB", "LHSC"];

/// Builds the proxy's sweeps on a `5n × n × n` layout.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("APPBT");
    b.source_lines(4441);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [5 * n, n, n])))
        .collect();
    let [u, rhs, lhsa, lhsb, lhsc] = ids[..] else {
        unreachable!()
    };

    // Flux computation along x.
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, n),
            Loop::new("j", 1, n),
            Loop::new("i", 6, 5 * n - 5),
        ],
        vec![Stmt::refs(vec![
            at3(u, "i", -5, "j", 0, "k", 0),
            at3(u, "i", 0, "j", 0, "k", 0),
            at3(u, "i", 5, "j", 0, "k", 0),
            at3(rhs, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    // Block-tridiagonal forward elimination along y: three coefficient
    // blocks per cell.
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, n),
            Loop::new("j", 2, n),
            Loop::new("i", 1, 5 * n),
        ],
        vec![Stmt::refs(vec![
            at3(lhsa, "i", 0, "j", 0, "k", 0),
            at3(lhsb, "i", 0, "j", 0, "k", 0),
            at3(lhsc, "i", 0, "j", -1, "k", 0),
            at3(rhs, "i", 0, "j", -1, "k", 0),
            at3(rhs, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    // Back substitution along z.
    b.push(Stmt::loop_nest(
        [
            Loop::with_step("k", 1, n - 1, 1),
            Loop::new("j", 1, n),
            Loop::new("i", 1, 5 * n),
        ],
        vec![Stmt::refs(vec![
            at3(rhs, "i", 0, "j", 0, "k", 1),
            at3(lhsc, "i", 0, "j", 0, "k", 0),
            at3(u, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    b.build().expect("APPBT spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(8);
        assert_eq!(p.arrays().len(), 5);
        assert_eq!(p.ref_groups().len(), 3);
    }

    #[test]
    fn pad_runs_cleanly() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.layout.check_no_overlap());
    }
}
