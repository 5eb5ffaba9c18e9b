//! APPSP proxy — NAS scalar-pentadiagonal PDE solver (3991 lines, 41
//! arrays in the paper).
//!
//! APPSP sweeps 5-component flow variables through the cube in all three
//! directions solving scalar pentadiagonal systems. The proxy keeps the
//! structure that drives its cache behaviour: rank-3 arrays with a small
//! leading component dimension folded in (`5·n` columns) and directional
//! sweeps whose strides are a column and a plane. Dropped: the actual
//! pentadiagonal coefficients, boundary conditions, and time-stepping
//! control.

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at3;

/// Cube size (NAS class-S-ish; the paper does not state one).
pub const DEFAULT_N: i64 = 51; // 5*51 = 255-element columns

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 4] = ["U", "RHS", "LHS", "RES"];

/// Builds the proxy's three sweeps on a `5n × n × n` layout.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("APPSP");
    b.source_lines(3991);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [5 * n, n, n])))
        .collect();
    let [u, rhs, lhs, res] = ids[..] else {
        unreachable!()
    };

    // RHS computation: neighbouring cells in the x (unit-stride)
    // direction.
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
    // y sweep: column-strided recurrence.
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, n),
            Loop::new("j", 2, n),
            Loop::new("i", 1, 5 * n),
        ],
        vec![Stmt::refs(vec![
            at3(rhs, "i", 0, "j", -1, "k", 0),
            at3(lhs, "i", 0, "j", 0, "k", 0),
            at3(rhs, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    // z sweep: plane-strided recurrence into the residual.
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 2, n),
            Loop::new("j", 1, n),
            Loop::new("i", 1, 5 * n),
        ],
        vec![Stmt::refs(vec![
            at3(rhs, "i", 0, "j", 0, "k", -1),
            at3(lhs, "i", 0, "j", 0, "k", 0),
            at3(res, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    b.build().expect("APPSP spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(12);
        assert_eq!(p.arrays().len(), 4);
        assert_eq!(p.ref_groups().len(), 3);
        assert_eq!(p.arrays()[0].dims()[0].size, 60);
    }

    #[test]
    fn pad_runs_cleanly() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.layout.check_no_overlap());
        assert!(outcome.stats.size_increase_percent < 2.0);
    }
}
