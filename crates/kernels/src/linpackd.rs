//! LINPACKD — the LINPACK driver (795 lines, 6 global arrays).
//!
//! The driver allocates the matrix and workspace vectors and passes them
//! to `dgefa`/`dgesl` as procedure parameters. Passing an array to a
//! procedure makes changing its *shape* unsafe (the callee declares its
//! own dimensions), so almost nothing is intra-paddable — the property
//! behind LINPACKD's near-blank row in the paper's Table 2. Base
//! addresses may still move.

use pad_ir::{ArrayBuilder, Loop, Program, Stmt, Subscript};

use crate::util::{at1, at2};

/// Matrix order used by the driver.
pub const DEFAULT_N: i64 = 256;

/// Elimination steps included in the simulated trace.
pub const DEFAULT_STEPS: i64 = 16;

/// Builds the driver: a `dgefa`-shaped elimination on a
/// parameter-passed matrix plus the solve's vector sweeps.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("LINPACKD");
    b.source_lines(795);
    let a = b.add_array(ArrayBuilder::new("A", [n, n]).passed_as_parameter(true));
    let bv = b.add_array(ArrayBuilder::new("B", [n]).passed_as_parameter(true));
    let x = b.add_array(ArrayBuilder::new("X", [n]).passed_as_parameter(true));
    let ipvt = b.add_array(ArrayBuilder::new("IPVT", [n]).passed_as_parameter(true));
    let work = b.add_array(ArrayBuilder::new("WORK", [n]).passed_as_parameter(true));
    let resid = b.add_array(ArrayBuilder::new("RESID", [n]));

    // dgefa body (truncated elimination).
    b.push(Stmt::loop_(
        Loop::new("k", 1, DEFAULT_STEPS.min(n - 1)),
        vec![
            Stmt::loop_(
                Loop::new("i", Subscript::var_offset("k", 1), n),
                vec![Stmt::refs(vec![
                    at2(a, "i", 0, "k", 0),
                    at2(a, "i", 0, "k", 0).write(),
                ])],
            ),
            Stmt::refs(vec![at1(ipvt, "k", 0).write()]),
            Stmt::loop_(
                Loop::new("j", Subscript::var_offset("k", 1), n),
                vec![Stmt::loop_(
                    Loop::new("i", Subscript::var_offset("k", 1), n),
                    vec![Stmt::refs(vec![
                        at2(a, "i", 0, "j", 0),
                        at2(a, "i", 0, "k", 0),
                        at2(a, "i", 0, "j", 0).write(),
                    ])],
                )],
            ),
        ],
    ));
    // dgesl-style sweeps plus residual check.
    b.push(Stmt::loop_(
        Loop::new("i", 1, n),
        vec![Stmt::refs(vec![
            at1(bv, "i", 0),
            at1(work, "i", 0),
            at1(x, "i", 0).write(),
        ])],
    ));
    b.push(Stmt::loop_(
        Loop::new("i", 1, n),
        vec![Stmt::refs(vec![
            at1(x, "i", 0),
            at1(bv, "i", 0),
            at1(resid, "i", 0).write(),
        ])],
    ));
    b.build().expect("LINPACKD spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn parameters_block_intra_padding() {
        let p = spec(256);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        // 256-column matrix would normally attract LINPAD2, but A is a
        // parameter; only RESID is safe, and it is 1-D.
        assert_eq!(outcome.stats.arrays_intra_padded, 0);
        assert_eq!(outcome.stats.arrays_safe, 0);
    }

    #[test]
    fn base_addresses_may_still_move() {
        let p = spec(2048); // vectors alias the 16K cache at this size
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.layout.check_no_overlap());
    }
}
