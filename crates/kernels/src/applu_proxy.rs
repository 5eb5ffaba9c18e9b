//! APPLU proxy — NAS parabolic/elliptic PDE solver (3417 lines, 34
//! arrays in the paper).
//!
//! APPLU performs SSOR sweeps with lower/upper triangular solves over a
//! 3-D grid, giving it wavefront-ordered accesses with both unit and
//! plane strides. The proxy keeps the SSOR structure on folded rank-3
//! arrays; dropped: the Jacobian assembly and the wavefront skewing
//! (modeled as ordinary sweeps, which preserves the stride mix).

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at3;

/// Cube size.
pub const DEFAULT_N: i64 = 32;

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 4] = ["U", "RSD", "FLUX", "D"];

/// Builds the lower and upper SSOR sweeps.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("APPLU");
    b.source_lines(3417);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [5 * n, n, n])))
        .collect();
    let [u, rsd, flux, d] = ids[..] else {
        unreachable!()
    };

    // Residual with neighbours in all three directions.
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 2, n - 1),
            Loop::new("j", 2, n - 1),
            Loop::new("i", 6, 5 * n - 5),
        ],
        vec![Stmt::refs(vec![
            at3(u, "i", -5, "j", 0, "k", 0),
            at3(u, "i", 5, "j", 0, "k", 0),
            at3(u, "i", 0, "j", -1, "k", 0),
            at3(u, "i", 0, "j", 1, "k", 0),
            at3(u, "i", 0, "j", 0, "k", -1),
            at3(u, "i", 0, "j", 0, "k", 1),
            at3(flux, "i", 0, "j", 0, "k", 0),
            at3(rsd, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    // Lower-triangular sweep.
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 2, n),
            Loop::new("j", 2, n),
            Loop::new("i", 6, 5 * n),
        ],
        vec![Stmt::refs(vec![
            at3(rsd, "i", -5, "j", 0, "k", 0),
            at3(rsd, "i", 0, "j", -1, "k", 0),
            at3(rsd, "i", 0, "j", 0, "k", -1),
            at3(d, "i", 0, "j", 0, "k", 0),
            at3(rsd, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    // Upper-triangular sweep (reverse direction).
    b.push(Stmt::loop_nest(
        [
            Loop::with_step("k", n - 1, 1, -1),
            Loop::with_step("j", n - 1, 1, -1),
            Loop::with_step("i", 5 * n - 5, 1, -1),
        ],
        vec![Stmt::refs(vec![
            at3(rsd, "i", 5, "j", 0, "k", 0),
            at3(rsd, "i", 0, "j", 1, "k", 0),
            at3(rsd, "i", 0, "j", 0, "k", 1),
            at3(u, "i", 0, "j", 0, "k", 0),
            at3(u, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    b.build().expect("APPLU spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(8);
        assert_eq!(p.arrays().len(), 4);
        assert_eq!(p.ref_groups().len(), 3);
    }

    #[test]
    fn reverse_sweeps_trace_correctly() {
        use pad_core::DataLayout;
        use pad_trace::count_accesses;
        let p = spec(6);
        let layout = DataLayout::original(&p);
        assert!(count_accesses(&p, &layout) > 0);
    }

    #[test]
    fn pad_runs_cleanly() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.layout.check_no_overlap());
    }
}
