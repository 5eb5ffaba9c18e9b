//! APSI proxy — SPEC95 pseudospectral air-pollution model (7361 lines,
//! 23 arrays in the paper).
//!
//! APSI advances temperature/wind/pollutant fields on a 3-D grid with
//! vertical FFT-based solves. The proxy keeps a set of conforming rank-3
//! field arrays updated by vertical sweeps and horizontal stencils.
//! Dropped: the spectral transforms (APSI's grid — 112×112×16 by
//! default — is not power-of-two, and its padding activity in Table 2 is
//! modest).

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at3;

/// Horizontal grid size (vertical fixed at 16 levels).
pub const DEFAULT_N: i64 = 112;

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 6] = ["T", "U", "V", "W", "C", "DKZ"];

/// Builds vertical-solve and horizontal-advection nests.
pub fn spec(n: i64) -> Program {
    let levels = 16;
    let mut b = Program::builder("APSI");
    b.source_lines(7361);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [n, n, levels])))
        .collect();
    let [t, u, v, w, c, dkz] = ids[..] else {
        unreachable!()
    };

    // Horizontal advection of the pollutant field.
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, levels),
            Loop::new("j", 2, n - 1),
            Loop::new("i", 2, n - 1),
        ],
        vec![Stmt::refs(vec![
            at3(c, "i", -1, "j", 0, "k", 0),
            at3(c, "i", 1, "j", 0, "k", 0),
            at3(c, "i", 0, "j", -1, "k", 0),
            at3(c, "i", 0, "j", 1, "k", 0),
            at3(u, "i", 0, "j", 0, "k", 0),
            at3(v, "i", 0, "j", 0, "k", 0),
            at3(c, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    // Vertical diffusion solve (plane-strided recurrence).
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 2, levels),
            Loop::new("j", 1, n),
            Loop::new("i", 1, n),
        ],
        vec![Stmt::refs(vec![
            at3(t, "i", 0, "j", 0, "k", -1),
            at3(dkz, "i", 0, "j", 0, "k", 0),
            at3(w, "i", 0, "j", 0, "k", 0),
            at3(t, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    b.build().expect("APSI spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(32);
        assert_eq!(p.arrays().len(), 6);
        assert_eq!(p.ref_groups().len(), 2);
    }

    #[test]
    fn pad_runs_cleanly() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.layout.check_no_overlap());
        assert!(outcome.stats.size_increase_percent < 1.0);
    }
}
