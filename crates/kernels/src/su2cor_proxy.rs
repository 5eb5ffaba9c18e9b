//! SU2COR proxy — SPEC95 quantum-chromodynamics correlation functions
//! (2332 lines, 14 arrays in the paper).
//!
//! SU2COR sweeps gauge fields on a 4-D lattice; flattened to rank-3 here
//! (the fourth dimension folds into the third, preserving strides). The
//! dominant loops stream several conforming field arrays together with
//! plane-strided neighbour accesses — inter-variable padding territory.
//! Dropped: the Monte Carlo update logic and the random gauge kicks.

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at3;

/// Lattice edge (fields are `2n × n × n` complex pairs folded to f64).
pub const DEFAULT_N: i64 = 32;

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 5] = ["U1", "U2", "PSI", "CHI", "PROP"];

/// Builds the lattice-sweep proxy.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("SU2COR");
    b.source_lines(2332);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [2 * n, n, n])))
        .collect();
    let [u1, u2, psi, chi, prop] = ids[..] else {
        unreachable!()
    };

    // Gauge-field application: psi' = U * psi with neighbours.
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 2, n - 1),
            Loop::new("j", 2, n - 1),
            Loop::new("i", 1, 2 * n),
        ],
        vec![Stmt::refs(vec![
            at3(u1, "i", 0, "j", 0, "k", 0),
            at3(u2, "i", 0, "j", 0, "k", 0),
            at3(psi, "i", 0, "j", -1, "k", 0),
            at3(psi, "i", 0, "j", 1, "k", 0),
            at3(psi, "i", 0, "j", 0, "k", -1),
            at3(psi, "i", 0, "j", 0, "k", 1),
            at3(chi, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    // Correlation accumulation.
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, n),
            Loop::new("j", 1, n),
            Loop::new("i", 1, 2 * n),
        ],
        vec![Stmt::refs(vec![
            at3(chi, "i", 0, "j", 0, "k", 0),
            at3(psi, "i", 0, "j", 0, "k", 0),
            at3(prop, "i", 0, "j", 0, "k", 0),
            at3(prop, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    b.build().expect("SU2COR spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(8);
        assert_eq!(p.arrays().len(), 5);
        assert_eq!(p.ref_groups().len(), 2);
    }

    #[test]
    fn power_of_two_lattice_attracts_padding() {
        let p = spec(DEFAULT_N); // 64x32x32 doubles: planes are 16 KiB
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(
            outcome.stats.arrays_intra_padded + outcome.stats.arrays_inter_padded > 0,
            "{:?}",
            outcome.events
        );
    }
}
