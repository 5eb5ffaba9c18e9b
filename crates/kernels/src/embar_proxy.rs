//! EMBAR proxy — NAS embarrassingly-parallel Monte Carlo (265 lines, 3
//! arrays, 80% uniform references in the paper).
//!
//! EMBAR generates pseudo-random pairs and tallies them into small
//! histogram arrays. Nearly all time is scalar arithmetic; the only array
//! traffic is a batch buffer written sequentially and ten histogram
//! counters. Padding finds nothing to do — a control point for Table 2.

use pad_ir::{ArrayBuilder, IndexVar, Loop, Program, Stmt, Subscript};

use crate::util::at1;

/// Batch size of generated randoms.
pub const DEFAULT_N: i64 = 8192;

/// Builds one Monte Carlo batch.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("EMBAR");
    b.source_lines(265);
    let xbuf = b.add_array(ArrayBuilder::new("XBUF", [2 * n]));
    // The real histogram has 10 slots hit data-dependently; the proxy
    // gives the gather a full-width target so the affine stand-in for
    // indirection stays in bounds.
    let qhist = b.add_array(ArrayBuilder::new("Q", [2 * n]));
    let sums = b.add_array(ArrayBuilder::new("SUMS", [2]));
    let bucket = Subscript::from_terms([(IndexVar::new("i"), 2)], -1);

    // Fill the batch buffer (sequential writes).
    b.push(Stmt::loop_(
        Loop::new("i", 1, 2 * n),
        vec![Stmt::refs(vec![at1(xbuf, "i", 0).write()])],
    ));
    // Tally: read a pair, bump an unpredictable histogram slot.
    b.push(Stmt::loop_(
        Loop::new("i", 1, n),
        vec![Stmt::refs(vec![
            xbuf.at([Subscript::from_terms([(IndexVar::new("i"), 2)], -1)]),
            xbuf.at([Subscript::from_terms([(IndexVar::new("i"), 2)], 0)]),
            qhist.at([bucket.clone()]),
            qhist.at([bucket.clone()]).write(),
            sums.at([Subscript::constant(1)]).write(),
        ])],
    ));
    b.build().expect("EMBAR spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{uniform_ref_fraction, PaddingConfig, PaddingPipeline};

    #[test]
    fn mostly_scalar_code_gets_no_intra_padding() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert_eq!(outcome.stats.arrays_intra_padded, 0);
        // Note: INTERPAD may still separate XBUF from Q — the scaled
        // subscripts have *equal* coefficients, so their difference is
        // constant and the generalized analysis can (correctly) see the
        // collision even though the refs are not uniformly generated in
        // the paper's syntactic sense.
        assert!(outcome.stats.inter_bytes_skipped < 128);
    }

    #[test]
    fn uniform_fraction_is_partial() {
        let p = spec(1024);
        let f = uniform_ref_fraction(&p);
        assert!(f > 0.2 && f < 0.9, "fraction {f}");
    }
}
