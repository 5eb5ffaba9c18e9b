//! CGM proxy — NAS sparse conjugate gradient (855 lines, 11 arrays).
//!
//! CG's hot loop is a sparse matrix-vector product: `q(i) += a(k) *
//! p(col(k))` — the gather through `col` defeats the analysis, exactly
//! like IRR. The dense vector updates (AXPYs) remain uniform. Table 2
//! shows CGM with zero arrays padded intra-variably; the proxy keeps
//! that outcome while still exercising inter-variable placement on the
//! dense vectors.

use pad_ir::{ArrayBuilder, IndexVar, Loop, Program, Stmt, Subscript};

use crate::util::at1;

/// Matrix order (vectors of this length; nonzeros at 8 per row).
pub const DEFAULT_N: i64 = 14_000;

/// Builds the CG iteration body.
pub fn spec(n: i64) -> Program {
    let nnz = 8 * n;
    let mut b = Program::builder("CGM");
    b.source_lines(855);
    let a = b.add_array(ArrayBuilder::new("A", [nnz]));
    let colidx = b.add_array(ArrayBuilder::new("COLIDX", [nnz]));
    let p = b.add_array(ArrayBuilder::new("P", [3 * n]));
    let q = b.add_array(ArrayBuilder::new("Q", [n]));
    let r = b.add_array(ArrayBuilder::new("R", [n]));
    let x = b.add_array(ArrayBuilder::new("X", [n]));
    let z = b.add_array(ArrayBuilder::new("Z", [n]));
    let gather = Subscript::from_terms([(IndexVar::new("k"), 3)], 0);

    // Sparse A*p: sequential a/colidx, gathered p, accumulated q.
    b.push(Stmt::loop_(
        Loop::new("i", 1, n),
        vec![Stmt::loop_(
            Loop::new("k", 1, 8),
            vec![Stmt::refs(vec![
                at1(a, "k", 0),
                at1(colidx, "k", 0),
                p.at([gather.clone()]),
                at1(q, "i", 0).write(),
            ])],
        )],
    ));
    // Dense AXPYs: z += alpha*p ; r -= alpha*q ; x update.
    b.push(Stmt::loop_(
        Loop::new("i", 1, n),
        vec![Stmt::refs(vec![
            at1(p, "i", 0),
            at1(z, "i", 0),
            at1(z, "i", 0).write(),
            at1(q, "i", 0),
            at1(r, "i", 0),
            at1(r, "i", 0).write(),
            at1(x, "i", 0).write(),
        ])],
    ));
    b.build().expect("CGM spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(1000);
        assert_eq!(p.arrays().len(), 7);
        // The sparse product's refs group under the inner k loop; the
        // dense AXPYs under their own i loop.
        assert_eq!(p.ref_groups().len(), 2);
    }

    #[test]
    fn no_intra_padding_like_the_paper() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert_eq!(outcome.stats.arrays_intra_padded, 0, "all arrays are 1-D");
        assert!(outcome.layout.check_no_overlap());
    }
}
