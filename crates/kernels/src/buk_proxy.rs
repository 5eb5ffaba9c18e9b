//! BUK proxy — NAS integer bucket sort (305 lines, 5 arrays).
//!
//! Bucket sort is dominated by indirection: `count(key(i))` histograms
//! and scatter stores. Like IRR, the analysis can prove nothing about
//! indirect references; the proxy marks them with non-unit coefficient
//! subscripts, which are equally non-uniform. The paper's Table 2 shows
//! BUK with a single padded array (the one unit-stride key stream) —
//! this proxy preserves exactly that split.

use pad_ir::{ArrayBuilder, IndexVar, Loop, Program, Stmt, Subscript};

use crate::util::at1;

/// Number of keys.
pub const DEFAULT_N: i64 = 65_536;

/// Builds the bucket-sort proxy over `n` keys.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("BUK");
    b.source_lines(305);
    let key = b.add_array(ArrayBuilder::new("KEY", [n]));
    let rank = b.add_array(ArrayBuilder::new("RANK", [n]));
    let count = b.add_array(ArrayBuilder::new("COUNT", [2 * n]));
    let keyout = b.add_array(ArrayBuilder::new("KEYOUT", [2 * n]));
    let scaled = |c: i64| Subscript::from_terms([(IndexVar::new("i"), c)], 0);

    // Histogram: read keys sequentially, bump an unpredictable counter.
    b.push(Stmt::loop_(
        Loop::new("i", 1, n),
        vec![Stmt::refs(vec![
            at1(key, "i", 0),
            count.at([scaled(2)]),
            count.at([scaled(2)]).write(),
        ])],
    ));
    // Scatter: sequential read, indirect write.
    b.push(Stmt::loop_(
        Loop::new("i", 1, n),
        vec![Stmt::refs(vec![
            at1(key, "i", 0),
            at1(rank, "i", 0),
            keyout.at([scaled(2)]).write(),
        ])],
    ));
    b.build().expect("BUK spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{uniform_ref_fraction, PaddingConfig, PaddingPipeline};

    #[test]
    fn indirection_lowers_uniform_fraction() {
        let p = spec(1024);
        let f = uniform_ref_fraction(&p);
        assert!(f < 0.70, "fraction {f}");
    }

    #[test]
    fn analysis_cannot_pad_the_indirect_arrays() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert_eq!(outcome.stats.arrays_intra_padded, 0);
        assert!(outcome.layout.check_no_overlap());
    }
}
