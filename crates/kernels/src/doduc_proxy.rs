//! DODUC proxy — SPEC92 thermohydraulics Monte Carlo (5334 lines, 91
//! arrays in the paper — the most of any benchmark).
//!
//! DODUC models a nuclear reactor with dozens of *small* state arrays
//! updated by mostly scalar code. The proxy mirrors that profile: many
//! small 1-D arrays touched a few at a time with unit stride. Small
//! arrays rarely alias, so padding activity is minimal — matching the
//! near-empty DODUC row of Table 2.

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at1;

/// State-vector length.
pub const DEFAULT_N: i64 = 200;

/// Number of state arrays.
pub const NUM_ARRAYS: usize = 24;

/// Builds the many-small-arrays proxy.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("DODUC");
    b.source_lines(5334);
    let ids: Vec<ArrayId> = (0..NUM_ARRAYS)
        .map(|k| b.add_array(ArrayBuilder::new(format!("S{k:02}"), [n])))
        .collect();
    // Each phase reads a handful of state vectors and updates one.
    for phase in 0..6usize {
        let dst = ids[phase * 4];
        let srcs = [ids[phase * 4 + 1], ids[phase * 4 + 2], ids[phase * 4 + 3]];
        b.push(Stmt::loop_(
            Loop::new("i", 1, n),
            vec![Stmt::refs(vec![
                at1(srcs[0], "i", 0),
                at1(srcs[1], "i", 0),
                at1(srcs[2], "i", 0),
                at1(dst, "i", 0).write(),
            ])],
        ));
    }
    b.build().expect("DODUC spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn many_small_arrays() {
        let p = spec(DEFAULT_N);
        assert_eq!(p.arrays().len(), NUM_ARRAYS);
        assert_eq!(p.ref_groups().len(), 6);
    }

    #[test]
    fn small_arrays_need_no_padding() {
        // 200 doubles = 1.6 KiB per array: ten fit in the cache at once,
        // and equal sizes only collide when the whole group exceeds Cs.
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert_eq!(outcome.stats.arrays_intra_padded, 0);
        assert!(outcome.stats.size_increase_percent < 2.0);
    }
}
