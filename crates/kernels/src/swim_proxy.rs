//! SWIM proxy — SPEC95's shallow-water benchmark (429 lines, 14 arrays).
//!
//! SWIM is the SPEC packaging of the same shallow-water model as
//! [`crate::shal`], run on a 513 × 513 grid. The proxy therefore reuses
//! the SHAL nests verbatim at SWIM's grid size. What is dropped from the
//! real benchmark: initialization, I/O, and the periodic-boundary copy
//! loops, none of which touch the conflict behaviour of the main sweeps.

use pad_ir::Program;

/// SWIM's grid size (arrays are 513 × 513).
pub const DEFAULT_N: i64 = 512;

/// Builds the proxy at grid size `n`.
pub fn spec(n: i64) -> Program {
    crate::shal::spec_named("SWIM", 429, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn swim_shares_shal_structure() {
        let p = spec(64);
        assert_eq!(p.name(), "SWIM");
        assert_eq!(p.arrays().len(), 14);
    }

    #[test]
    fn odd_grid_still_benefits_from_analysis() {
        // 513-wide columns are not power-of-two, but 14 conforming arrays
        // still produce inter-variable collisions PAD can clear.
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.layout.check_no_overlap());
    }
}
