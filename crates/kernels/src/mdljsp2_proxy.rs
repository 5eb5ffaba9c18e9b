//! MDLJSP2 proxy — SPEC92 molecular dynamics, *single* precision
//! (3885 lines, 23 arrays in the paper).
//!
//! Identical structure to [`crate::mdljdp2_proxy`] with 4-byte elements —
//! which exercises the analysis's element-size handling: conflict
//! distances halve, and arrays of the same element count are half the
//! size, so the aliasing problem sizes differ from the DP variant.

use pad_ir::Program;

/// Atom count.
pub const DEFAULT_N: i64 = 8192;

/// Element size for this variant (single precision).
pub const ELEM_SIZE: u32 = 4;

/// Builds the single-precision variant.
pub fn spec(n: i64) -> Program {
    crate::mdljdp2_proxy::spec_sized("MDLJSP2", 3885, n, ELEM_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn uses_four_byte_elements() {
        let p = spec(64);
        assert!(p.arrays().iter().all(|a| a.elem_size() == 4));
    }

    #[test]
    fn aliases_at_its_own_sizes() {
        // 8192 floats = 32 KiB per vector: same aliasing as the DP
        // variant at twice the element count.
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.stats.arrays_inter_padded > 0);
        assert!(outcome.layout.check_no_overlap());
    }
}
