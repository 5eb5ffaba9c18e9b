//! TURB3D proxy — SPEC95 isotropic turbulence (2100 lines, 9 arrays in
//! the paper's table).
//!
//! TURB3D spends its time in 3-D FFTs over power-of-two cubes: butterfly
//! passes with power-of-two strides, the pattern most hostile to a
//! power-of-two cache. True butterflies index `x(i)` and `x(i + 2^s)`
//! with a varying stage `s`; the proxy unrolls three representative
//! stages as separate nests (small, column, and plane strides) over the
//! velocity fields. Dropped: twiddle factors, bit-reversal, and the
//! spectral physics.

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at3;

/// Cube size (SPEC runs 64³).
pub const DEFAULT_N: i64 = 64;

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 6] = ["UR", "UI", "VR", "VI", "WR", "WI"];

/// Builds three butterfly-stage nests per field pair.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("TURB3D");
    b.source_lines(2100);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [n, n, n])))
        .collect();
    let [ur, ui, vr, vi, wr, wi] = ids[..] else {
        unreachable!()
    };

    let half = n / 2;
    // Stage with unit-dimension distance n/2 (the first butterfly).
    for (re, im) in [(ur, ui), (vr, vi), (wr, wi)] {
        b.push(Stmt::loop_nest(
            [
                Loop::new("k", 1, n),
                Loop::new("j", 1, n),
                Loop::new("i", 1, half),
            ],
            vec![Stmt::refs(vec![
                at3(re, "i", 0, "j", 0, "k", 0),
                at3(re, "i", half, "j", 0, "k", 0),
                at3(im, "i", 0, "j", 0, "k", 0),
                at3(im, "i", half, "j", 0, "k", 0),
                at3(re, "i", 0, "j", 0, "k", 0).write(),
                at3(re, "i", half, "j", 0, "k", 0).write(),
            ])],
        ));
    }
    // Column-direction butterfly (distance n/2 columns).
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, n),
            Loop::new("j", 1, half),
            Loop::new("i", 1, n),
        ],
        vec![Stmt::refs(vec![
            at3(ur, "i", 0, "j", 0, "k", 0),
            at3(ur, "i", 0, "j", half, "k", 0),
            at3(ur, "i", 0, "j", 0, "k", 0).write(),
            at3(ur, "i", 0, "j", half, "k", 0).write(),
        ])],
    ));
    // Plane-direction butterfly (distance n/2 planes).
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, half),
            Loop::new("j", 1, n),
            Loop::new("i", 1, n),
        ],
        vec![Stmt::refs(vec![
            at3(ur, "i", 0, "j", 0, "k", 0),
            at3(ur, "i", 0, "j", 0, "k", half),
            at3(ur, "i", 0, "j", 0, "k", 0).write(),
            at3(ur, "i", 0, "j", 0, "k", half).write(),
        ])],
    ));
    b.build().expect("TURB3D spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(16);
        assert_eq!(p.arrays().len(), 6);
        assert_eq!(p.ref_groups().len(), 5);
    }

    #[test]
    fn butterfly_strides_trigger_padding() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        // The plane-distance butterfly (32 planes * 32 KiB = 1 MiB apart,
        // a multiple of 16 KiB) must be broken up by intra padding.
        assert!(
            outcome.stats.arrays_intra_padded > 0 || outcome.stats.arrays_inter_padded > 0,
            "{:?}",
            outcome.events
        );
    }
}
