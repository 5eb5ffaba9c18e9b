//! WAVE5 proxy — SPEC95 Maxwell's-equations particle-in-cell plasma code
//! (7764 lines, 57 arrays in the paper).
//!
//! WAVE5 alternates field solves on 2-D grids (uniform stencils) with
//! particle pushes that gather/scatter at particle positions
//! (indirection). The proxy keeps both phases: conforming field arrays
//! with stencil updates, and a particle phase whose grid accesses use
//! scaled subscripts standing in for position-dependent indexing.

use pad_ir::{ArrayBuilder, ArrayId, IndexVar, Loop, Program, Stmt, Subscript};

use crate::util::{at1, at2};

/// Field grid size (particle count = 8·n²).
pub const DEFAULT_N: i64 = 256;

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 8] = ["EX", "EY", "BZ", "RHO", "JX", "JY", "PX", "PV"];

/// Builds the field-solve and particle-push phases.
pub fn spec(n: i64) -> Program {
    let np = 8 * n;
    let mut b = Program::builder("WAVE5");
    b.source_lines(7764);
    let grids: Vec<ArrayId> = ["EX", "EY", "BZ", "JX", "JY"]
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [n, n])))
        .collect();
    let [ex, ey, bz, jx, jy] = grids[..] else {
        unreachable!()
    };
    // The charge grid is deposited through particle positions; the proxy
    // keeps it linearized so the scaled stand-in for indirection stays in
    // bounds.
    let rho = b.add_array(ArrayBuilder::new("RHO", [2 * np]));
    let px = b.add_array(ArrayBuilder::new("PX", [2 * np]));
    let pv = b.add_array(ArrayBuilder::new("PV", [2 * np]));

    // Field solve: curl updates on staggered grids.
    b.push(Stmt::loop_nest(
        [Loop::new("j", 2, n - 1), Loop::new("i", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(bz, "i", 0, "j", 0),
            at2(bz, "i", -1, "j", 0),
            at2(jx, "i", 0, "j", 0),
            at2(ex, "i", 0, "j", 0),
            at2(ex, "i", 0, "j", 0).write(),
            at2(bz, "i", 0, "j", -1),
            at2(jy, "i", 0, "j", 0),
            at2(ey, "i", 0, "j", 0),
            at2(ey, "i", 0, "j", 0).write(),
        ])],
    ));
    b.push(Stmt::loop_nest(
        [Loop::new("j", 2, n - 1), Loop::new("i", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(ex, "i", 0, "j", 1),
            at2(ex, "i", 0, "j", 0),
            at2(ey, "i", 1, "j", 0),
            at2(ey, "i", 0, "j", 0),
            at2(bz, "i", 0, "j", 0),
            at2(bz, "i", 0, "j", 0).write(),
        ])],
    ));
    // Particle push: sequential particle state, gathered charge deposit.
    let deposit = Subscript::from_terms([(IndexVar::new("p"), 2)], -1);
    b.push(Stmt::loop_(
        Loop::new("p", 1, np),
        vec![Stmt::refs(vec![
            at1(px, "p", 0),
            at1(pv, "p", 0),
            at1(pv, "p", 0).write(),
            at1(px, "p", 0).write(),
            rho.at([deposit.clone()]),
            rho.at([deposit]).write(),
        ])],
    ));
    b.build().expect("WAVE5 spec is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{uniform_ref_fraction, PaddingConfig, PaddingPipeline};

    #[test]
    fn mixes_uniform_fields_with_opaque_particles() {
        let p = spec(64);
        let f = uniform_ref_fraction(&p);
        assert!(f > 0.7 && f < 1.0, "fraction {f}");
    }

    #[test]
    fn field_arrays_attract_padding_at_aliasing_sizes() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.layout.check_no_overlap());
        assert!(
            outcome.stats.arrays_inter_padded > 0,
            "{:?}",
            outcome.events
        );
    }
}
