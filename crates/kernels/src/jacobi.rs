//! JACOBI — 2-D Jacobi iteration with convergence test (Figure 7 of the
//! paper; 52 lines of Fortran, 2 global arrays).
//!
//! The paper's running example: a five-point stencil reads `A`'s
//! neighbours and writes `B`, then a copy nest writes `B` back into `A`.
//! At power-of-two problem sizes the two equally-sized arrays collide
//! modulo the cache size and every `B(j,i)` access conflicts with the
//! `A(j±1,i)` accesses.

use pad_ir::{Loop, Program, Stmt};

use crate::util::at2;
use crate::workspace::Workspace;

/// Paper problem size (`JACOBI512`).
pub const DEFAULT_N: i64 = 512;

/// Number of relaxation sweeps the native kernel performs.
pub const NATIVE_SWEEPS: usize = 4;

/// Builds the two JACOBI loop nests at problem size `n`.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("JACOBI512");
    b.source_lines(52);
    let a = b.add_array(pad_ir::ArrayBuilder::new("A", [n, n]));
    let bb = b.add_array(pad_ir::ArrayBuilder::new("B", [n, n]));
    b.push(Stmt::loop_nest(
        [Loop::new("i", 2, n - 1), Loop::new("j", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(a, "j", -1, "i", 0),
            at2(a, "j", 0, "i", -1),
            at2(a, "j", 1, "i", 0),
            at2(a, "j", 0, "i", 1),
            at2(bb, "j", 0, "i", 0).write(),
        ])],
    ));
    b.push(Stmt::loop_nest(
        [Loop::new("i", 2, n - 1), Loop::new("j", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(bb, "j", 0, "i", 0),
            at2(a, "j", 0, "i", 0).write(),
        ])],
    ));
    b.build().expect("JACOBI spec is well-formed")
}

/// Runs [`NATIVE_SWEEPS`] Jacobi iterations natively on a workspace built
/// from [`spec`].
pub fn run_native(ws: &mut Workspace, n: i64) {
    let a = ws.array("A");
    let b = ws.array("B");
    let a0 = ws.base_word(a);
    let b0 = ws.base_word(b);
    let acol = ws.strides(a)[1];
    let bcol = ws.strides(b)[1];
    let n = n as usize;
    let buf = ws.words_mut();
    for _ in 0..NATIVE_SWEEPS {
        for i in 2..n {
            for j in 2..n {
                let c = a0 + (j - 1) + (i - 1) * acol;
                buf[b0 + (j - 1) + (i - 1) * bcol] =
                    0.25 * (buf[c - 1] + buf[c + 1] + buf[c - acol] + buf[c + acol]);
            }
        }
        for i in 2..n {
            for j in 2..n {
                buf[a0 + (j - 1) + (i - 1) * acol] = buf[b0 + (j - 1) + (i - 1) * bcol];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{DataLayout, PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(64);
        assert_eq!(p.arrays().len(), 2);
        assert_eq!(p.ref_groups().len(), 2);
        assert_eq!(p.all_refs().len(), 7);
    }

    #[test]
    fn native_matches_under_padding() {
        let p = spec(32);
        let a = p.arrays_with_ids().next().expect("has A").0;

        let mut plain = Workspace::new(&p, DataLayout::original(&p));
        plain.fill_pattern(a, 3);
        run_native(&mut plain, 32);

        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        let mut padded = Workspace::new(&p, outcome.layout);
        padded.fill_pattern(a, 3);
        run_native(&mut padded, 32);

        assert_eq!(plain.checksum(a), padded.checksum(a));
    }

    #[test]
    fn stencil_actually_smooths() {
        let p = spec(16);
        let mut ws = Workspace::new(&p, DataLayout::original(&p));
        let a = ws.array("A");
        ws.set(a, &[8, 8], 100.0);
        run_native(&mut ws, 16);
        // The spike has diffused: the center shrank but (having re-gathered
        // mass from its neighbours on even sweeps) remains positive.
        assert!(ws.get(a, &[8, 8]) < 100.0);
        assert!(ws.get(a, &[8, 8]) > 0.0);
    }
}
