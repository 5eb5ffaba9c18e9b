//! RB — 2-D red-black over-relaxation (52 lines, 1 global array).
//!
//! Successive over-relaxation with a red/black ordering: the grid is
//! swept twice per iteration, visiting alternate points with stride-2
//! inner loops. A single array means only *intra*-variable effects (and
//! self-conflicts between columns) matter, which is why the paper's
//! Figure 11 shows RB benefiting from padding mainly at small cache
//! sizes.
//!
//! The true red-black ordering offsets the inner start by the outer
//! index's parity; an affine IR cannot express `mod`, so each color is
//! approximated by a pair of stride-2 nests covering both phases. The
//! native implementation performs the exact ordering.

use pad_ir::{Loop, Program, Stmt};

use crate::util::at2;
use crate::workspace::Workspace;

/// Paper problem size (`RB512`).
pub const DEFAULT_N: i64 = 512;

/// Relaxation factor used by the native kernel.
pub const OMEGA: f64 = 1.5;

/// Sweeps performed by the native kernel.
pub const NATIVE_SWEEPS: usize = 4;

/// Builds the red-black relaxation nests at problem size `n`.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("RB512");
    b.source_lines(52);
    let a = b.add_array(pad_ir::ArrayBuilder::new("A", [n, n]));
    for start in [2i64, 3] {
        b.push(Stmt::loop_nest(
            [
                Loop::new("i", 2, n - 1),
                Loop::with_step("j", start, n - 1, 2),
            ],
            vec![Stmt::refs(vec![
                at2(a, "j", -1, "i", 0),
                at2(a, "j", 1, "i", 0),
                at2(a, "j", 0, "i", -1),
                at2(a, "j", 0, "i", 1),
                at2(a, "j", 0, "i", 0),
                at2(a, "j", 0, "i", 0).write(),
            ])],
        ));
    }
    b.build().expect("RB spec is well-formed")
}

/// Runs [`NATIVE_SWEEPS`] exact red-black SOR sweeps.
pub fn run_native(ws: &mut Workspace, n: i64) {
    let a = ws.array("A");
    let a0 = ws.base_word(a);
    let col = ws.strides(a)[1];
    let n = n as usize;
    let buf = ws.words_mut();
    for _ in 0..NATIVE_SWEEPS {
        for color in 0..2usize {
            for i in 2..n {
                let start = 2 + (i + color) % 2;
                let mut j = start;
                while j < n {
                    let c = a0 + (j - 1) + (i - 1) * col;
                    let gs = 0.25 * (buf[c - 1] + buf[c + 1] + buf[c - col] + buf[c + col]);
                    buf[c] += OMEGA * (gs - buf[c]);
                    j += 2;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::DataLayout;

    #[test]
    fn spec_shape() {
        let p = spec(64);
        assert_eq!(p.arrays().len(), 1);
        assert_eq!(p.ref_groups().len(), 2);
    }

    #[test]
    fn native_converges_toward_boundary_average() {
        let p = spec(16);
        let mut ws = Workspace::new(&p, DataLayout::original(&p));
        let a = ws.array("A");
        // Boundary fixed at 1.0, interior 0: SOR pulls the interior up.
        for i in 1..=16i64 {
            for j in 1..=16i64 {
                if i == 1 || i == 16 || j == 1 || j == 16 {
                    ws.set(a, &[j, i], 1.0);
                }
            }
        }
        run_native(&mut ws, 16);
        let center = ws.get(a, &[8, 8]);
        assert!(center > 0.0 && center <= 1.0, "center = {center}");
    }

    #[test]
    fn padded_run_matches_plain() {
        use pad_core::{PaddingConfig, PaddingPipeline};
        let p = spec(24);
        let a = p.arrays_with_ids().next().expect("has A").0;
        let mut plain = Workspace::new(&p, DataLayout::original(&p));
        plain.fill_pattern(a, 5);
        run_native(&mut plain, 24);

        let outcome = PaddingPipeline::pad(PaddingConfig::new(1024, 32).expect("valid")).run(&p);
        let mut padded = Workspace::new(&p, outcome.layout);
        padded.fill_pattern(a, 5);
        run_native(&mut padded, 24);
        assert_eq!(plain.checksum(a), padded.checksum(a));
    }
}
