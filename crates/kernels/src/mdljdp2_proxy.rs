//! MDLJDP2 proxy — SPEC92 molecular dynamics, double precision
//! (4316 lines, 25 arrays in the paper).
//!
//! Lennard-Jones MD: position/velocity/force vectors updated with unit
//! stride, plus a pair-interaction phase that gathers neighbours through
//! a list (modeled with scaled subscripts). Table 2 shows MDLJDP2 with
//! modest inter-variable padding and Figure 14 shows it benefiting from
//! PAD's precision on a 2 K cache — the equal-sized coordinate vectors
//! are the aliasing hazard.

use pad_ir::{ArrayBuilder, IndexVar, Loop, Program, Stmt, Subscript};

use crate::util::at1;

/// Atom count.
pub const DEFAULT_N: i64 = 4096;

/// Element size for this variant (double precision).
pub const ELEM_SIZE: u32 = 8;

/// Builds the MD proxy. `elem_size` distinguishes the DP/SP variants.
pub(crate) fn spec_sized(name: &str, lines: u32, n: i64, elem_size: u32) -> Program {
    let mut b = Program::builder(name);
    b.source_lines(lines);
    let names = ["X", "Y", "Z", "VX", "VY", "VZ", "FX", "FY", "FZ"];
    let ids: Vec<_> = names
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [n]).elem_size(elem_size)))
        .collect();
    let list = b.add_array(ArrayBuilder::new("LIST", [4 * n]).elem_size(elem_size));
    // Neighbour coordinates are fetched through the list; the scaled
    // stand-in for that indirection needs a full-width target.
    let xnb = b.add_array(ArrayBuilder::new("XNB", [4 * n]).elem_size(elem_size));
    let [x, y, z, vx, vy, vz, fx, fy, fz] = ids[..] else {
        unreachable!()
    };
    let gather = Subscript::from_terms([(IndexVar::new("i"), 4)], -3);

    // Pair forces: own coordinates sequential, neighbour through list.
    b.push(Stmt::loop_(
        Loop::new("i", 1, n),
        vec![Stmt::refs(vec![
            at1(x, "i", 0),
            at1(y, "i", 0),
            at1(z, "i", 0),
            list.at([gather.clone()]),
            xnb.at([gather.clone()]),
            at1(fx, "i", 0).write(),
            at1(fy, "i", 0).write(),
            at1(fz, "i", 0).write(),
        ])],
    ));
    // Leapfrog integration: all nine vectors together.
    b.push(Stmt::loop_(
        Loop::new("i", 1, n),
        vec![Stmt::refs(vec![
            at1(fx, "i", 0),
            at1(vx, "i", 0),
            at1(vx, "i", 0).write(),
            at1(x, "i", 0),
            at1(x, "i", 0).write(),
            at1(fy, "i", 0),
            at1(vy, "i", 0),
            at1(vy, "i", 0).write(),
            at1(y, "i", 0),
            at1(y, "i", 0).write(),
            at1(fz, "i", 0),
            at1(vz, "i", 0),
            at1(vz, "i", 0).write(),
            at1(z, "i", 0),
            at1(z, "i", 0).write(),
        ])],
    ));
    b.build().expect("MD spec is well-formed")
}

/// Builds the double-precision variant.
pub fn spec(n: i64) -> Program {
    spec_sized("MDLJDP2", 4316, n, ELEM_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn gather_in_x_is_not_uniform() {
        let p = spec(512);
        let f = pad_core::uniform_ref_fraction(&p);
        assert!(f > 0.8 && f < 1.0, "fraction {f}");
    }

    #[test]
    fn equal_coordinate_vectors_attract_inter_padding() {
        // 4096 doubles = 32 KiB per vector: nine equal-size vectors
        // alias the 16 KiB cache pairwise.
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(
            outcome.stats.arrays_inter_padded > 0,
            "{:?}",
            outcome.events
        );
    }
}
