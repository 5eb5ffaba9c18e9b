//! The seeded program generator shared by the property and model
//! differential suites.

use pad_cache_sim::{CacheConfig, XorShift64Star};
use pad_ir::{ArrayBuilder, Loop, Program, Stmt, Subscript};

/// Number of generated (program, cache) cases.
pub const CASES: u64 = 100;

/// One generated case: a small loop nest over 1–3 arrays of rank 1–2
/// plus a direct-mapped cache the arrays comfortably overflow.
pub fn random_case(case: u64) -> (Program, CacheConfig) {
    let mut rng = XorShift64Star::new(0x9E37_79B9 ^ (case + 1));
    let n_arrays = rng.range(1, 3) as usize;
    let mut b = Program::builder(format!("RAND{case}"));
    let mut ids = Vec::new();
    let mut min_dim = i64::MAX;
    for a in 0..n_arrays {
        let rank = rng.range(1, 2);
        let mut dims = Vec::new();
        for _ in 0..rank {
            let d = rng.range(15, 40) as i64;
            min_dim = min_dim.min(d);
            dims.push(d);
        }
        let id = b.add_array(ArrayBuilder::new(format!("A{a}"), dims.clone()));
        ids.push((id, dims));
    }

    // One 2-D nest; every array is referenced 1–3 times with stencil
    // offsets, and the last reference of the last array is the write.
    let hi = min_dim - 1;
    let mut refs = Vec::new();
    for (id, dims) in &ids {
        let n_refs = rng.range(1, 3);
        for _ in 0..n_refs {
            let o0 = rng.range(0, 2) as i64 - 1;
            let r = if dims.len() == 1 {
                id.at([Subscript::var_offset("j", o0)])
            } else {
                let o1 = rng.range(0, 2) as i64 - 1;
                id.at([
                    Subscript::var_offset("j", o0),
                    Subscript::var_offset("i", o1),
                ])
            };
            refs.push(r);
        }
    }
    let last = refs.len() - 1;
    refs[last] = refs[last].clone().write();
    b.push(Stmt::loop_nest(
        [Loop::new("i", 2, hi), Loop::new("j", 2, hi)],
        vec![Stmt::refs(refs)],
    ));
    let program = b.build().expect("generated program is well-formed");

    let size = 512u64 << rng.range(0, 3); // 512..4096
    let line = 16u64 << rng.range(0, 1); // 16 or 32
    (program, CacheConfig::direct_mapped(size, line))
}
