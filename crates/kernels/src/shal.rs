//! SHAL — shallow-water model (235 lines, 14 paddable arrays in the
//! paper; the same physics as SPEC's SWIM).
//!
//! Fourteen `(n+1) × (n+1)` arrays: velocities `U, V`, pressure `P`,
//! their `NEW`/`OLD` time levels, fluxes `CU, CV`, vorticity `Z`, height
//! `H`, and the stream function `PSI`. Because *all* of them conform,
//! power-of-two problem sizes alias many arrays simultaneously — SHAL is
//! among the biggest winners from inter-variable padding in Figure 8.

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at2;
use crate::workspace::Workspace;

/// Paper problem size (`SHAL512`).
pub const DEFAULT_N: i64 = 512;

/// The model's arrays, in declaration order.
pub const ARRAY_NAMES: [&str; 14] = [
    "U", "V", "P", "UNEW", "VNEW", "PNEW", "UOLD", "VOLD", "POLD", "CU", "CV", "Z", "H", "PSI",
];

/// Builds one time step (the three main nests of the model) at grid size
/// `n` (arrays are `(n+1) × (n+1)`).
///
/// Exposed with a custom program name so the SWIM proxy can reuse the
/// structure; see [`crate::swim_proxy`].
pub(crate) fn spec_named(name: &str, source_lines: u32, n: i64) -> Program {
    let m = n + 1;
    let mut b = Program::builder(name);
    b.source_lines(source_lines);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [m, m])))
        .collect();
    let [u, v, p, unew, vnew, pnew, uold, vold, pold, cu, cv, z, h, _psi] = ids[..] else {
        unreachable!()
    };

    // Nest 1: fluxes, vorticity, height.
    b.push(Stmt::loop_nest(
        [Loop::new("j", 1, n), Loop::new("i", 1, n)],
        vec![Stmt::refs(vec![
            at2(p, "i", 1, "j", 0),
            at2(p, "i", 0, "j", 0),
            at2(u, "i", 1, "j", 0),
            at2(cu, "i", 1, "j", 0).write(),
            at2(p, "i", 0, "j", 1),
            at2(v, "i", 0, "j", 1),
            at2(cv, "i", 0, "j", 1).write(),
            at2(v, "i", 1, "j", 1),
            at2(u, "i", 1, "j", 1),
            at2(p, "i", 1, "j", 1),
            at2(z, "i", 1, "j", 1).write(),
            at2(u, "i", 0, "j", 0),
            at2(v, "i", 0, "j", 0),
            at2(h, "i", 0, "j", 0).write(),
        ])],
    ));

    // Nest 2: new time level.
    b.push(Stmt::loop_nest(
        [Loop::new("j", 1, n), Loop::new("i", 1, n)],
        vec![Stmt::refs(vec![
            at2(uold, "i", 1, "j", 0),
            at2(z, "i", 1, "j", 1),
            at2(z, "i", 1, "j", 0),
            at2(cv, "i", 1, "j", 1),
            at2(cv, "i", 0, "j", 1),
            at2(cv, "i", 0, "j", 0),
            at2(cv, "i", 1, "j", 0),
            at2(h, "i", 1, "j", 0),
            at2(h, "i", 0, "j", 0),
            at2(unew, "i", 1, "j", 0).write(),
            at2(vold, "i", 0, "j", 1),
            at2(cu, "i", 0, "j", 1),
            at2(cu, "i", 1, "j", 1),
            at2(cu, "i", 1, "j", 0),
            at2(cu, "i", 0, "j", 0),
            at2(h, "i", 0, "j", 1),
            at2(vnew, "i", 0, "j", 1).write(),
            at2(pold, "i", 0, "j", 0),
            at2(pnew, "i", 0, "j", 0).write(),
        ])],
    ));

    // Nest 3: time smoothing.
    b.push(Stmt::loop_nest(
        [Loop::new("j", 1, n), Loop::new("i", 1, n)],
        vec![Stmt::refs(vec![
            at2(u, "i", 0, "j", 0),
            at2(unew, "i", 0, "j", 0),
            at2(uold, "i", 0, "j", 0),
            at2(uold, "i", 0, "j", 0).write(),
            at2(u, "i", 0, "j", 0).write(),
            at2(v, "i", 0, "j", 0),
            at2(vnew, "i", 0, "j", 0),
            at2(vold, "i", 0, "j", 0),
            at2(vold, "i", 0, "j", 0).write(),
            at2(v, "i", 0, "j", 0).write(),
            at2(p, "i", 0, "j", 0),
            at2(pnew, "i", 0, "j", 0),
            at2(pold, "i", 0, "j", 0),
            at2(pold, "i", 0, "j", 0).write(),
            at2(p, "i", 0, "j", 0).write(),
        ])],
    ));
    b.build().expect("SHAL spec is well-formed")
}

/// Builds the SHAL benchmark.
pub fn spec(n: i64) -> Program {
    spec_named("SHAL512", 235, n)
}

/// Runs one native time step.
pub fn run_native(ws: &mut Workspace, n: i64) {
    let ids: Vec<_> = ARRAY_NAMES.iter().map(|name| ws.array(name)).collect();
    let bases: Vec<usize> = ids.iter().map(|&id| ws.base_word(id)).collect();
    let cols: Vec<usize> = ids.iter().map(|&id| ws.strides(id)[1]).collect();
    let n = n as usize;
    let (buf, _) = ws.parts_mut();
    let fsdx = 4.0 / 1.0e5;
    let fsdy = 4.0 / 1.0e5;
    let tdts8 = 11.0;
    let tdtsdx = 9.0e-5;
    let tdtsdy = 9.0e-5;
    let alpha = 0.001;

    // Helper producing a closure that indexes array `a` at (i+di, j+dj),
    // 0-based logical coordinates.
    macro_rules! ix {
        ($arr:expr, $i:expr, $j:expr) => {
            bases[$arr] + ($i) + ($j) * cols[$arr]
        };
    }
    const U: usize = 0;
    const V: usize = 1;
    const P: usize = 2;
    const UNEW: usize = 3;
    const VNEW: usize = 4;
    const PNEW: usize = 5;
    const UOLD: usize = 6;
    const VOLD: usize = 7;
    const POLD: usize = 8;
    const CU: usize = 9;
    const CV: usize = 10;
    const Z: usize = 11;
    const H: usize = 12;

    for j in 0..n {
        for i in 0..n {
            buf[ix!(CU, i + 1, j)] =
                0.5 * (buf[ix!(P, i + 1, j)] + buf[ix!(P, i, j)]) * buf[ix!(U, i + 1, j)];
            buf[ix!(CV, i, j + 1)] =
                0.5 * (buf[ix!(P, i, j + 1)] + buf[ix!(P, i, j)]) * buf[ix!(V, i, j + 1)];
            buf[ix!(Z, i + 1, j + 1)] = (fsdx
                * (buf[ix!(V, i + 1, j + 1)] - buf[ix!(V, i, j + 1)])
                - fsdy * (buf[ix!(U, i + 1, j + 1)] - buf[ix!(U, i + 1, j)]))
                / (buf[ix!(P, i, j)]
                    + buf[ix!(P, i + 1, j)]
                    + buf[ix!(P, i + 1, j + 1)]
                    + buf[ix!(P, i, j + 1)]
                    + 1.0);
            buf[ix!(H, i, j)] = buf[ix!(P, i, j)]
                + 0.25
                    * (buf[ix!(U, i + 1, j)] * buf[ix!(U, i + 1, j)]
                        + buf[ix!(U, i, j)] * buf[ix!(U, i, j)]
                        + buf[ix!(V, i, j + 1)] * buf[ix!(V, i, j + 1)]
                        + buf[ix!(V, i, j)] * buf[ix!(V, i, j)]);
        }
    }
    for j in 0..n {
        for i in 0..n {
            buf[ix!(UNEW, i + 1, j)] = buf[ix!(UOLD, i + 1, j)]
                + tdts8
                    * (buf[ix!(Z, i + 1, j + 1)] + buf[ix!(Z, i + 1, j)])
                    * (buf[ix!(CV, i + 1, j + 1)]
                        + buf[ix!(CV, i, j + 1)]
                        + buf[ix!(CV, i, j)]
                        + buf[ix!(CV, i + 1, j)])
                - tdtsdx * (buf[ix!(H, i + 1, j)] - buf[ix!(H, i, j)]);
            buf[ix!(VNEW, i, j + 1)] = buf[ix!(VOLD, i, j + 1)]
                - tdts8
                    * (buf[ix!(Z, i + 1, j + 1)] + buf[ix!(Z, i, j + 1)])
                    * (buf[ix!(CU, i, j + 1)]
                        + buf[ix!(CU, i + 1, j + 1)]
                        + buf[ix!(CU, i + 1, j)]
                        + buf[ix!(CU, i, j)])
                - tdtsdy * (buf[ix!(H, i, j + 1)] - buf[ix!(H, i, j)]);
            buf[ix!(PNEW, i, j)] = buf[ix!(POLD, i, j)]
                - tdtsdx * (buf[ix!(CU, i + 1, j)] - buf[ix!(CU, i, j)])
                - tdtsdy * (buf[ix!(CV, i, j + 1)] - buf[ix!(CV, i, j)]);
        }
    }
    for j in 0..n {
        for i in 0..n {
            let unew = buf[ix!(UNEW, i, j)];
            let uold = buf[ix!(UOLD, i, j)];
            let ucur = buf[ix!(U, i, j)];
            buf[ix!(UOLD, i, j)] = ucur + alpha * (unew - 2.0 * ucur + uold);
            buf[ix!(U, i, j)] = unew;
            let vnew = buf[ix!(VNEW, i, j)];
            let vold = buf[ix!(VOLD, i, j)];
            let vcur = buf[ix!(V, i, j)];
            buf[ix!(VOLD, i, j)] = vcur + alpha * (vnew - 2.0 * vcur + vold);
            buf[ix!(V, i, j)] = vnew;
            let pnew = buf[ix!(PNEW, i, j)];
            let pold = buf[ix!(POLD, i, j)];
            let pcur = buf[ix!(P, i, j)];
            buf[ix!(POLD, i, j)] = pcur + alpha * (pnew - 2.0 * pcur + pold);
            buf[ix!(P, i, j)] = pnew;
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
        assert_eq!(p.arrays().len(), 14);
        assert_eq!(p.ref_groups().len(), 3);
        assert_eq!(p.arrays()[0].dims()[0].size, 65);
    }

    #[test]
    fn native_runs_and_stays_finite() {
        let p = spec(16);
        let mut ws = Workspace::new(&p, DataLayout::original(&p));
        for (i, name) in ARRAY_NAMES.iter().enumerate() {
            let id = ws.array(name);
            ws.fill_pattern(id, i as u64 + 1);
        }
        run_native(&mut ws, 16);
        for name in ARRAY_NAMES {
            let id = ws.array(name);
            assert!(ws.checksum(id).is_finite(), "{name} went non-finite");
        }
    }

    #[test]
    fn padded_run_matches_plain() {
        use pad_core::{PaddingConfig, PaddingPipeline};
        let p = spec(16);
        let seed_all = |ws: &mut Workspace| {
            for (i, name) in ARRAY_NAMES.iter().enumerate() {
                let id = ws.array(name);
                ws.fill_pattern(id, i as u64 + 1);
            }
        };
        let mut plain = Workspace::new(&p, DataLayout::original(&p));
        seed_all(&mut plain);
        run_native(&mut plain, 16);

        let outcome = PaddingPipeline::pad(PaddingConfig::new(1024, 32).expect("valid")).run(&p);
        let mut padded = Workspace::new(&p, outcome.layout);
        seed_all(&mut padded);
        run_native(&mut padded, 16);

        for name in ARRAY_NAMES {
            let a = plain.array(name);
            assert_eq!(plain.checksum(a), padded.checksum(a), "{name}");
        }
    }
}
