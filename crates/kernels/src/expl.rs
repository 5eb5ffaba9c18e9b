//! EXPL — 2-D explicit hydrodynamics, Livermore loop 18 (64 lines, 9
//! global arrays).
//!
//! Nine equally-sized `n × n` arrays swept by three stencil nests. With
//! so many conforming arrays, power-of-two problem sizes alias several of
//! them at once, producing some of the largest miss-rate improvements in
//! the paper (Figures 8 and 16).

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at2;
use crate::workspace::Workspace;

/// Paper problem size (EXPLODE is run at 512 in Figure 16's sweep).
pub const DEFAULT_N: i64 = 512;

/// The nine Livermore-18 arrays, in declaration order.
pub const ARRAY_NAMES: [&str; 9] = ["ZA", "ZB", "ZM", "ZP", "ZQ", "ZR", "ZU", "ZV", "ZZ"];

/// Builds one time step of the three Livermore-18 nests.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("EXPL512");
    b.source_lines(64);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|name| b.add_array(ArrayBuilder::new(*name, [n, n])))
        .collect();
    let [za, zb, zm, zp, zq, zr, zu, zv, zz] = ids[..] else {
        unreachable!()
    };

    // Nest 1: pressure/viscosity gradients into ZA, ZB.
    b.push(Stmt::loop_nest(
        [Loop::new("k", 2, n - 1), Loop::new("j", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(zp, "j", -1, "k", 1),
            at2(zq, "j", -1, "k", 1),
            at2(zp, "j", -1, "k", 0),
            at2(zq, "j", -1, "k", 0),
            at2(zr, "j", 0, "k", 0),
            at2(zr, "j", -1, "k", 0),
            at2(zm, "j", -1, "k", 0),
            at2(zm, "j", -1, "k", 1),
            at2(za, "j", 0, "k", 0).write(),
            at2(zp, "j", 0, "k", 0),
            at2(zq, "j", 0, "k", 0),
            at2(zr, "j", 0, "k", -1),
            at2(zm, "j", 0, "k", 0),
            at2(zb, "j", 0, "k", 0).write(),
        ])],
    ));

    // Nest 2: velocity updates from the gradients.
    b.push(Stmt::loop_nest(
        [Loop::new("k", 2, n - 1), Loop::new("j", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(zu, "j", 0, "k", 0),
            at2(za, "j", 0, "k", 0),
            at2(zz, "j", 0, "k", 0),
            at2(zz, "j", 1, "k", 0),
            at2(za, "j", -1, "k", 0),
            at2(zz, "j", -1, "k", 0),
            at2(zb, "j", 0, "k", 0),
            at2(zz, "j", 0, "k", -1),
            at2(zb, "j", 0, "k", 1),
            at2(zz, "j", 0, "k", 1),
            at2(zu, "j", 0, "k", 0).write(),
            at2(zv, "j", 0, "k", 0),
            at2(zr, "j", 0, "k", 0),
            at2(zr, "j", 1, "k", 0),
            at2(zr, "j", -1, "k", 0),
            at2(zr, "j", 0, "k", -1),
            at2(zr, "j", 0, "k", 1),
            at2(zv, "j", 0, "k", 0).write(),
        ])],
    ));

    // Nest 3: position/field advance.
    b.push(Stmt::loop_nest(
        [Loop::new("k", 2, n - 1), Loop::new("j", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(zr, "j", 0, "k", 0),
            at2(zu, "j", 0, "k", 0),
            at2(zr, "j", 0, "k", 0).write(),
            at2(zz, "j", 0, "k", 0),
            at2(zv, "j", 0, "k", 0),
            at2(zz, "j", 0, "k", 0).write(),
        ])],
    ));
    b.build().expect("EXPL spec is well-formed")
}

/// Runs one native time step matching [`spec`]'s reference pattern.
pub fn run_native(ws: &mut Workspace, n: i64) {
    let ids: Vec<_> = ARRAY_NAMES.iter().map(|name| ws.array(name)).collect();
    let bases: Vec<usize> = ids.iter().map(|&id| ws.base_word(id)).collect();
    let cols: Vec<usize> = ids.iter().map(|&id| ws.strides(id)[1]).collect();
    let [za, zb, zm, zp, zq, zr, zu, zv, zz] = bases[..] else {
        unreachable!()
    };
    let [ca, cb, cm, cp, cq, cr, cu, cv, cz] = cols[..] else {
        unreachable!()
    };
    let n = n as usize;
    let (buf, _) = ws.parts_mut();
    let s = 0.0174;
    let t = 0.0037;

    for k in 2..n {
        for j in 2..n {
            let (jj, kk) = (j - 1, k - 1);
            let idx = |base: usize, col: usize, dj: isize, dk: isize| {
                (base as isize + (jj as isize + dj) + (kk as isize + dk) * col as isize) as usize
            };
            buf[idx(za, ca, 0, 0)] = (buf[idx(zp, cp, -1, 1)] + buf[idx(zq, cq, -1, 1)]
                - buf[idx(zp, cp, -1, 0)]
                - buf[idx(zq, cq, -1, 0)])
                * (buf[idx(zr, cr, 0, 0)] + buf[idx(zr, cr, -1, 0)])
                / (buf[idx(zm, cm, -1, 0)] + buf[idx(zm, cm, -1, 1)] + 1.0);
            buf[idx(zb, cb, 0, 0)] = (buf[idx(zp, cp, -1, 0)] + buf[idx(zq, cq, -1, 0)]
                - buf[idx(zp, cp, 0, 0)]
                - buf[idx(zq, cq, 0, 0)])
                * (buf[idx(zr, cr, 0, 0)] + buf[idx(zr, cr, 0, -1)])
                / (buf[idx(zm, cm, 0, 0)] + buf[idx(zm, cm, -1, 0)] + 1.0);
        }
    }
    for k in 2..n {
        for j in 2..n {
            let (jj, kk) = (j - 1, k - 1);
            let idx = |base: usize, col: usize, dj: isize, dk: isize| {
                (base as isize + (jj as isize + dj) + (kk as isize + dk) * col as isize) as usize
            };
            buf[idx(zu, cu, 0, 0)] += s
                * (buf[idx(za, ca, 0, 0)] * (buf[idx(zz, cz, 0, 0)] - buf[idx(zz, cz, 1, 0)])
                    - buf[idx(za, ca, -1, 0)] * (buf[idx(zz, cz, 0, 0)] - buf[idx(zz, cz, -1, 0)])
                    - buf[idx(zb, cb, 0, 0)] * (buf[idx(zz, cz, 0, 0)] - buf[idx(zz, cz, 0, -1)])
                    + buf[idx(zb, cb, 0, 1)] * (buf[idx(zz, cz, 0, 0)] - buf[idx(zz, cz, 0, 1)]));
            buf[idx(zv, cv, 0, 0)] += s
                * (buf[idx(zr, cr, 0, 0)] * (buf[idx(zr, cr, 1, 0)] - buf[idx(zr, cr, -1, 0)])
                    + (buf[idx(zr, cr, 0, -1)] - buf[idx(zr, cr, 0, 1)]));
        }
    }
    for k in 2..n {
        for j in 2..n {
            let (jj, kk) = (j - 1, k - 1);
            let r = zr + jj + kk * cr;
            let z = zz + jj + kk * cz;
            buf[r] += t * buf[zu + jj + kk * cu];
            buf[z] += t * buf[zv + jj + kk * cv];
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
        assert_eq!(p.arrays().len(), 9);
        assert_eq!(p.ref_groups().len(), 3);
    }

    #[test]
    fn native_runs_and_stays_finite() {
        let p = spec(24);
        let mut ws = Workspace::new(&p, DataLayout::original(&p));
        for (i, name) in ARRAY_NAMES.iter().enumerate() {
            let id = ws.array(name);
            ws.fill_pattern(id, i as u64 + 1);
        }
        run_native(&mut ws, 24);
        let zu = ws.array("ZU");
        assert!(ws.checksum(zu).is_finite());
    }

    #[test]
    fn padded_run_matches_plain() {
        use pad_core::{PaddingConfig, PaddingPipeline};
        let p = spec(24);
        let seed_all = |ws: &mut Workspace| {
            for (i, name) in ARRAY_NAMES.iter().enumerate() {
                let id = ws.array(name);
                ws.fill_pattern(id, i as u64 + 1);
            }
        };
        let mut plain = Workspace::new(&p, DataLayout::original(&p));
        seed_all(&mut plain);
        run_native(&mut plain, 24);

        let outcome = PaddingPipeline::pad(PaddingConfig::new(1024, 32).expect("valid")).run(&p);
        let mut padded = Workspace::new(&p, outcome.layout);
        seed_all(&mut padded);
        run_native(&mut padded, 24);

        for name in ARRAY_NAMES {
            let a = plain.array(name);
            assert_eq!(plain.checksum(a), padded.checksum(a), "{name}");
        }
    }
}
