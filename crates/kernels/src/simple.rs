//! SIMPLE — 2-D Lagrangian hydrodynamics (1346 lines, 37 global arrays
//! in the paper; modeled with the twelve arrays of its dominant phases).
//!
//! A large stencil application: staggered velocity/position meshes,
//! artificial viscosity, pressure and energy updates. The reduction keeps
//! what matters to padding — many conforming `n × n` arrays touched
//! together through shifted stencils across several nests.

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at2;

/// Default mesh size.
pub const DEFAULT_N: i64 = 256;

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 12] = [
    "R", "Z", "U", "V", "RHO", "P", "Q", "E", "AJ", "W1", "W2", "W3",
];

/// Builds the dominant hydro phases at mesh size `n`.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("SIMPLE");
    b.source_lines(1346);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [n, n])))
        .collect();
    let [r, z, u, v, rho, p, q, e, aj, w1, w2, w3] = ids[..] else {
        unreachable!()
    };

    // Phase 1: mesh geometry (Jacobian from positions).
    b.push(Stmt::loop_nest(
        [Loop::new("k", 2, n), Loop::new("l", 2, n)],
        vec![Stmt::refs(vec![
            at2(r, "l", 0, "k", 0),
            at2(r, "l", -1, "k", 0),
            at2(r, "l", 0, "k", -1),
            at2(z, "l", 0, "k", 0),
            at2(z, "l", -1, "k", 0),
            at2(z, "l", 0, "k", -1),
            at2(aj, "l", 0, "k", 0).write(),
        ])],
    ));
    // Phase 2: artificial viscosity.
    b.push(Stmt::loop_nest(
        [Loop::new("k", 2, n), Loop::new("l", 2, n)],
        vec![Stmt::refs(vec![
            at2(u, "l", 0, "k", 0),
            at2(u, "l", -1, "k", 0),
            at2(v, "l", 0, "k", 0),
            at2(v, "l", 0, "k", -1),
            at2(rho, "l", 0, "k", 0),
            at2(q, "l", 0, "k", 0).write(),
        ])],
    ));
    // Phase 3: velocity update from pressure gradients.
    b.push(Stmt::loop_nest(
        [Loop::new("k", 2, n - 1), Loop::new("l", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(p, "l", 1, "k", 0),
            at2(p, "l", -1, "k", 0),
            at2(q, "l", 1, "k", 0),
            at2(q, "l", -1, "k", 0),
            at2(aj, "l", 0, "k", 0),
            at2(u, "l", 0, "k", 0),
            at2(u, "l", 0, "k", 0).write(),
            at2(p, "l", 0, "k", 1),
            at2(p, "l", 0, "k", -1),
            at2(q, "l", 0, "k", 1),
            at2(q, "l", 0, "k", -1),
            at2(v, "l", 0, "k", 0),
            at2(v, "l", 0, "k", 0).write(),
        ])],
    ));
    // Phase 4: position advance and work arrays.
    b.push(Stmt::loop_nest(
        [Loop::new("k", 1, n), Loop::new("l", 1, n)],
        vec![Stmt::refs(vec![
            at2(u, "l", 0, "k", 0),
            at2(r, "l", 0, "k", 0),
            at2(r, "l", 0, "k", 0).write(),
            at2(v, "l", 0, "k", 0),
            at2(z, "l", 0, "k", 0),
            at2(z, "l", 0, "k", 0).write(),
            at2(w1, "l", 0, "k", 0).write(),
        ])],
    ));
    // Phase 5: energy / equation of state.
    b.push(Stmt::loop_nest(
        [Loop::new("k", 1, n), Loop::new("l", 1, n)],
        vec![Stmt::refs(vec![
            at2(rho, "l", 0, "k", 0),
            at2(e, "l", 0, "k", 0),
            at2(q, "l", 0, "k", 0),
            at2(w1, "l", 0, "k", 0),
            at2(p, "l", 0, "k", 0).write(),
            at2(e, "l", 0, "k", 0).write(),
            at2(w2, "l", 0, "k", 0).write(),
            at2(w3, "l", 0, "k", 0).write(),
        ])],
    ));
    b.build().expect("SIMPLE spec is well-formed")
}

/// Runs one native hydro step matching [`spec`]'s five phases.
pub fn run_native(ws: &mut crate::Workspace, n: i64) {
    let ids: Vec<_> = ARRAY_NAMES.iter().map(|name| ws.array(name)).collect();
    let bases: Vec<usize> = ids.iter().map(|&id| ws.base_word(id)).collect();
    let cols: Vec<usize> = ids.iter().map(|&id| ws.strides(id)[1]).collect();
    let [r, z, u, v, rho, p, q, e, aj, w1, w2, w3] = bases[..] else {
        unreachable!()
    };
    let [cr, cz, cu, cv, crho, cp, cq, ce, caj, cw1, cw2, cw3] = cols[..] else {
        unreachable!()
    };
    let n = n as usize;
    let (buf, _) = ws.parts_mut();
    let dt = 0.002;
    for k in 1..n {
        for l in 1..n {
            buf[aj + l + k * caj] = 0.5
                * ((buf[r + l + k * cr] - buf[r + (l - 1) + k * cr])
                    * (buf[z + l + k * cz] - buf[z + l + (k - 1) * cz])
                    - (buf[r + l + k * cr] - buf[r + l + (k - 1) * cr])
                        * (buf[z + l + k * cz] - buf[z + (l - 1) + k * cz]))
                + 1.0;
        }
    }
    for k in 1..n {
        for l in 1..n {
            let du = buf[u + l + k * cu] - buf[u + (l - 1) + k * cu];
            let dv = buf[v + l + k * cv] - buf[v + l + (k - 1) * cv];
            let compress = (du + dv).min(0.0);
            buf[q + l + k * cq] = buf[rho + l + k * crho] * compress * compress;
        }
    }
    for k in 1..n - 1 {
        for l in 1..n - 1 {
            let gradl = buf[p + (l + 1) + k * cp] - buf[p + (l - 1) + k * cp]
                + buf[q + (l + 1) + k * cq]
                - buf[q + (l - 1) + k * cq];
            let gradk = buf[p + l + (k + 1) * cp] - buf[p + l + (k - 1) * cp]
                + buf[q + l + (k + 1) * cq]
                - buf[q + l + (k - 1) * cq];
            let inv = 1.0 / buf[aj + l + k * caj];
            buf[u + l + k * cu] -= dt * gradl * inv;
            buf[v + l + k * cv] -= dt * gradk * inv;
        }
    }
    for k in 0..n {
        for l in 0..n {
            buf[r + l + k * cr] += dt * buf[u + l + k * cu];
            buf[z + l + k * cz] += dt * buf[v + l + k * cv];
            buf[w1 + l + k * cw1] = buf[u + l + k * cu] * buf[v + l + k * cv];
        }
    }
    for k in 0..n {
        for l in 0..n {
            let work = buf[q + l + k * cq] * buf[w1 + l + k * cw1];
            buf[e + l + k * ce] = (buf[e + l + k * ce] - dt * work).max(0.0);
            buf[p + l + k * cp] = 0.4 * buf[rho + l + k * crho] * buf[e + l + k * ce];
            buf[w2 + l + k * cw2] = work;
            buf[w3 + l + k * cw3] = buf[p + l + k * cp] + buf[q + l + k * cq];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{uniform_ref_fraction, PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(64);
        assert_eq!(p.arrays().len(), 12);
        assert_eq!(p.ref_groups().len(), 5);
        assert_eq!(uniform_ref_fraction(&p), 1.0);
    }

    #[test]
    fn power_of_two_mesh_attracts_inter_padding() {
        let p = spec(256); // 256*256*8 = 512 KiB arrays: all alias a 16K cache
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.stats.arrays_inter_padded > 0);
        assert!(outcome.layout.check_no_overlap());
        assert!(outcome.stats.size_increase_percent < 1.0);
    }

    #[test]
    fn native_matches_under_padding() {
        use pad_core::DataLayout;
        let p = spec(20);
        let seed = |ws: &mut crate::Workspace| {
            for (i, name) in ARRAY_NAMES.iter().enumerate() {
                let id = ws.array(name);
                ws.fill_pattern(id, i as u64 + 1);
            }
        };
        let mut plain = crate::Workspace::new(&p, DataLayout::original(&p));
        seed(&mut plain);
        run_native(&mut plain, 20);

        let outcome = PaddingPipeline::pad(PaddingConfig::new(1024, 32).expect("valid")).run(&p);
        let mut padded = crate::Workspace::new(&p, outcome.layout);
        seed(&mut padded);
        run_native(&mut padded, 20);

        for name in ARRAY_NAMES {
            let id = plain.array(name);
            assert_eq!(plain.checksum(id), padded.checksum(id), "{name}");
            assert!(plain.checksum(id).is_finite(), "{name} non-finite");
        }
    }
}
