//! HYDRO2D proxy — SPEC95 Navier-Stokes astrophysical jets (4292 lines,
//! 9 global arrays in the paper's table).
//!
//! HYDRO2D advances gas-dynamics fields on a 2-D grid with
//! direction-split finite differences. The proxy keeps nine conforming
//! `n × n` field arrays and two split update nests (one per direction);
//! dropped are the boundary treatments and the many small control
//! routines.

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at2;

/// Grid size. SPEC's grid is 402 × 160; a square power-of-two grid keeps
/// the aliasing behaviour that matters on a 16 KiB cache.
pub const DEFAULT_N: i64 = 256;

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 9] = ["RO", "EN", "MU", "MV", "ZP", "FU", "FV", "GU", "GV"];

/// Builds the two direction-split update nests.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("HYDRO2D");
    b.source_lines(4292);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [n, n])))
        .collect();
    let [ro, en, mu, mv, zp, fu, fv, gu, gv] = ids[..] else {
        unreachable!()
    };

    // x-direction fluxes and update.
    b.push(Stmt::loop_nest(
        [Loop::new("j", 2, n - 1), Loop::new("i", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(ro, "i", -1, "j", 0),
            at2(ro, "i", 1, "j", 0),
            at2(mu, "i", 0, "j", 0),
            at2(zp, "i", -1, "j", 0),
            at2(zp, "i", 1, "j", 0),
            at2(fu, "i", 0, "j", 0).write(),
            at2(mv, "i", 0, "j", 0),
            at2(fv, "i", 0, "j", 0).write(),
        ])],
    ));
    // y-direction fluxes and energy update.
    b.push(Stmt::loop_nest(
        [Loop::new("j", 2, n - 1), Loop::new("i", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(ro, "i", 0, "j", -1),
            at2(ro, "i", 0, "j", 1),
            at2(mv, "i", 0, "j", 0),
            at2(zp, "i", 0, "j", -1),
            at2(zp, "i", 0, "j", 1),
            at2(gu, "i", 0, "j", 0).write(),
            at2(gv, "i", 0, "j", 0).write(),
        ])],
    ));
    // Conserved-variable advance.
    b.push(Stmt::loop_nest(
        [Loop::new("j", 2, n - 1), Loop::new("i", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(fu, "i", 0, "j", 0),
            at2(gu, "i", 0, "j", 0),
            at2(mu, "i", 0, "j", 0),
            at2(mu, "i", 0, "j", 0).write(),
            at2(fv, "i", 0, "j", 0),
            at2(gv, "i", 0, "j", 0),
            at2(mv, "i", 0, "j", 0),
            at2(mv, "i", 0, "j", 0).write(),
            at2(ro, "i", 0, "j", 0),
            at2(ro, "i", 0, "j", 0).write(),
            at2(en, "i", 0, "j", 0),
            at2(en, "i", 0, "j", 0).write(),
        ])],
    ));
    b.build().expect("HYDRO2D spec is well-formed")
}

/// Runs one native direction-split step matching [`spec`].
pub fn run_native(ws: &mut crate::Workspace, n: i64) {
    let ids: Vec<_> = ARRAY_NAMES.iter().map(|name| ws.array(name)).collect();
    let bases: Vec<usize> = ids.iter().map(|&id| ws.base_word(id)).collect();
    let cols: Vec<usize> = ids.iter().map(|&id| ws.strides(id)[1]).collect();
    let [ro, en, mu, mv, zp, fu, fv, gu, gv] = bases[..] else {
        unreachable!()
    };
    let [cro, cen, cmu, cmv, czp, cfu, cfv, cgu, cgv] = cols[..] else {
        unreachable!()
    };
    let n = n as usize;
    let (buf, _) = ws.parts_mut();
    let dt = 0.004;
    for j in 1..n - 1 {
        for i in 1..n - 1 {
            buf[fu + i + j * cfu] = 0.5
                * (buf[ro + (i - 1) + j * cro] + buf[ro + (i + 1) + j * cro])
                * buf[mu + i + j * cmu]
                + (buf[zp + (i + 1) + j * czp] - buf[zp + (i - 1) + j * czp]);
            buf[fv + i + j * cfv] = buf[mv + i + j * cmv] * 0.5;
        }
    }
    for j in 1..n - 1 {
        for i in 1..n - 1 {
            buf[gu + i + j * cgu] = 0.5
                * (buf[ro + i + (j - 1) * cro] + buf[ro + i + (j + 1) * cro])
                * buf[mv + i + j * cmv]
                + (buf[zp + i + (j + 1) * czp] - buf[zp + i + (j - 1) * czp]);
            buf[gv + i + j * cgv] = buf[mv + i + j * cmv] * 0.25;
        }
    }
    for j in 1..n - 1 {
        for i in 1..n - 1 {
            buf[mu + i + j * cmu] -= dt * (buf[fu + i + j * cfu] + buf[gu + i + j * cgu]);
            buf[mv + i + j * cmv] -= dt * (buf[fv + i + j * cfv] + buf[gv + i + j * cgv]);
            buf[ro + i + j * cro] -= dt * buf[mu + i + j * cmu];
            buf[en + i + j * cen] -= dt * buf[mv + i + j * cmv];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(64);
        assert_eq!(p.arrays().len(), 9);
        assert_eq!(p.ref_groups().len(), 3);
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
        }
    }

    #[test]
    fn aliasing_arrays_get_separated() {
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.stats.arrays_inter_padded > 0);
    }
}
