//! MGRID proxy — NAS/SPEC multigrid solver (484/680 lines, 10–12
//! arrays).
//!
//! Multigrid works on power-of-two cubes — the worst case for a
//! power-of-two cache. The proxy keeps the finest-level smoother and
//! residual (seven-point stencils over `(n+1)³` arrays, as MGRID
//! allocates `2^k + 1` points per side... but the *interior* power-of-two
//! sub-cube still dominates) plus one coarse-grid restriction with
//! stride-2 accesses. Dropped: the V-cycle recursion over levels, which
//! repeats the same patterns at smaller sizes.

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at3;

/// Finest-level cube size (MGRID class S uses 32³/64³).
pub const DEFAULT_N: i64 = 64;

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 3] = ["U", "V", "R"];

/// Builds the smoother, residual, and restriction nests.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("MGRID");
    b.source_lines(680);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [n, n, n])))
        .collect();
    let [u, v, r] = ids[..] else { unreachable!() };

    // Smoother: u += c * r (seven-point on r).
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 2, n - 1),
            Loop::new("j", 2, n - 1),
            Loop::new("i", 2, n - 1),
        ],
        vec![Stmt::refs(vec![
            at3(r, "i", 0, "j", 0, "k", 0),
            at3(r, "i", -1, "j", 0, "k", 0),
            at3(r, "i", 1, "j", 0, "k", 0),
            at3(r, "i", 0, "j", -1, "k", 0),
            at3(r, "i", 0, "j", 1, "k", 0),
            at3(r, "i", 0, "j", 0, "k", -1),
            at3(r, "i", 0, "j", 0, "k", 1),
            at3(u, "i", 0, "j", 0, "k", 0),
            at3(u, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    // Residual: r = v - A u.
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 2, n - 1),
            Loop::new("j", 2, n - 1),
            Loop::new("i", 2, n - 1),
        ],
        vec![Stmt::refs(vec![
            at3(v, "i", 0, "j", 0, "k", 0),
            at3(u, "i", 0, "j", 0, "k", 0),
            at3(u, "i", -1, "j", 0, "k", 0),
            at3(u, "i", 1, "j", 0, "k", 0),
            at3(u, "i", 0, "j", -1, "k", 0),
            at3(u, "i", 0, "j", 1, "k", 0),
            at3(u, "i", 0, "j", 0, "k", -1),
            at3(u, "i", 0, "j", 0, "k", 1),
            at3(r, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    // Restriction to the coarse grid held in the top of V: stride-2 reads.
    b.push(Stmt::loop_nest(
        [
            Loop::with_step("k", 2, n - 1, 2),
            Loop::with_step("j", 2, n - 1, 2),
            Loop::with_step("i", 2, n - 1, 2),
        ],
        vec![Stmt::refs(vec![
            at3(r, "i", 0, "j", 0, "k", 0),
            at3(r, "i", -1, "j", 0, "k", 0),
            at3(r, "i", 1, "j", 0, "k", 0),
            at3(v, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    b.build().expect("MGRID spec is well-formed")
}

/// Runs one native smooth/residual/restrict cycle matching [`spec`].
pub fn run_native(ws: &mut crate::Workspace, n: i64) {
    let u = ws.array("U");
    let v = ws.array("V");
    let r = ws.array("R");
    let (u0, v0, r0) = (ws.base_word(u), ws.base_word(v), ws.base_word(r));
    let su = ws.strides(u);
    let sv = ws.strides(v);
    let sr = ws.strides(r);
    let n = n as usize;
    let (buf, _) = ws.parts_mut();
    let c = 0.1;
    for k in 1..n - 1 {
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                let rc = r0 + i * sr[0] + j * sr[1] + k * sr[2];
                buf[u0 + i * su[0] + j * su[1] + k * su[2]] += c
                    * (buf[rc]
                        + buf[rc - sr[0]]
                        + buf[rc + sr[0]]
                        + buf[rc - sr[1]]
                        + buf[rc + sr[1]]
                        + buf[rc - sr[2]]
                        + buf[rc + sr[2]]);
            }
        }
    }
    for k in 1..n - 1 {
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                let uc = u0 + i * su[0] + j * su[1] + k * su[2];
                let lap = buf[uc - su[0]]
                    + buf[uc + su[0]]
                    + buf[uc - su[1]]
                    + buf[uc + su[1]]
                    + buf[uc - su[2]]
                    + buf[uc + su[2]]
                    - 6.0 * buf[uc];
                buf[r0 + i * sr[0] + j * sr[1] + k * sr[2]] =
                    buf[v0 + i * sv[0] + j * sv[1] + k * sv[2]] - lap;
            }
        }
    }
    let mut k = 1;
    while k < n - 1 {
        let mut j = 1;
        while j < n - 1 {
            let mut i = 1;
            while i < n - 1 {
                let rc = r0 + i * sr[0] + j * sr[1] + k * sr[2];
                buf[v0 + i * sv[0] + j * sv[1] + k * sv[2]] =
                    0.5 * buf[rc] + 0.25 * (buf[rc - sr[0]] + buf[rc + sr[0]]);
                i += 2;
            }
            j += 2;
        }
        k += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(16);
        assert_eq!(p.arrays().len(), 3);
        assert_eq!(p.ref_groups().len(), 3);
    }

    #[test]
    fn native_matches_under_padding() {
        use pad_core::DataLayout;
        let p = spec(12);
        let seed = |ws: &mut crate::Workspace| {
            for (i, name) in ARRAY_NAMES.iter().enumerate() {
                let id = ws.array(name);
                ws.fill_pattern(id, i as u64 + 1);
            }
        };
        let mut plain = crate::Workspace::new(&p, DataLayout::original(&p));
        seed(&mut plain);
        run_native(&mut plain, 12);

        let outcome = PaddingPipeline::pad(PaddingConfig::new(1024, 32).expect("valid")).run(&p);
        let mut padded = crate::Workspace::new(&p, outcome.layout);
        seed(&mut padded);
        run_native(&mut padded, 12);

        for name in ARRAY_NAMES {
            let id = plain.array(name);
            assert_eq!(plain.checksum(id), padded.checksum(id), "{name}");
        }
    }

    #[test]
    fn power_of_two_cube_triggers_intra_padding() {
        // 64² * 8 B planes = 32 KiB alias a 16 KiB cache: the k-direction
        // stencil neighbours conflict within U and R.
        let p = spec(DEFAULT_N);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(
            outcome.stats.arrays_intra_padded > 0,
            "{:?}",
            outcome.events
        );
    }
}
