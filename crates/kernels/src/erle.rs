//! ERLE — 3-D tridiagonal solver (612 lines, 23 global arrays in the
//! paper; modeled with the five arrays of its dominant sweeps).
//!
//! Tridiagonal relaxations sweep the cube along each of the three axes in
//! turn. The `z` sweep steps by a whole `n × n` plane per iteration; at
//! power-of-two `n` the plane size is a multiple of the cache size, so
//! consecutive plane accesses conflict *within the same array* — the
//! higher-dimensional case of intra-variable padding.

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at3;
use crate::workspace::Workspace;

/// Paper problem size (`ERLE64`).
pub const DEFAULT_N: i64 = 64;

/// The solver's arrays.
pub const ARRAY_NAMES: [&str; 5] = ["U", "AX", "AY", "AZ", "F"];

/// Builds the three directional sweeps at cube size `n`.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("ERLE64");
    b.source_lines(612);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [n, n, n])))
        .collect();
    let [u, ax, ay, az, f] = ids[..] else {
        unreachable!()
    };

    // x sweep (unit stride recurrence).
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, n),
            Loop::new("j", 1, n),
            Loop::new("i", 2, n),
        ],
        vec![Stmt::refs(vec![
            at3(u, "i", -1, "j", 0, "k", 0),
            at3(ax, "i", 0, "j", 0, "k", 0),
            at3(f, "i", 0, "j", 0, "k", 0),
            at3(u, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    // y sweep (stride = one column).
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 1, n),
            Loop::new("j", 2, n),
            Loop::new("i", 1, n),
        ],
        vec![Stmt::refs(vec![
            at3(u, "i", 0, "j", -1, "k", 0),
            at3(ay, "i", 0, "j", 0, "k", 0),
            at3(f, "i", 0, "j", 0, "k", 0),
            at3(u, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    // z sweep (stride = one plane: the conflicting direction).
    b.push(Stmt::loop_nest(
        [
            Loop::new("k", 2, n),
            Loop::new("j", 1, n),
            Loop::new("i", 1, n),
        ],
        vec![Stmt::refs(vec![
            at3(u, "i", 0, "j", 0, "k", -1),
            at3(az, "i", 0, "j", 0, "k", 0),
            at3(f, "i", 0, "j", 0, "k", 0),
            at3(u, "i", 0, "j", 0, "k", 0).write(),
        ])],
    ));
    b.build().expect("ERLE spec is well-formed")
}

/// Runs the three sweeps natively.
pub fn run_native(ws: &mut Workspace, n: i64) {
    let ids: Vec<_> = ARRAY_NAMES.iter().map(|name| ws.array(name)).collect();
    let bases: Vec<usize> = ids.iter().map(|&id| ws.base_word(id)).collect();
    let strides: Vec<Vec<usize>> = ids.iter().map(|&id| ws.strides(id)).collect();
    let n = n as usize;
    let (buf, _) = ws.parts_mut();
    let at = |a: usize, s: &[Vec<usize>], i: usize, j: usize, k: usize, b: &[usize]| {
        b[a] + i * s[a][0] + j * s[a][1] + k * s[a][2]
    };
    const U: usize = 0;
    const AX: usize = 1;
    const AY: usize = 2;
    const AZ: usize = 3;
    const F: usize = 4;
    for k in 0..n {
        for j in 0..n {
            for i in 1..n {
                buf[at(U, &strides, i, j, k, &bases)] = buf[at(U, &strides, i - 1, j, k, &bases)]
                    * buf[at(AX, &strides, i, j, k, &bases)]
                    * 0.25
                    + buf[at(F, &strides, i, j, k, &bases)];
            }
        }
    }
    for k in 0..n {
        for j in 1..n {
            for i in 0..n {
                buf[at(U, &strides, i, j, k, &bases)] = buf[at(U, &strides, i, j - 1, k, &bases)]
                    * buf[at(AY, &strides, i, j, k, &bases)]
                    * 0.25
                    + buf[at(F, &strides, i, j, k, &bases)];
            }
        }
    }
    for k in 1..n {
        for j in 0..n {
            for i in 0..n {
                buf[at(U, &strides, i, j, k, &bases)] = buf[at(U, &strides, i, j, k - 1, &bases)]
                    * buf[at(AZ, &strides, i, j, k, &bases)]
                    * 0.25
                    + buf[at(F, &strides, i, j, k, &bases)];
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
        let p = spec(16);
        assert_eq!(p.arrays().len(), 5);
        assert_eq!(p.ref_groups().len(), 3);
        assert_eq!(p.arrays()[0].rank(), 3);
    }

    #[test]
    fn power_of_two_cube_gets_intra_padded() {
        // 64^2 doubles = 32 KiB planes alias a 16 KiB cache: the z sweep's
        // U(i,j,k-1)/U(i,j,k) pair is severe, so PAD must pad U.
        let p = spec(64);
        let u = p.arrays_with_ids().next().expect("has U").0;
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(
            outcome.layout.intra_pad_elements(u) > 0,
            "events: {:?}",
            outcome.events
        );
    }

    #[test]
    fn padded_run_matches_plain() {
        let p = spec(12);
        let seed = |ws: &mut Workspace| {
            for (i, name) in ARRAY_NAMES.iter().enumerate() {
                let id = ws.array(name);
                ws.fill_pattern(id, i as u64 + 1);
            }
        };
        let mut plain = Workspace::new(&p, DataLayout::original(&p));
        seed(&mut plain);
        run_native(&mut plain, 12);

        let outcome = PaddingPipeline::pad(PaddingConfig::new(1024, 32).expect("valid")).run(&p);
        let mut padded = Workspace::new(&p, outcome.layout);
        seed(&mut padded);
        run_native(&mut padded, 12);
        for name in ARRAY_NAMES {
            let id = plain.array(name);
            assert_eq!(plain.checksum(id), padded.checksum(id), "{name}");
        }
    }
}
