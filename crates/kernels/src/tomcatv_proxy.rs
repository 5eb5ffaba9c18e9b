//! TOMCATV proxy — SPEC95 vectorized mesh generation (190 lines, 7
//! arrays).
//!
//! TOMCATV iterates: compute residuals `RX, RY` from the mesh coordinates
//! `X, Y` with nine-point stencils, solve tridiagonal systems in
//! workspace arrays `AA, DD, D`, and update the mesh. All seven `N × N`
//! arrays conform; at the benchmark's 513 grid the *column* size is
//! harmless, but equal array sizes still stack base addresses on the
//! cache — TOMCATV is one of the biggest padding wins in the paper's
//! Figure 15. Dropped from the real code: convergence logic and I/O.

use pad_ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt};

use crate::util::at2;

/// TOMCATV's grid size (arrays are 513 × 513 in SPEC).
pub const DEFAULT_N: i64 = 513;

/// The modeled arrays.
pub const ARRAY_NAMES: [&str; 7] = ["X", "Y", "RX", "RY", "AA", "DD", "D"];

/// Builds the proxy's residual and solve nests at grid size `n`.
pub fn spec(n: i64) -> Program {
    let mut b = Program::builder("TOMCATV");
    b.source_lines(190);
    let ids: Vec<ArrayId> = ARRAY_NAMES
        .iter()
        .map(|nm| b.add_array(ArrayBuilder::new(*nm, [n, n])))
        .collect();
    let [x, y, rx, ry, aa, dd, d] = ids[..] else {
        unreachable!()
    };

    // Residual computation: nine-point stencils on X and Y.
    b.push(Stmt::loop_nest(
        [Loop::new("j", 2, n - 1), Loop::new("i", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(x, "i", -1, "j", 0),
            at2(x, "i", 1, "j", 0),
            at2(x, "i", 0, "j", -1),
            at2(x, "i", 0, "j", 1),
            at2(x, "i", -1, "j", -1),
            at2(x, "i", 1, "j", 1),
            at2(y, "i", -1, "j", 0),
            at2(y, "i", 1, "j", 0),
            at2(y, "i", 0, "j", -1),
            at2(y, "i", 0, "j", 1),
            at2(rx, "i", 0, "j", 0).write(),
            at2(ry, "i", 0, "j", 0).write(),
        ])],
    ));
    // Tridiagonal factor/solve workspace sweeps.
    b.push(Stmt::loop_nest(
        [Loop::new("j", 2, n - 1), Loop::new("i", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(aa, "i", 0, "j", 0),
            at2(dd, "i", 0, "j", 0),
            at2(d, "i", 0, "j", -1),
            at2(rx, "i", 0, "j", 0),
            at2(d, "i", 0, "j", 0).write(),
            at2(rx, "i", 0, "j", 0).write(),
            at2(ry, "i", 0, "j", 0).write(),
        ])],
    ));
    // Mesh update.
    b.push(Stmt::loop_nest(
        [Loop::new("j", 2, n - 1), Loop::new("i", 2, n - 1)],
        vec![Stmt::refs(vec![
            at2(rx, "i", 0, "j", 0),
            at2(ry, "i", 0, "j", 0),
            at2(x, "i", 0, "j", 0),
            at2(y, "i", 0, "j", 0),
            at2(x, "i", 0, "j", 0).write(),
            at2(y, "i", 0, "j", 0).write(),
        ])],
    ));
    b.build().expect("TOMCATV spec is well-formed")
}

/// Runs one native residual/solve/update iteration matching [`spec`].
pub fn run_native(ws: &mut crate::Workspace, n: i64) {
    let ids: Vec<_> = ARRAY_NAMES.iter().map(|name| ws.array(name)).collect();
    let bases: Vec<usize> = ids.iter().map(|&id| ws.base_word(id)).collect();
    let cols: Vec<usize> = ids.iter().map(|&id| ws.strides(id)[1]).collect();
    let [x, y, rx, ry, aa, dd, d] = bases[..] else {
        unreachable!()
    };
    let [cx, cy, crx, cry, caa, cdd, cd] = cols[..] else {
        unreachable!()
    };
    let n = n as usize;
    let (buf, _) = ws.parts_mut();
    for j in 1..n - 1 {
        for i in 1..n - 1 {
            let xc = x + i + j * cx;
            let yc = y + i + j * cy;
            let xxx = buf[xc + 1] - buf[xc - 1];
            let yxx = buf[yc + 1] - buf[yc - 1];
            let xyy = buf[xc + cx] - buf[xc - cx];
            let yyy = buf[yc + cy] - buf[yc - cy];
            let a = 0.25 * (xyy * xyy + yyy * yyy);
            let bb = 0.25 * (xxx * xxx + yxx * yxx);
            let c = 0.125 * (xxx * xyy + yxx * yyy);
            buf[rx + i + j * crx] = a * (buf[xc - 1] + buf[xc + 1])
                + bb * (buf[xc - cx] + buf[xc + cx])
                - 2.0 * (a + bb) * buf[xc]
                - c * (buf[xc + 1 + cx] - buf[xc + 1 - cx]);
            buf[ry + i + j * cry] = a * (buf[yc - 1] + buf[yc + 1])
                + bb * (buf[yc - cy] + buf[yc + cy])
                - 2.0 * (a + bb) * buf[yc];
        }
    }
    for j in 1..n - 1 {
        for i in 1..n - 1 {
            let prev = buf[d + i + (j - 1) * cd];
            let denom = buf[dd + i + j * cdd] - buf[aa + i + j * caa] * prev + 4.0;
            buf[d + i + j * cd] = 1.0 / denom;
            buf[rx + i + j * crx] *= buf[d + i + j * cd];
            buf[ry + i + j * cry] *= buf[d + i + j * cd];
        }
    }
    for j in 1..n - 1 {
        for i in 1..n - 1 {
            buf[x + i + j * cx] += buf[rx + i + j * crx];
            buf[y + i + j * cy] += buf[ry + i + j * cry];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{PaddingConfig, PaddingPipeline};

    #[test]
    fn spec_shape() {
        let p = spec(65);
        assert_eq!(p.arrays().len(), 7);
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
    fn equal_sizes_attract_inter_padding_at_aliasing_sizes() {
        // Power-of-two variant: every array is the same size, so bases
        // collide mod the cache.
        let p = spec(512);
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert!(outcome.stats.arrays_inter_padded > 0);
    }
}
