//! DGEFA — LU factorization with partial pivoting (LINPACK's `dgefa`;
//! 75 lines, 2 global arrays).
//!
//! The canonical linear-algebra workload of the paper: at step `k` the
//! update loop touches columns `j` and `k` of the same matrix together
//! (`A(i,j)` and `A(i,k)`), the Figure 3 pattern. When the column size
//! shares a large gcd with the cache size, many `(j, k)` column pairs
//! alias — the *semi-severe* conflicts `LINPAD2` exists to remove.

use pad_ir::{Loop, Program, Stmt, Subscript};

use crate::util::{at1, at2};
use crate::workspace::Workspace;

/// Paper problem size (`DGEFA256`).
pub const DEFAULT_N: i64 = 256;

/// Outer elimination steps used by [`spec`] for cache simulation.
/// Each step exercises the full spectrum of column distances, so a small
/// prefix of the elimination preserves the miss-rate shape at a fraction
/// of the trace length.
pub const DEFAULT_STEPS: i64 = 16;

/// Builds the factorization with [`DEFAULT_STEPS`] elimination steps.
pub fn spec(n: i64) -> Program {
    spec_steps(n, DEFAULT_STEPS)
}

/// Builds the factorization truncated to `steps` elimination steps
/// (`steps >= n-1` gives the whole elimination).
pub fn spec_steps(n: i64, steps: i64) -> Program {
    let mut b = Program::builder("DGEFA256");
    b.source_lines(75);
    let a = b.add_array(pad_ir::ArrayBuilder::new("A", [n, n]));
    let ipvt = b.add_array(pad_ir::ArrayBuilder::new("IPVT", [n]));
    b.push(Stmt::loop_(
        Loop::new("k", 1, steps.min(n - 1)),
        vec![
            // Pivot search down column k, then record the pivot.
            Stmt::loop_(
                Loop::new("i", Subscript::var_offset("k", 1), n),
                vec![Stmt::refs(vec![at2(a, "i", 0, "k", 0)])],
            ),
            Stmt::refs(vec![at1(ipvt, "k", 0).write()]),
            // Scale the pivot column.
            Stmt::loop_(
                Loop::new("i", Subscript::var_offset("k", 1), n),
                vec![Stmt::refs(vec![
                    at2(a, "i", 0, "k", 0),
                    at2(a, "i", 0, "k", 0).write(),
                ])],
            ),
            // Rank-1 update of the trailing submatrix.
            Stmt::loop_(
                Loop::new("j", Subscript::var_offset("k", 1), n),
                vec![Stmt::loop_(
                    Loop::new("i", Subscript::var_offset("k", 1), n),
                    vec![Stmt::refs(vec![
                        at2(a, "i", 0, "j", 0),
                        at2(a, "i", 0, "k", 0),
                        at2(a, "i", 0, "j", 0).write(),
                    ])],
                )],
            ),
        ],
    ));
    b.build().expect("DGEFA spec is well-formed")
}

/// Runs the complete LU factorization with partial pivoting natively.
/// Row swaps are recorded in `IPVT` (as `f64` indices, mirroring the
/// spec's arrays).
pub fn run_native(ws: &mut Workspace, n: i64) {
    let a = ws.array("A");
    let ipvt = ws.array("IPVT");
    let a0 = ws.base_word(a);
    let p0 = ws.base_word(ipvt);
    let col = ws.strides(a)[1];
    let n = n as usize;
    let buf = ws.words_mut();
    let idx = |i: usize, j: usize| a0 + i + j * col; // 0-based
    for k in 0..n - 1 {
        // Partial pivot: find the largest |A(i,k)|, i >= k.
        let mut l = k;
        let mut best = buf[idx(k, k)].abs();
        for i in k + 1..n {
            let v = buf[idx(i, k)].abs();
            if v > best {
                best = v;
                l = i;
            }
        }
        buf[p0 + k] = l as f64;
        if l != k {
            for j in k..n {
                buf.swap(idx(k, j), idx(l, j));
            }
        }
        let pivot = buf[idx(k, k)];
        if pivot == 0.0 {
            continue; // singular column; dgefa records and moves on
        }
        let inv = -1.0 / pivot;
        for i in k + 1..n {
            buf[idx(i, k)] *= inv;
        }
        for j in k + 1..n {
            let t = buf[idx(k, j)];
            for i in k + 1..n {
                buf[idx(i, j)] += t * buf[idx(i, k)];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::{is_linear_algebra_array, DataLayout};

    #[test]
    fn spec_is_linear_algebra() {
        let p = spec(64);
        let a = p.arrays_with_ids().next().expect("has A").0;
        assert!(is_linear_algebra_array(&p, a));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // matrix math reads better indexed
    fn factorization_solves_a_small_system() {
        // Factor a known matrix and verify L*U (with the recorded
        // permutation) reproduces it.
        let n = 5i64;
        let p = spec_steps(n, n - 1);
        let mut ws = Workspace::new(&p, DataLayout::original(&p));
        let a = ws.array("A");
        // A diagonally dominant matrix (no zero pivots).
        let mut original = vec![vec![0.0f64; n as usize]; n as usize];
        for i in 1..=n {
            for j in 1..=n {
                let v = if i == j { 10.0 } else { 1.0 / (i + j) as f64 };
                ws.set(a, &[i, j], v);
                original[(i - 1) as usize][(j - 1) as usize] = v;
            }
        }
        run_native(&mut ws, n);

        // Rebuild PA = L*U from the factored form (LINPACK stores the
        // negated multipliers below the diagonal).
        let nn = n as usize;
        let ipvt = ws.array("IPVT");
        let mut lu = vec![vec![0.0f64; nn]; nn];
        for i in 0..nn {
            for j in 0..nn {
                lu[i][j] = ws.get(a, &[(i + 1) as i64, (j + 1) as i64]);
            }
        }
        let mut reconstructed = vec![vec![0.0f64; nn]; nn];
        for i in 0..nn {
            for j in 0..nn {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    let l_ik = if i == k { 1.0 } else { -lu[i][k] };
                    let u_kj = if k <= j { lu[k][j] } else { 0.0 };
                    s += l_ik * u_kj;
                }
                reconstructed[i][j] = s;
            }
        }
        // Undo the row swaps (applied in reverse order).
        for k in (0..nn - 1).rev() {
            let l = ws.get(ipvt, &[(k + 1) as i64]) as usize;
            if l != k {
                reconstructed.swap(k, l);
            }
        }
        for i in 0..nn {
            for j in 0..nn {
                assert!(
                    (reconstructed[i][j] - original[i][j]).abs() < 1e-10,
                    "PA=LU mismatch at ({i},{j}): {} vs {}",
                    reconstructed[i][j],
                    original[i][j]
                );
            }
        }
    }

    #[test]
    fn padded_factorization_matches_plain() {
        use pad_core::{PaddingConfig, PaddingPipeline};
        let n = 24i64;
        let p = spec_steps(n, n - 1);
        let a = p.arrays_with_ids().next().expect("has A").0;

        let mut plain = Workspace::new(&p, DataLayout::original(&p));
        plain.fill_pattern(a, 11);
        // Make it diagonally dominant to keep pivoting deterministic.
        for i in 1..=n {
            let v = plain.get(a, &[i, i]);
            plain.set(a, &[i, i], v + 50.0);
        }
        let mut padded_ws = {
            let outcome =
                PaddingPipeline::pad(PaddingConfig::new(2048, 32).expect("valid")).run(&p);
            Workspace::new(&p, outcome.layout)
        };
        padded_ws.fill_pattern(a, 11);
        for i in 1..=n {
            let v = padded_ws.get(a, &[i, i]);
            padded_ws.set(a, &[i, i], v + 50.0);
        }
        run_native(&mut plain, n);
        run_native(&mut padded_ws, n);
        assert!((plain.checksum(a) - padded_ws.checksum(a)).abs() < 1e-9);
    }
}
