//! MULT — matrix multiplication, Livermore loop 21 (29 lines, 3 global
//! arrays).
//!
//! `C += A * B` in the classic Fortran `j/k/i` order: the innermost loop
//! streams a column of `C` against a column of `A` while `B(k,j)` stays in
//! a register. Conflicts arise between the `C` and `A` columns when the
//! equally-sized matrices alias on the cache.

use pad_ir::{Loop, Program, Stmt};

use crate::util::at2;
use crate::workspace::Workspace;

/// Paper problem size (`MULT300`).
pub const DEFAULT_N: i64 = 300;

/// Outer `j` iterations included in the simulated trace (each iteration
/// repeats the same access structure; see [`spec_steps`]).
pub const DEFAULT_STEPS: i64 = 30;

/// Builds the matmul nest at order `n`, truncated to [`DEFAULT_STEPS`]
/// outer iterations for cache simulation. Use [`spec_steps`]`(n, n)` for
/// the complete multiplication.
pub fn spec(n: i64) -> Program {
    spec_steps(n, DEFAULT_STEPS)
}

/// Builds the matmul with only the first `steps` iterations of the outer
/// `j` loop, for bounded-cost cache simulation. The access pattern of
/// each `j` iteration is identical in structure, so truncation preserves
/// the miss-rate shape.
pub fn spec_steps(n: i64, steps: i64) -> Program {
    let mut b = Program::builder("MULT300");
    b.source_lines(29);
    let a = b.add_array(pad_ir::ArrayBuilder::new("A", [n, n]));
    let bb = b.add_array(pad_ir::ArrayBuilder::new("B", [n, n]));
    let c = b.add_array(pad_ir::ArrayBuilder::new("C", [n, n]));
    b.push(Stmt::loop_(
        Loop::new("j", 1, steps.min(n)),
        vec![Stmt::loop_(
            Loop::new("k", 1, n),
            vec![
                // B(k,j) is loop-invariant in i: referenced once per k.
                Stmt::refs(vec![at2(bb, "k", 0, "j", 0)]),
                Stmt::loop_(
                    Loop::new("i", 1, n),
                    vec![Stmt::refs(vec![
                        at2(c, "i", 0, "j", 0),
                        at2(a, "i", 0, "k", 0),
                        at2(c, "i", 0, "j", 0).write(),
                    ])],
                ),
            ],
        )],
    ));
    b.build().expect("MULT spec is well-formed")
}

/// Builds a *tiled* matmul: the `k` and `i` loops are blocked by
/// `tile_k × tile_i`, the computation-reordering alternative to padding
/// (Coleman & McKinley's tile-size selection is the paper's cited sibling
/// of `FirstConflict`; see `pad_core::select_tile`). Bounds stay affine
/// because the tile sizes must divide `n`.
///
/// The `j` loop is truncated to `steps` iterations (`n` runs it whole),
/// the same truncation [`spec_steps`] applies to the untiled form — so
/// the two cover identical iteration subspaces and their miss rates are
/// directly comparable.
///
/// # Panics
///
/// Panics unless `tile_i` and `tile_k` are positive and divide `n`.
pub fn spec_tiled_steps(n: i64, tile_i: i64, tile_k: i64, steps: i64) -> Program {
    assert!(tile_i > 0 && n % tile_i == 0, "tile_i must divide n");
    assert!(tile_k > 0 && n % tile_k == 0, "tile_k must divide n");
    let steps = steps.min(n);
    let mut b = Program::builder("MULT300T");
    b.source_lines(29);
    let a = b.add_array(pad_ir::ArrayBuilder::new("A", [n, n]));
    let bb = b.add_array(pad_ir::ArrayBuilder::new("B", [n, n]));
    let c = b.add_array(pad_ir::ArrayBuilder::new("C", [n, n]));
    use pad_ir::Subscript;
    b.push(Stmt::loop_(
        Loop::with_step("kk", 1, n, tile_k),
        vec![Stmt::loop_(
            Loop::with_step("ii", 1, n, tile_i),
            vec![Stmt::loop_(
                Loop::new("j", 1, steps),
                vec![Stmt::loop_(
                    Loop::new(
                        "k",
                        Subscript::var("kk"),
                        Subscript::var_offset("kk", tile_k - 1),
                    ),
                    vec![
                        Stmt::refs(vec![at2(bb, "k", 0, "j", 0)]),
                        Stmt::loop_(
                            Loop::new(
                                "i",
                                Subscript::var("ii"),
                                Subscript::var_offset("ii", tile_i - 1),
                            ),
                            vec![Stmt::refs(vec![
                                at2(c, "i", 0, "j", 0),
                                at2(a, "i", 0, "k", 0),
                                at2(c, "i", 0, "j", 0).write(),
                            ])],
                        ),
                    ],
                )],
            )],
        )],
    ));
    b.build().expect("tiled MULT spec is well-formed")
}

/// Runs the full `C += A * B` natively.
pub fn run_native(ws: &mut Workspace, n: i64) {
    let a = ws.array("A");
    let b = ws.array("B");
    let c = ws.array("C");
    let a0 = ws.base_word(a);
    let b0 = ws.base_word(b);
    let c0 = ws.base_word(c);
    let acol = ws.strides(a)[1];
    let bcol = ws.strides(b)[1];
    let ccol = ws.strides(c)[1];
    let n = n as usize;
    let buf = ws.words_mut();
    for j in 0..n {
        for k in 0..n {
            let bkj = buf[b0 + k + j * bcol];
            let arow = a0 + k * acol;
            let crow = c0 + j * ccol;
            for i in 0..n {
                buf[crow + i] += bkj * buf[arow + i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::DataLayout;

    #[test]
    fn spec_shape() {
        let p = spec(8);
        assert_eq!(p.arrays().len(), 3);
        // Two groups: B(k,j) under k, and the i-loop body.
        assert_eq!(p.ref_groups().len(), 2);
    }

    #[test]
    fn steps_truncate_the_outer_loop() {
        use pad_core::DataLayout;
        use pad_trace::count_accesses;
        let full = spec(16);
        let cut = spec_steps(16, 4);
        let lf = DataLayout::original(&full);
        let lc = DataLayout::original(&cut);
        assert_eq!(count_accesses(&cut, &lc) * 4, count_accesses(&full, &lf));
    }

    #[test]
    fn tiled_spec_touches_the_same_volume() {
        use pad_trace::count_accesses;
        // Tiling reorders iterations; the access count is unchanged
        // except for B(k,j), which is re-read once per i-tile.
        let n = 16i64;
        let (ti, tk) = (8, 4);
        let flat = spec_steps(n, n);
        let tiled = spec_tiled_steps(n, ti, tk, n);
        let lf = DataLayout::original(&flat);
        let lt = DataLayout::original(&tiled);
        let inner = 3 * n * n * n; // C,A,C per innermost iteration
        assert_eq!(count_accesses(&flat, &lf), (inner + n * n) as u64);
        assert_eq!(
            count_accesses(&tiled, &lt),
            (inner + n * n * (n / ti)) as u64
        );
    }

    #[test]
    #[should_panic(expected = "tile_k must divide n")]
    fn tiled_spec_rejects_non_divisors() {
        let _ = spec_tiled_steps(16, 8, 3, 16);
    }

    #[test]
    fn native_multiplies_identity() {
        let n = 6i64;
        let p = spec(n);
        let mut ws = Workspace::new(&p, DataLayout::original(&p));
        let a = ws.array("A");
        let b = ws.array("B");
        let c = ws.array("C");
        for i in 1..=n {
            ws.set(b, &[i, i], 1.0); // B = I
            for j in 1..=n {
                ws.set(a, &[i, j], (i * 10 + j) as f64);
            }
        }
        run_native(&mut ws, n);
        for i in 1..=n {
            for j in 1..=n {
                assert_eq!(ws.get(c, &[i, j]), (i * 10 + j) as f64, "C({i},{j})");
            }
        }
    }
}
