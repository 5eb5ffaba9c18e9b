//! Compile-time miss-rate estimation.
//!
//! The paper positions itself against full *cache miss equations* (Ghosh,
//! Martonosi & Malik) by using "a simplified version ... to detect when
//! large numbers of conflict misses will occur" rather than counting
//! misses exactly. This module makes that simplified model available as a
//! standalone estimator: given a program, a layout, and cache parameters,
//! it predicts the miss rate from
//!
//! * **spatial misses**: a unit-stride reference misses once per cache
//!   line (`stride / L_s` per iteration), a wide-strided reference once
//!   per iteration, a loop-invariant reference never; and
//! * **severe conflicts**: any reference in a severe constant-distance
//!   pair (the pad condition of `INTERPAD`/`INTRAPAD`) on any cache level
//!   misses *every* iteration.
//!
//! Capacity misses are ignored (the usual fully-associative assumption of
//! analytical models), so the estimate is a lower bound that is tightest
//! for in-cache working sets. Its purpose is ranking layouts — the
//! experiment harness checks it ranks original vs padded layouts the same
//! way the simulator does, in a fraction of the time.
//!
//! The model is *compiled* once per program and padding configuration
//! into a [`MissModel`]: the midpoint walk of the loop tree that weights
//! each reference group runs at compile time, and every reference becomes
//! dense per-dimension rows over its group's loop slots. Only array shapes
//! and base addresses vary between layouts, so [`MissModel::score`]
//! computes strides, linearizes each reference once into a reused buffer,
//! and makes one pass over each group's reference pairs — no maps, no
//! variable names. The same pass grades the pairs into the
//! [conflict pressure](ModelScore::pressure) the layout search breaks
//! ties with. [`estimate_miss_rate`] is compile-then-score; a search
//! compiles once and scores every candidate.

use std::ops::Range;

use pad_ir::{AffineExpr, ArrayId, IndexVar, Program, Stmt};

use crate::config::{CacheParams, PaddingConfig};
use crate::conflict::{circular_distance, is_severe_conflict};
use crate::layout::DataLayout;

/// Predicted access and miss totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MissEstimate {
    /// Estimated dynamic access count.
    pub accesses: f64,
    /// Estimated misses (spatial + severe-conflict).
    pub misses: f64,
}

impl MissEstimate {
    /// Estimated miss rate in `[0, 1]` (0 for an empty program).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0.0 {
            0.0
        } else {
            (self.misses / self.accesses).min(1.0)
        }
    }

    /// Estimated miss rate as a percentage.
    pub fn miss_rate_percent(&self) -> f64 {
        100.0 * self.miss_rate()
    }
}

/// Estimates the miss rate of `program` under `layout` on the levels of
/// `config` (spatial misses on the primary level, severe conflicts on
/// any). See the module-level docs for the model.
pub fn estimate_miss_rate(
    program: &Program,
    layout: &DataLayout,
    config: &PaddingConfig,
) -> MissEstimate {
    MissModel::compile(program, config).score(layout).estimate
}

/// One layout's score under a [`MissModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelScore {
    /// The analytic miss estimate ([`estimate_miss_rate`]).
    pub estimate: MissEstimate,
    /// Graded sub-severe conflict pressure on the primary level.
    ///
    /// The estimate is deliberately coarse: constant-distance reference
    /// pairs cost full price when severe (circular distance under a line)
    /// and zero otherwise, so once the PAD heuristic clears the severe
    /// pairs the analytic landscape is flat and no search could improve
    /// on it. This term grades the *same* quantity the model thresholds,
    /// per pair of references sharing a loop:
    ///
    /// * **constant-distance pairs** (the ones `find_severe_conflicts`
    ///   scans) are charged a penalty that decays linearly with circular
    ///   set-space distance, from 1 (same set) to 0 (maximally apart,
    ///   half the cache away) — lockstep walkers thrash in proportion to
    ///   how close they sit in set space;
    /// * **same-line pairs** are pure spatial reuse and cost nothing (the
    ///   `is_severe_conflict` guard);
    /// * **non-constant pairs** — walkers whose pitches differ, typically
    ///   because only one array's column was padded — cost a flat 0.5,
    ///   the mean of the graded term over random placement.
    ///   De-synchronized walkers sweep across each other's sets and
    ///   interfere broadly; treating a vanished constant difference as
    ///   *free* would reward exactly the intra pads that break
    ///   synchronization, inverting the objective (keeping lockstep
    ///   arrays at matched pitch and wide separation must always score
    ///   best).
    ///
    /// On top of the pairwise terms, each array is charged **alignment
    /// waste**: a column pitch (or base address) that is not a line
    /// multiple makes every row walk straddle one extra line — one real
    /// miss per row that the model's `stride/line` spatial term cannot
    /// see. This is what makes an element-granular heuristic pad rank
    /// *worse* than a line-granular placement with the same set-space
    /// geometry, exactly as the simulator does.
    ///
    /// The pairwise magnitude — at most one unit per pair — and the
    /// alignment waste — at most one unit per row — sit far below one
    /// severe conflict's cost (a full nest of misses), so severe-vs-free
    /// ordering is never reordered; the term only differentiates
    /// severe-free layouts.
    pub pressure: f64,
}

/// The references directly inside one loop body, which execute together
/// on every iteration of that loop (`Program::ref_groups` order).
#[derive(Debug, Clone)]
struct Group {
    /// Iterations of the group's loop over the whole nest, from the
    /// midpoint trip-count model.
    weight: f64,
    /// The group's references, as a range of `MissModel::refs`.
    refs: Range<usize>,
    /// Loop-variable slots: one per enclosing loop, outermost first, so
    /// the group's own loop is the last.
    width: usize,
}

/// One reference compiled against its group's slots.
#[derive(Debug, Clone, Copy)]
struct CompiledRef {
    array: usize,
    /// Start of the reference's rows in `MissModel::rows`: per dimension,
    /// the subscript's constant, then one coefficient per group slot.
    rows: usize,
}

/// The analytic miss model compiled for one program and padding
/// configuration; [`MissModel::score`] evaluates it on any layout of that
/// program.
///
/// Scores are bit-identical to evaluating the model reference by
/// reference — per-group probabilities are summed in reference order,
/// groups in loop pre-order, pairs `i < j` in reference order, and the
/// alignment waste last. `pad-search`'s `model_differential` test keeps
/// that form as its oracle.
#[derive(Debug, Clone)]
pub struct MissModel {
    levels: Vec<CacheParams>,
    primary: CacheParams,
    /// Access total, independent of the layout.
    accesses: f64,
    groups: Vec<Group>,
    refs: Vec<CompiledRef>,
    rows: Vec<i64>,
    /// Array `a`'s dimensions are `dim_terms[dim_start[a]..dim_start[a + 1]]`.
    dim_start: Vec<usize>,
    // Scratch reused across scores.
    /// Per array dimension: byte stride and lower bound under the layout
    /// being scored.
    dim_terms: Vec<(i64, i64)>,
    /// Per array: base address under the layout being scored.
    bases: Vec<i64>,
    /// Per reference of the current group: linearized byte offset, then
    /// one coefficient per slot.
    lin: Vec<i64>,
    /// Per reference of the current group: miss probability.
    prob: Vec<f64>,
}

impl MissModel {
    /// Compiles the model for `program` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if a subscript reads a variable no enclosing loop binds
    /// (programs are validated at construction, so this indicates a
    /// caller bug).
    pub fn compile(program: &Program, config: &PaddingConfig) -> Self {
        let mut dim_start = vec![0];
        for spec in program.arrays() {
            dim_start.push(dim_start[dim_start.len() - 1] + spec.rank());
        }
        let mut model = MissModel {
            levels: config.levels().to_vec(),
            primary: config.primary(),
            accesses: 0.0,
            groups: Vec::new(),
            refs: Vec::new(),
            rows: Vec::new(),
            dim_terms: vec![(0, 0); dim_start[program.arrays().len()]],
            dim_start,
            bases: vec![0; program.arrays().len()],
            lin: Vec::new(),
            prob: Vec::new(),
        };
        let mut scope = Vec::new();
        let mut mid = Vec::new();
        for stmt in program.body() {
            model.compile_stmt(stmt, 1.0, &mut scope, &mut mid);
        }
        model
    }

    /// The midpoint walk: a loop runs `(hi - lo) / step + 1` times with
    /// its bounds evaluated at the enclosing loops' midpoints, and
    /// contributes its midpoint to the loops inside it.
    fn compile_stmt<'p>(
        &mut self,
        stmt: &'p Stmt,
        iterations: f64,
        scope: &mut Vec<&'p IndexVar>,
        mid: &mut Vec<f64>,
    ) {
        let Stmt::Loop { header, body } = stmt else {
            return; // references are grouped by their enclosing loop
        };
        let lo = eval_mid(header.lower(), scope, mid);
        let hi = eval_mid(header.upper(), scope, mid);
        let step = header.step() as f64;
        let trip = (((hi - lo) / step) + 1.0).max(0.0);
        let inner_iterations = iterations * trip;
        scope.push(header.var());
        mid.push((lo + hi) / 2.0);

        let first = self.refs.len();
        let width = scope.len();
        for refs in body.iter().filter_map(|s| match s {
            Stmt::Refs(refs) => Some(refs),
            Stmt::Loop { .. } => None,
        }) {
            for r in refs {
                let rows = self.rows.len();
                for sub in r.subscripts() {
                    let row = self.rows.len();
                    self.rows.push(sub.offset());
                    self.rows.resize(row + 1 + width, 0);
                    for (var, coeff) in sub.terms() {
                        self.rows[row + 1 + slot_of(var, scope)] += coeff;
                    }
                }
                self.refs.push(CompiledRef {
                    array: r.array().index(),
                    rows,
                });
            }
        }
        let n = self.refs.len() - first;
        if n > 0 {
            self.accesses += inner_iterations * n as f64;
            self.groups.push(Group {
                weight: inner_iterations,
                refs: first..self.refs.len(),
                width,
            });
            self.lin.resize(self.lin.len().max(n * (1 + width)), 0);
            self.prob.resize(self.prob.len().max(n), 0.0);
        }
        for s in body {
            self.compile_stmt(s, inner_iterations, scope, mid);
        }
        scope.pop();
        mid.pop();
    }

    /// Scores `layout`, which must be a layout of the compiled program.
    ///
    /// # Panics
    ///
    /// Panics if `layout` disagrees with the compiled program on the
    /// number of arrays or an array's rank.
    pub fn score(&mut self, layout: &DataLayout) -> ModelScore {
        assert_eq!(
            layout.len(),
            self.bases.len(),
            "layout and compiled program disagree on the array count"
        );
        // Column-major strides; lower bounds come from the layout, exactly
        // as `linearize` reads them.
        for (a, base) in self.bases.iter_mut().enumerate() {
            let id = ArrayId::from_index(a);
            let dims = layout.dims(id);
            let terms = &mut self.dim_terms[self.dim_start[a]..self.dim_start[a + 1]];
            assert_eq!(dims.len(), terms.len(), "layout changed an array's rank");
            let mut stride = i64::from(layout.elem_size(id));
            for (term, dim) in terms.iter_mut().zip(dims) {
                *term = (stride, dim.lower);
                stride *= dim.size;
            }
            *base = layout.base_addr(id) as i64;
        }

        let ls = self.primary.line as f64;
        let cs = self.primary.size.max(2);
        let half = (cs / 2) as f64;
        let mut misses = 0.0;
        let mut pressure = 0.0;
        for g in &self.groups {
            let cols = 1 + g.width;
            let refs = &self.refs[g.refs.clone()];
            let lin = &mut self.lin[..refs.len() * cols];
            let prob = &mut self.prob[..refs.len()];
            for ((r, out), p) in refs
                .iter()
                .zip(lin.chunks_exact_mut(cols))
                .zip(prob.iter_mut())
            {
                out.fill(0);
                let terms = &self.dim_terms[self.dim_start[r.array]..self.dim_start[r.array + 1]];
                let rows = &self.rows[r.rows..r.rows + terms.len() * cols];
                for (&(stride, lower), row) in terms.iter().zip(rows.chunks_exact(cols)) {
                    out[0] += (row[0] - lower) * stride;
                    for (c, &k) in out[1..].iter_mut().zip(&row[1..]) {
                        *c += k * stride;
                    }
                }
                // Baseline per-iteration miss probability from the stride
                // along the group's own (innermost) loop.
                let stride = out[g.width].unsigned_abs() as f64;
                *p = if stride == 0.0 {
                    0.0
                } else if stride < ls {
                    stride / ls
                } else {
                    1.0
                };
            }
            for i in 0..refs.len() {
                let li = &lin[i * cols..(i + 1) * cols];
                for j in i + 1..refs.len() {
                    let lj = &lin[j * cols..(j + 1) * cols];
                    if li[1..] != lj[1..] {
                        pressure += 0.5;
                        continue;
                    }
                    let diff =
                        li[0] - lj[0] + self.bases[refs[i].array] - self.bases[refs[j].array];
                    // Severe constant-distance pairs force both references
                    // to miss every iteration.
                    if self
                        .levels
                        .iter()
                        .any(|lvl| is_severe_conflict(diff, lvl.size, lvl.line, lvl.line))
                    {
                        prob[i] = 1.0;
                        prob[j] = 1.0;
                    }
                    // Same-line pairs are spatial reuse, not conflict.
                    if diff.unsigned_abs() >= self.primary.line {
                        let dist = circular_distance(diff, cs) as f64;
                        pressure += (half - dist) / half;
                    }
                }
            }
            misses += g.weight * prob.iter().sum::<f64>();
        }

        let line = self.primary.line.max(1) as i64;
        for (a, &base) in self.bases.iter().enumerate() {
            let dims = layout.dims(ArrayId::from_index(a));
            let strides = &self.dim_terms[self.dim_start[a]..self.dim_start[a + 1]];
            if let Some(d) = (1..dims.len()).find(|&d| strides[d].0.rem_euclid(line) != 0) {
                let walks: i64 = dims[d..].iter().map(|m| m.size).product();
                pressure += walks as f64;
            } else if base.rem_euclid(line) != 0 {
                let walks: i64 = dims.iter().skip(1).map(|m| m.size).product();
                pressure += walks as f64;
            }
        }

        ModelScore {
            estimate: MissEstimate {
                accesses: self.accesses,
                misses,
            },
            pressure,
        }
    }
}

/// The slot of `var` in `scope` (innermost binding wins).
fn slot_of(var: &IndexVar, scope: &[&IndexVar]) -> usize {
    scope
        .iter()
        .rposition(|v| *v == var)
        .expect("validated programs bind every variable")
}

fn eval_mid(expr: &AffineExpr, scope: &[&IndexVar], mid: &[f64]) -> f64 {
    let mut acc = expr.offset() as f64;
    for (var, coeff) in expr.terms() {
        acc += *coeff as f64 * mid[slot_of(var, scope)];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_ir::{ArrayBuilder, Loop, Subscript};

    fn dot(n: i64, collide: bool) -> (Program, DataLayout) {
        let mut b = Program::builder("dot");
        let a = b.add_array(ArrayBuilder::new("A", [n]));
        let bb = b.add_array(ArrayBuilder::new("B", [n]));
        b.push(Stmt::loop_(
            Loop::new("i", 1, n),
            vec![Stmt::Refs(vec![
                a.at([Subscript::var("i")]),
                bb.at([Subscript::var("i")]),
            ])],
        ));
        let p = b.build().expect("valid");
        let mut layout = DataLayout::original(&p);
        if !collide {
            layout.set_base_addr(bb, layout.base_addr(bb) + 512);
        }
        (p, layout)
    }

    fn config() -> PaddingConfig {
        PaddingConfig::paper_base()
    }

    #[test]
    fn colliding_dot_product_predicts_total_conflict() {
        // 2048 doubles = one full 16K cache: bases collide.
        let (p, layout) = dot(2048, true);
        let est = estimate_miss_rate(&p, &layout, &config());
        assert_eq!(est.accesses, 2.0 * 2048.0);
        assert!(est.miss_rate() > 0.99, "rate {}", est.miss_rate());
    }

    #[test]
    fn separated_dot_product_predicts_spatial_only() {
        let (p, layout) = dot(2048, false);
        let est = estimate_miss_rate(&p, &layout, &config());
        // 8-byte stride on 32-byte lines: a miss every 4th element.
        assert!(
            (est.miss_rate() - 0.25).abs() < 0.01,
            "rate {}",
            est.miss_rate()
        );
    }

    #[test]
    fn loop_invariant_refs_cost_nothing() {
        let n = 64;
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [n, n]));
        b.push(Stmt::loop_nest(
            [Loop::new("j", 1, n), Loop::new("i", 1, n)],
            vec![Stmt::Refs(vec![
                // A(1, j) is invariant in the innermost i loop.
                a.at([Subscript::constant(1), Subscript::var("j")]),
            ])],
        ));
        let p = b.build().expect("valid");
        let est = estimate_miss_rate(&p, &DataLayout::original(&p), &config());
        assert_eq!(est.misses, 0.0);
        assert!(est.accesses > 0.0);
    }

    #[test]
    fn triangular_trip_counts_are_approximated() {
        let n = 100;
        let mut b = Program::builder("tri");
        let a = b.add_array(ArrayBuilder::new("A", [n]));
        b.push(Stmt::loop_(
            Loop::new("k", 1, n),
            vec![Stmt::loop_(
                Loop::new("i", Subscript::var_offset("k", 1), n),
                vec![Stmt::Refs(vec![a.at([Subscript::var("i")])])],
            )],
        ));
        let p = b.build().expect("valid");
        let est = estimate_miss_rate(&p, &DataLayout::original(&p), &config());
        // Exact count is n(n-1)/2 = 4950; the midpoint model gives
        // n * (n - (n+1)/2 + 1) ≈ 5000.
        assert!(
            (est.accesses - 4950.0).abs() < 150.0,
            "accesses {}",
            est.accesses
        );
    }

    #[test]
    fn estimator_ranks_layouts_like_the_pad_condition() {
        use crate::combined::Pad;
        // JACOBI at the paper's N=512/Cs=1024 element-unit parameters.
        let n = 512;
        let mut b = Program::builder("jacobi");
        let a = b.add_array(ArrayBuilder::new("A", [n, n]).elem_size(1));
        let bb = b.add_array(ArrayBuilder::new("B", [n, n]).elem_size(1));
        b.push(Stmt::loop_nest(
            [Loop::new("i", 2, n - 1), Loop::new("j", 2, n - 1)],
            vec![Stmt::Refs(vec![
                a.at([Subscript::var_offset("j", -1), Subscript::var("i")]),
                a.at([Subscript::var("j"), Subscript::var_offset("i", -1)]),
                a.at([Subscript::var_offset("j", 1), Subscript::var("i")]),
                a.at([Subscript::var("j"), Subscript::var_offset("i", 1)]),
                bb.at([Subscript::var("j"), Subscript::var("i")]).write(),
            ])],
        ));
        let p = b.build().expect("valid");
        let cfg = PaddingConfig::new(1024, 4).expect("valid");
        let before = estimate_miss_rate(&p, &DataLayout::original(&p), &cfg);
        let after = estimate_miss_rate(&p, &Pad::new(cfg.clone()).run(&p).layout, &cfg);
        assert!(
            after.miss_rate() < before.miss_rate(),
            "before {} after {}",
            before.miss_rate(),
            after.miss_rate()
        );
    }
}
