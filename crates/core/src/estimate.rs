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
//! into a [`MissModel`]: the midpoint walk over the program's compiled
//! [`Nest`] that weights each reference group runs at compile time. Only
//! array shapes and base addresses vary between layouts, so
//! [`MissModel::score`] binds the nest to the layout (strides, then one
//! linearization per reference) and makes one pass over each group's
//! reference pairs — no maps, no variable names. The same pass grades
//! the pairs into the [conflict pressure](ModelScore::pressure) the
//! layout search breaks ties with. [`estimate_miss_rate`] is compile-then-score; a search
//! compiles once and scores every candidate.

use pad_ir::{ArrayId, Program};

use crate::config::{CacheParams, PaddingConfig};
use crate::conflict::{circular_distance, is_severe_conflict};
use crate::layout::DataLayout;
use crate::nest::{Nest, SlotExpr};

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
    nest: Nest,
    /// Per reference group: iterations of its loop over the whole nest,
    /// from the midpoint trip-count model.
    weights: Vec<f64>,
    /// Per reference: miss probability (scratch reused across scores).
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
        let nest = Nest::compile(program);
        // The midpoint walk, over the loops in pre-order: a loop runs
        // `(hi - lo) / step + 1` times with its bounds evaluated at the
        // enclosing loops' midpoints, and contributes its midpoint to the
        // loops inside it. `mid` and `outer` are indexed by slot.
        let (mut weights, mut accesses) = (Vec::new(), 0.0);
        let (mut mid, mut outer) = (Vec::new(), Vec::new());
        for l in nest.loops() {
            mid.truncate(l.slot);
            outer.truncate(l.slot);
            let lo = eval_mid(&l.lower, &mid);
            let hi = eval_mid(&l.upper, &mid);
            let trip = (((hi - lo) / l.step as f64) + 1.0).max(0.0);
            let iterations = outer.last().copied().unwrap_or(1.0) * trip;
            if !l.refs.is_empty() {
                weights.push(iterations);
                accesses += iterations * l.refs.len() as f64;
            }
            outer.push(iterations);
            mid.push((lo + hi) / 2.0);
        }
        MissModel {
            levels: config.levels().to_vec(),
            primary: config.primary(),
            accesses,
            prob: vec![0.0; nest.refs().len()],
            nest,
            weights,
        }
    }

    /// Scores `layout`, which must be a layout of the compiled program.
    ///
    /// # Panics
    ///
    /// Panics if `layout` disagrees with the compiled program on the
    /// number of arrays or an array's rank.
    pub fn score(&mut self, layout: &DataLayout) -> ModelScore {
        self.nest.bind(layout);
        let nest = &self.nest;

        let ls = self.primary.line as f64;
        let cs = self.primary.size.max(2);
        let half = (cs / 2) as f64;
        let mut misses = 0.0;
        let mut pressure = 0.0;
        for (g, &weight) in nest.groups().zip(&self.weights) {
            let prob = &mut self.prob;
            for (r, p) in g.refs.clone().zip(&mut prob[g.refs.clone()]) {
                // Baseline per-iteration miss probability from the stride
                // along the group's own (innermost) loop.
                let stride = nest.coeffs(r).last().map_or(0, |c| c.unsigned_abs()) as f64;
                *p = if stride == 0.0 {
                    0.0
                } else if stride < ls {
                    stride / ls
                } else {
                    1.0
                };
            }
            for i in g.refs.clone() {
                for j in i + 1..g.refs.end {
                    if nest.coeffs(i) != nest.coeffs(j) {
                        pressure += 0.5;
                        continue;
                    }
                    let (ai, aj) = (nest.refs()[i].array, nest.refs()[j].array);
                    let diff = nest.offset(i) - nest.offset(j) + layout.base_addr(ai) as i64
                        - layout.base_addr(aj) as i64;
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
            misses += weight * prob[g.refs.clone()].iter().sum::<f64>();
        }

        let line = self.primary.line.max(1) as i64;
        for a in 0..layout.len() {
            let id = ArrayId::from_index(a);
            let dims = layout.dims(id);
            let strides = nest.strides(id);
            if let Some(d) = (1..dims.len()).find(|&d| strides[d].rem_euclid(line) != 0) {
                let walks: i64 = dims[d..].iter().map(|m| m.size).product();
                pressure += walks as f64;
            } else if (layout.base_addr(id) as i64).rem_euclid(line) != 0 {
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

fn eval_mid(expr: &SlotExpr, mid: &[f64]) -> f64 {
    let mut acc = expr.constant as f64;
    for &(slot, coeff) in &expr.terms {
        acc += coeff as f64 * mid[slot];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_ir::{ArrayBuilder, Loop, Stmt, Subscript};

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
