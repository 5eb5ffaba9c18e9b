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
//! array shapes and base addresses vary between layouts. Shapes are
//! bound per array ([`MissModel::bind_pads`]): binding relinearizes the
//! array's references and reclasses the reference groups that read it,
//! so that two references share a class exactly when they sit a constant
//! distance apart. Scoring ([`MissModel::score_at`]) then places every
//! reference at its array's base and grades each group's pairs in one
//! pass — no maps, no variable names, no layout. The same pass grades
//! the pairs into the [conflict pressure](ModelScore::pressure) the
//! layout search breaks ties with. [`MissModel::score`] binds a
//! [`DataLayout`]'s shapes and scores it at its bases;
//! [`estimate_miss_rate`] is compile-then-score. A search compiles once
//! and scores every candidate from its pad vector, rebinding only the
//! arrays whose intra pads changed.

use std::ops::Range;

use pad_ir::{ArrayId, Dim, Program};

use crate::config::{CacheParams, PaddingConfig};
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
/// program, [`MissModel::bind_pads`] and [`MissModel::score_at`] on any
/// padded shapes and bases without building one.
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
    groups: Vec<Group>,
    /// Reference pairs over all groups.
    pair_count: u64,
    /// Per array: element size, declared and bound dimensions, alignment
    /// waste, and the groups that read it.
    elem_sizes: Vec<u32>,
    declared: Vec<Vec<Dim>>,
    dims: Vec<Vec<Dim>>,
    waste: Vec<Waste>,
    /// The bound shapes as intra pads over the declared dimensions (each
    /// array's dimensions in turn); `i64::MIN`, which no pad vector
    /// holds, where a scored layout moved a lower bound.
    pads: Vec<i64>,
    array_groups: Vec<Vec<usize>>,
    /// Per reference: its array, its bound byte offset from the array's
    /// base, and the miss probability its own stride implies.
    ref_array: Vec<usize>,
    offsets: Vec<i64>,
    stride_prob: Vec<f64>,
    /// Per reference: the first reference of its group with the same
    /// bound slot coefficients (the two are a constant distance apart).
    class: Vec<usize>,
    /// True when the bound shapes let the pressure sum in integer units.
    units: bool,
    /// Per reference (scratch reused across scores): miss probability,
    /// and address at every loop slot zero.
    prob: Vec<f64>,
    addr: Vec<i128>,
}

/// The references directly in one loop, which execute together.
#[derive(Debug, Clone)]
struct Group {
    refs: Range<usize>,
    /// Iterations of the loop over the whole nest, from the midpoint
    /// trip-count model.
    weight: f64,
}

/// One array's alignment waste: `shape` walks when a column pitch is not
/// a line multiple, else `base` walks when the base is not.
#[derive(Debug, Clone, Copy, Default)]
struct Waste {
    shape: Option<i64>,
    base: i64,
}

impl MissModel {
    /// Compiles the model for `program` under `config`, bound to the
    /// program's declared shapes.
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
        let (mut groups, mut accesses, mut pair_count) = (Vec::new(), 0.0, 0);
        let (mut mid, mut outer) = (Vec::new(), Vec::new());
        let mut array_groups = vec![Vec::new(); program.arrays().len()];
        for l in nest.loops() {
            mid.truncate(l.slot);
            outer.truncate(l.slot);
            let lo = eval_mid(&l.lower, &mid);
            let hi = eval_mid(&l.upper, &mid);
            let trip = (((hi - lo) / l.step as f64) + 1.0).max(0.0);
            let iterations = outer.last().copied().unwrap_or(1.0) * trip;
            if !l.refs.is_empty() {
                accesses += iterations * l.refs.len() as f64;
                for r in l.refs.clone() {
                    let readers: &mut Vec<usize> = &mut array_groups[nest.refs()[r].array.index()];
                    if readers.last() != Some(&groups.len()) {
                        readers.push(groups.len());
                    }
                }
                let n = l.refs.len() as u64;
                groups.push(Group {
                    refs: l.refs.clone(),
                    weight: iterations,
                });
                pair_count += n * (n - 1) / 2;
            }
            outer.push(iterations);
            mid.push((lo + hi) / 2.0);
        }
        let declared: Vec<Vec<Dim>> = program.arrays().iter().map(|a| a.dims().to_vec()).collect();
        let refs = nest.refs().len();
        let mut model = MissModel {
            levels: config.levels().to_vec(),
            primary: config.primary(),
            accesses,
            ref_array: nest.refs().iter().map(|r| r.array.index()).collect(),
            nest,
            groups,
            pair_count,
            elem_sizes: program.arrays().iter().map(|a| a.elem_size()).collect(),
            pads: vec![0; declared.iter().map(Vec::len).sum()],
            dims: declared.clone(),
            declared,
            waste: vec![Waste::default(); array_groups.len()],
            array_groups,
            offsets: vec![0; refs],
            stride_prob: vec![0.0; refs],
            class: vec![0; refs],
            units: false,
            prob: vec![0.0; refs],
            addr: vec![0; refs],
        };
        (0..model.dims.len()).for_each(|a| model.bind_shape(a));
        (0..model.groups.len()).for_each(|g| model.classify(g));
        model.units = model.exact_units();
        model
    }

    /// Scores `layout`, which must be a layout of the compiled program:
    /// binds the shapes that differ from the bound ones, then scores at
    /// the layout's bases.
    ///
    /// # Panics
    ///
    /// Panics if `layout` disagrees with the compiled program on the
    /// number of arrays or an array's rank.
    pub fn score(&mut self, layout: &DataLayout) -> ModelScore {
        assert_eq!(
            layout.len(),
            self.dims.len(),
            "layout and compiled program disagree on the array count"
        );
        let (mut rebound, mut start) = (false, 0);
        for a in 0..layout.len() {
            let dims = layout.dims(ArrayId::from_index(a));
            assert_eq!(
                dims.len(),
                self.dims[a].len(),
                "layout changed an array's rank"
            );
            let span = start..start + dims.len();
            start = span.end;
            if dims != self.dims[a] {
                self.dims[a].copy_from_slice(dims);
                self.rebind(a);
                rebound = true;
                // A moved lower bound is no pad: no pad vector binds it.
                for ((pad, d), o) in self.pads[span].iter_mut().zip(dims).zip(&self.declared[a]) {
                    *pad = if d.lower == o.lower {
                        d.size - o.size
                    } else {
                        i64::MIN
                    };
                }
            }
        }
        if rebound {
            self.units = self.exact_units();
        }
        self.score_at(layout.base_addrs())
    }

    /// Binds every array's shape to its declared dimensions grown by
    /// `pads` elements: a pad vector's intra pads, each array's dimensions
    /// in turn. Only the arrays whose shape changes are rebound, so a
    /// search relinearizes an array only when its intra pads change.
    ///
    /// # Panics
    ///
    /// Panics if `pads` does not hold one entry per dimension.
    pub fn bind_pads(&mut self, pads: &[i64]) {
        assert_eq!(pads.len(), self.pads.len(), "one pad per dimension");
        if pads == self.pads {
            return;
        }
        let mut start = 0;
        for a in 0..self.dims.len() {
            let span = start..start + self.dims[a].len();
            start = span.end;
            if pads[span.clone()] != self.pads[span.clone()] {
                let shape = self.declared[a].iter().zip(&pads[span]);
                for (d, (o, &p)) in self.dims[a].iter_mut().zip(shape) {
                    *d = Dim {
                        size: o.size + p,
                        ..*o
                    };
                }
                self.rebind(a);
            }
        }
        self.pads.copy_from_slice(pads);
        self.units = self.exact_units();
    }

    /// True when the bound shapes let [`MissModel::score_at`] sum the
    /// pressure exactly, as an integer count of `1 / (cache size / 2)`
    /// units; false when it adds the terms in pair order.
    ///
    /// Every pressure term is such a unit count when the primary cache
    /// (at least 4 bytes) is a power of two: a graded pair is
    /// `cache size / 2 − distance` units, a varying pair a quarter of the
    /// cache, an alignment walk half of it. Terms are nonnegative, so when
    /// the largest total the shapes allow stays below 2^53 units every
    /// partial sum is exact in `f64`, and the order of the additions
    /// cannot change a bit. That holds for every real cache; a 2^50-byte
    /// level exceeds it with a handful of pairs.
    pub fn exact_pressure_sum(&self) -> bool {
        self.units
    }

    /// Scores the bound shapes with array `a` at base address `bases[a]`.
    ///
    /// # Panics
    ///
    /// Panics if `bases` does not hold one address per array.
    pub fn score_at(&mut self, bases: &[u64]) -> ModelScore {
        assert_eq!(bases.len(), self.dims.len(), "one base per array");
        for ((addr, &a), &offset) in self.addr.iter_mut().zip(&self.ref_array).zip(&self.offsets) {
            *addr = i128::from(bases[a]) + i128::from(offset);
        }
        let half = self.primary.size.max(2) / 2;
        if self.units {
            self.grade(bases, Units { half, sum: 0 })
        } else {
            self.grade(
                bases,
                InOrder {
                    half: half as f64,
                    sum: 0.0,
                },
            )
        }
    }

    /// The one pair pass: flags severe pairs on every level, grades the
    /// pressure on the primary level, then charges the alignment waste.
    fn grade<S: PressureSum>(&mut self, bases: &[u64], mut sum: S) -> ModelScore {
        let (cs, line) = (self.primary.size.max(2), self.primary.line);
        // With one level (of at least 2 bytes), a pair a line or more
        // apart in set space is neither severe nor on one line; with more,
        // every pair takes the exact test.
        let gate = match self.levels.len() == 1 && self.primary.size >= 2 {
            true => line,
            false => u64::MAX,
        };
        let (addr, class, prob) = (&self.addr[..], &self.class[..], &mut self.prob[..]);
        let mut misses = 0.0;
        for g in &self.groups {
            prob[g.refs.clone()].copy_from_slice(&self.stride_prob[g.refs.clone()]);
            for i in g.refs.clone() {
                let (class_i, low_i) = (class[i], addr[i] as u64);
                let rest = i + 1..g.refs.end;
                let others = class[rest.clone()].iter().zip(&addr[rest.clone()]);
                for (j, (&class_j, &addr_j)) in rest.zip(others) {
                    // References a constant distance apart share a class;
                    // any other pair's distance varies per iteration.
                    let constant = class_i == class_j;
                    // The low 64 bits of the exact distance carry its
                    // residue modulo every power-of-two cache size. A
                    // pair under a line apart in memory is under a line
                    // apart in set space too.
                    let dist = circular_residue(low_i.wrapping_sub(addr_j as u64), cs);
                    if dist >= gate {
                        sum.pair(constant, true, dist);
                        continue;
                    }
                    let (severe, apart) = near_pair(&self.levels, addr[i] - addr_j);
                    // Severe constant-distance pairs force both references
                    // to miss every iteration.
                    if severe && constant {
                        prob[i] = 1.0;
                        prob[j] = 1.0;
                    }
                    // Same-line pairs are spatial reuse, not conflict.
                    sum.pair(constant, apart, dist);
                }
            }
            misses += g.weight * prob[g.refs.clone()].iter().sum::<f64>();
        }
        let misaligned = self.primary.line.max(1) - 1;
        for (waste, &base) in self.waste.iter().zip(bases) {
            if let Some(walks) = waste.shape {
                sum.walks(walks);
            } else if base & misaligned != 0 {
                sum.walks(waste.base);
            }
        }
        ModelScore {
            estimate: MissEstimate {
                accesses: self.accesses,
                misses,
            },
            pressure: sum.total(),
        }
    }

    /// Rebinds array `a` to `self.dims[a]` and reclassifies the groups
    /// that read it; the caller then updates `units`.
    fn rebind(&mut self, a: usize) {
        self.bind_shape(a);
        for i in 0..self.array_groups[a].len() {
            self.classify(self.array_groups[a][i]);
        }
    }

    /// Binds array `a`'s references and alignment waste to
    /// `self.dims[a]`.
    fn bind_shape(&mut self, a: usize) {
        let id = ArrayId::from_index(a);
        let dims = &self.dims[a];
        self.nest.bind_array(id, self.elem_sizes[a], dims);
        let ls = self.primary.line as f64;
        for &r in self.nest.array_refs(id) {
            self.offsets[r] = self.nest.offset(r);
            // Baseline per-iteration miss probability from the stride
            // along the group's own (innermost) loop.
            let stride = self.nest.coeffs(r).last().map_or(0, |c| c.unsigned_abs()) as f64;
            self.stride_prob[r] = if stride == 0.0 {
                0.0
            } else if stride < ls {
                stride / ls
            } else {
                1.0
            };
        }
        let misaligned = self.primary.line.max(1) as i64 - 1;
        let strides = self.nest.strides(id);
        self.waste[a] = Waste {
            shape: (1..dims.len())
                .find(|&d| strides[d] & misaligned != 0)
                .map(|d| dims[d..].iter().map(|m| m.size).product()),
            base: dims.iter().skip(1).map(|m| m.size).product(),
        };
    }

    /// Classes group `g`'s references under the bound shapes: each one's
    /// class is the first reference of the group with the same slot
    /// coefficients, so a pair is a constant distance apart exactly when
    /// its references share a class.
    fn classify(&mut self, g: usize) {
        let (nest, class, refs) = (&self.nest, &mut self.class, self.groups[g].refs.clone());
        for r in refs.clone() {
            let coeffs = nest.coeffs(r);
            class[r] = (refs.start..r)
                .find(|&q| class[q] == q && nest.coeffs(q).iter().eq(coeffs))
                .unwrap_or(r);
        }
    }

    /// Whether the pressure of every layout with the bound shapes sums
    /// exactly in units (see [`MissModel::exact_pressure_sum`]).
    fn exact_units(&self) -> bool {
        let half = self.primary.size.max(2) / 2;
        // Each pair adds at most `half` units, each array's waste at most
        // its walks times `half`.
        let walks = self
            .waste
            .iter()
            .try_fold(u128::from(self.pair_count), |acc, w| {
                Some(acc + u128::try_from(w.shape.unwrap_or(w.base)).ok()?)
            });
        half >= 2 && walks.is_some_and(|w| w.saturating_mul(u128::from(half)) < 1 << 53)
    }
}

/// For two references `diff` bytes apart: whether they conflict severely
/// on some level, and whether they are at least a primary line apart.
#[cold]
#[inline(never)]
fn near_pair(levels: &[CacheParams], diff: i128) -> (bool, bool) {
    let (far, low) = (diff.unsigned_abs(), diff as u64);
    let apart = |line: u64| far >= u128::from(line);
    let severe = levels
        .iter()
        .any(|lvl| apart(lvl.line) && circular_residue(low, lvl.size) < lvl.line);
    (severe, apart(levels[0].line))
}

/// `d mod cs` for the low 64 bits `low` of a distance `d`, as a circular
/// distance `min(r, cs − r)` on a power-of-two cache of `cs` bytes: the
/// residue is the low bits, so a wrapped or truncated difference keeps it.
#[inline]
fn circular_residue(low: u64, cs: u64) -> u64 {
    let r = low & (cs - 1);
    r.min(cs - r)
}

/// How a score adds up its pressure terms, in the order [`MissModel`]
/// meets them.
trait PressureSum {
    /// A reference pair: 0.5 when its distance varies, else graded by its
    /// circular distance `dist` when the two are a line or more `apart`.
    fn pair(&mut self, constant: bool, apart: bool, dist: u64);
    /// An array's alignment waste of `walks` row walks.
    fn walks(&mut self, walks: i64);
    fn total(self) -> f64;
}

/// An exact sum in units of `1 / half`, `half` being half the cache size.
struct Units {
    half: u64,
    sum: u64,
}

impl PressureSum for Units {
    fn pair(&mut self, constant: bool, apart: bool, dist: u64) {
        let graded = if apart { self.half - dist } else { 0 };
        self.sum += if constant { graded } else { self.half / 2 };
    }
    fn walks(&mut self, walks: i64) {
        self.sum += walks as u64 * self.half;
    }
    fn total(self) -> f64 {
        self.sum as f64 / self.half as f64
    }
}

/// The `f64` sum, term by term in pair order.
struct InOrder {
    half: f64,
    sum: f64,
}

impl PressureSum for InOrder {
    fn pair(&mut self, constant: bool, apart: bool, dist: u64) {
        if !constant {
            self.sum += 0.5;
        } else if apart {
            self.sum += (self.half - dist as f64) / self.half;
        }
    }
    fn walks(&mut self, walks: i64) {
        self.sum += walks as f64;
    }
    fn total(self) -> f64 {
        self.sum
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
