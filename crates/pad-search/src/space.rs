//! The joint pad-vector search space.
//!
//! A [`PadVector`] is one point in the joint transformation space: an
//! intra pad (extra elements per dimension) for every array plus an inter
//! gap (extra bytes before the array's base) for every array. The paper's
//! heuristics walk this space one coordinate at a time; the search
//! strategies in this crate move through it jointly.
//!
//! Two invariants make the search deterministic and order-independent:
//!
//! * the move list of a [`SearchSpace`] is canonicalized (sorted,
//!   deduplicated) at construction, so two spaces built from the same
//!   program agree exactly regardless of how the underlying conflict
//!   reports were ordered; and
//! * candidates are collapsed *modulo cache-set placement*: two vectors
//!   whose materialized layouts have identical shapes and identical
//!   `base mod cache_size` for every array are cache-indistinguishable,
//!   and [`set_signature`] gives them the same FNV fingerprint so the
//!   beam keeps only one representative.

use pad_cache_sim::SplitMix64;
use pad_core::{search_bounds, DataLayout, PaddingConfig, SearchBounds};
use pad_ir::{ArrayId, Program};

/// Rounds `addr` up to a multiple of `align` (which must be nonzero) —
/// the same rule the inter-placement phase of `pad_core` applies.
fn align_up(addr: u64, align: u64) -> u64 {
    debug_assert!(align > 0);
    addr.div_ceil(align) * align
}

/// One joint layout decision: per-array intra pads (elements, by
/// dimension) plus per-array inter gaps (bytes inserted before the
/// array's aligned base address). Both vectors are indexed by
/// `ArrayId::index()` in declaration order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PadVector {
    /// Extra elements added to each dimension of each array.
    pub intra: Vec<Vec<i64>>,
    /// Extra bytes inserted before each array's base address.
    pub gap_bytes: Vec<u64>,
}

impl PadVector {
    /// The identity transformation (the original sequential layout).
    pub fn zero(program: &Program) -> Self {
        PadVector {
            intra: program.arrays().iter().map(|a| vec![0; a.rank()]).collect(),
            gap_bytes: vec![0; program.arrays().len()],
        }
    }

    /// Reads the pad vector back out of a layout produced by sequential
    /// placement with gaps (the shape every `pad_core` pipeline emits):
    /// intra pads are the per-dimension size deltas against the original
    /// shape, gaps the slack between each base and the aligned end of the
    /// previous array. Lossless for pipeline layouts — materializing the
    /// result reproduces the layout bit for bit.
    pub fn from_layout(program: &Program, layout: &DataLayout) -> Self {
        let mut intra = Vec::with_capacity(program.arrays().len());
        let mut gap_bytes = Vec::with_capacity(program.arrays().len());
        let mut expected = 0u64;
        for (id, spec) in program.arrays_with_ids() {
            let dims = layout.dims(id);
            let orig = layout.original_dims(id);
            intra.push(
                dims.iter()
                    .zip(orig.iter())
                    .map(|(d, o)| d.size - o.size)
                    .collect(),
            );
            expected = align_up(expected, u64::from(spec.elem_size()));
            let base = layout.base_addr(id);
            gap_bytes.push(base.saturating_sub(expected));
            expected = base + layout.array_bytes(id);
        }
        PadVector { intra, gap_bytes }
    }

    /// Applies the vector to the program's original layout: grow each
    /// padded dimension, then place arrays sequentially in declaration
    /// order with the requested gap inserted before each aligned base.
    pub fn materialize(&self, program: &Program) -> DataLayout {
        let mut layout = DataLayout::original(program);
        for (id, _spec) in program.arrays_with_ids() {
            for (d, &pad) in self.intra[id.index()].iter().enumerate() {
                if pad != 0 {
                    layout.pad_dim(id, d, pad);
                }
            }
        }
        let mut addr = 0u64;
        for (id, spec) in program.arrays_with_ids() {
            addr = align_up(addr, u64::from(spec.elem_size()));
            addr += self.gap_bytes[id.index()];
            layout.set_base_addr(id, addr);
            addr += layout.array_bytes(id);
        }
        layout
    }
}

/// FNV-1a fingerprint of a layout *modulo cache-set placement*: per
/// array, the base address reduced mod `cache_size`, the (padded)
/// dimension sizes, and the element size. Layouts with equal signatures
/// index every access into the same cache set, so they are equivalent to
/// any set-indexed cache of that size and the search keeps only one.
pub fn set_signature(layout: &DataLayout, cache_size: u64) -> u64 {
    fn eat(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..layout.len() {
        let id = ArrayId::from_index(i);
        eat(&mut h, layout.base_addr(id) % cache_size.max(1));
        for d in layout.dims(id) {
            eat(&mut h, d.size as u64);
        }
        eat(&mut h, u64::from(layout.elem_size(id)));
        eat(&mut h, u64::MAX); // array separator
    }
    h
}

/// One elementary search move. `Intra` grows a dimension by one cache
/// line's worth of elements — set placement is line-granular, and
/// sub-line pads would break row/line alignment, a real cost the fast
/// rung cannot see; `Gap` widens an array's leading gap by a fixed byte
/// increment (one line, a coarse multi-line stride, or a
/// conflict-derived jump).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Move {
    /// Grow `dim` of `array` by one line's worth of elements.
    Intra {
        /// Array index in declaration order.
        array: usize,
        /// Dimension index (column-major, 0 = fastest varying).
        dim: usize,
    },
    /// Widen the gap before `array` by `bytes`.
    Gap {
        /// Array index in declaration order.
        array: usize,
        /// Byte increment.
        bytes: u64,
    },
}

/// A bounded, canonicalized move space for one program/cache pair.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    bounds: SearchBounds,
    moves: Vec<Move>,
    /// Per-array intra step in elements (one line's worth, at least 1).
    intra_step: Vec<i64>,
}

impl SearchSpace {
    /// Derives the space from `pad_core`'s conflict analysis: bounds via
    /// [`search_bounds`], moves from the nonzero ranges plus the
    /// conflict-derived gap jumps. The move list is sorted and
    /// deduplicated so construction order never leaks into results.
    pub fn new(program: &Program, config: &PaddingConfig) -> Self {
        let bounds = search_bounds(program, config);
        let line = config.primary().line;
        let intra_step: Vec<i64> = program
            .arrays()
            .iter()
            .map(|a| (line as i64 / i64::from(a.elem_size())).max(1))
            .collect();
        let mut moves = Vec::new();
        for (a, per_dim) in bounds.max_intra.iter().enumerate() {
            for (d, &max) in per_dim.iter().enumerate() {
                if max >= intra_step[a] {
                    moves.push(Move::Intra { array: a, dim: d });
                }
            }
        }
        for (a, &max) in bounds.max_gap_bytes.iter().enumerate() {
            if max == 0 {
                continue;
            }
            // Fine and coarse line-granular steps, plus every targeted
            // clearing increment the conflict scan suggested.
            for step in [line, 4 * line] {
                if step <= max {
                    moves.push(Move::Gap {
                        array: a,
                        bytes: step,
                    });
                }
            }
            for &g in &bounds.suggested_gaps[a] {
                if g > 0 && g <= max {
                    moves.push(Move::Gap { array: a, bytes: g });
                }
            }
        }
        moves.sort_unstable();
        moves.dedup();
        SearchSpace {
            bounds,
            moves,
            intra_step,
        }
    }

    /// The canonical move list.
    pub fn moves(&self) -> &[Move] {
        &self.moves
    }

    /// The conflict-derived per-variable bounds.
    pub fn bounds(&self) -> &SearchBounds {
        &self.bounds
    }

    /// Applies `m` upward to `v`, or `None` when the coordinate would
    /// leave its bound.
    pub fn apply(&self, v: &PadVector, m: Move) -> Option<PadVector> {
        match m {
            Move::Intra { array, dim } => {
                let step = self.intra_step[array];
                if v.intra[array][dim] + step > self.bounds.max_intra[array][dim] {
                    return None;
                }
                let mut next = v.clone();
                next.intra[array][dim] += step;
                Some(next)
            }
            Move::Gap { array, bytes } => {
                let cur = v.gap_bytes[array];
                if cur + bytes > self.bounds.max_gap_bytes[array] {
                    return None;
                }
                let mut next = v.clone();
                next.gap_bytes[array] = cur + bytes;
                Some(next)
            }
        }
    }

    /// Applies `m` downward to `v` (the annealer's reverse step), or
    /// `None` when the coordinate is already at zero.
    pub fn step_down(&self, v: &PadVector, m: Move) -> Option<PadVector> {
        match m {
            Move::Intra { array, dim } => {
                let step = self.intra_step[array];
                if v.intra[array][dim] < step {
                    return None;
                }
                let mut next = v.clone();
                next.intra[array][dim] -= step;
                Some(next)
            }
            Move::Gap { array, bytes } => {
                if v.gap_bytes[array] < bytes {
                    return None;
                }
                let mut next = v.clone();
                next.gap_bytes[array] -= bytes;
                Some(next)
            }
        }
    }

    /// One random step: a uniformly drawn move applied in a uniformly
    /// drawn direction. Always consumes exactly two RNG draws, so the
    /// stream position is a pure function of the step count regardless of
    /// which steps succeed.
    pub fn random_step(&self, v: &PadVector, rng: &mut SplitMix64) -> Option<PadVector> {
        if self.moves.is_empty() {
            return None;
        }
        let m = self.moves[rng.below(self.moves.len() as u64) as usize];
        let up = rng.next_u64() & 1 == 0;
        if up {
            self.apply(v, m)
        } else {
            self.step_down(v, m)
        }
    }

    /// Test hook: scrambles the internal move order with a seeded
    /// Fisher–Yates shuffle. Search results must be bit-identical under
    /// any such permutation — the property the beam's order-independence
    /// suite asserts.
    pub fn permute_moves_for_test(&mut self, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for i in (1..self.moves.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            self.moves.swap(i, j);
        }
    }
}

/// A fast-rung-evaluated point: the vector, its materialized layout, the
/// analytic miss score, and the bookkeeping the strategies order by.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The pad vector.
    pub vector: PadVector,
    /// The materialized layout (shapes + bases).
    pub layout: DataLayout,
    /// Fast-rung score: the analytic miss estimate plus the graded
    /// conflict pressure ([`pad_core::ModelScore`]), as
    /// [`Objective::force_evaluate`](crate::Objective::force_evaluate)
    /// computes it.
    pub fast: f64,
    /// Cache-set-equivalence fingerprint ([`set_signature`]).
    pub signature: u64,
    /// Total footprint in bytes (memory-overhead tie-break).
    pub total_bytes: u64,
    /// Fast evaluations consumed when this candidate was discovered —
    /// the x-axis of the cost/benefit frontier.
    pub found_at: u64,
}

/// The total preference order used everywhere a candidate is selected:
/// lower fast score first, then smaller footprint, then signature, then
/// the vector itself lexicographically. Total, so sorting and min-taking
/// are independent of enumeration order.
pub fn cmp_candidates(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    a.fast
        .total_cmp(&b.fast)
        .then(a.total_bytes.cmp(&b.total_bytes))
        .then(a.signature.cmp(&b.signature))
        .then(a.vector.cmp(&b.vector))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::PaddingPipeline;
    use pad_trace::padding_config_for;

    fn cache() -> pad_cache_sim::CacheConfig {
        pad_cache_sim::CacheConfig::direct_mapped(2048, 32)
    }

    fn jacobi() -> Program {
        pad_kernels::jacobi::spec(24)
    }

    #[test]
    fn zero_vector_reproduces_original_layout() {
        let p = jacobi();
        let original = DataLayout::original(&p);
        let layout = PadVector::zero(&p).materialize(&p);
        for (id, _) in p.arrays_with_ids() {
            assert_eq!(layout.base_addr(id), original.base_addr(id));
            assert_eq!(layout.dims(id), original.dims(id));
        }
    }

    #[test]
    fn pipeline_layouts_roundtrip_exactly() {
        let p = jacobi();
        let cfg = padding_config_for(&cache());
        for outcome in [
            PaddingPipeline::padlite(cfg.clone()).run(&p),
            PaddingPipeline::pad(cfg.clone()).run(&p),
        ] {
            let v = PadVector::from_layout(&p, &outcome.layout);
            let rebuilt = v.materialize(&p);
            for (id, _) in p.arrays_with_ids() {
                assert_eq!(rebuilt.base_addr(id), outcome.layout.base_addr(id));
                assert_eq!(rebuilt.dims(id), outcome.layout.dims(id));
            }
            assert_eq!(v, PadVector::from_layout(&p, &rebuilt));
        }
    }

    #[test]
    fn signature_collapses_set_equivalent_layouts() {
        let p = jacobi();
        let base = PadVector::zero(&p).materialize(&p);
        let mut shifted = PadVector::zero(&p);
        // Shift the first array's base by exactly one cache size: every
        // set index is unchanged.
        shifted.gap_bytes[0] = 2048;
        let shifted = shifted.materialize(&p);
        assert_eq!(set_signature(&base, 2048), set_signature(&shifted, 2048));
        // A one-line shift lands in different sets.
        let mut moved = PadVector::zero(&p);
        moved.gap_bytes[0] = 32;
        let moved = moved.materialize(&p);
        assert_ne!(set_signature(&base, 2048), set_signature(&moved, 2048));
    }

    #[test]
    fn moves_are_canonical_and_bounded() {
        let p = jacobi();
        let space = SearchSpace::new(&p, &padding_config_for(&cache()));
        let mut sorted = space.moves().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(space.moves(), &sorted[..], "move list is canonical");
        let zero = PadVector::zero(&p);
        for &m in space.moves() {
            let up = space.apply(&zero, m).expect("first step fits bounds");
            assert_eq!(space.step_down(&up, m), Some(zero.clone()));
            assert_eq!(space.step_down(&zero, m), None);
        }
    }

    #[test]
    fn random_step_consumes_fixed_draws() {
        let p = jacobi();
        let space = SearchSpace::new(&p, &padding_config_for(&cache()));
        let zero = PadVector::zero(&p);
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..64 {
            let _ = space.random_step(&zero, &mut a);
            b.next_u64();
            b.next_u64();
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
