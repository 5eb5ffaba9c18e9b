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
    if align.is_power_of_two() {
        (addr + align - 1) & !(align - 1)
    } else {
        addr.div_ceil(align) * align
    }
}

/// `addr mod cache_size`, and 0 for a zero cache size.
fn residue(addr: u64, cache_size: u64) -> u64 {
    if cache_size.is_power_of_two() {
        addr & (cache_size - 1)
    } else {
        addr % cache_size.max(1)
    }
}

/// One joint layout decision: per-array intra pads (elements, by
/// dimension) plus per-array inter gaps (bytes inserted before the
/// array's aligned base address). Arrays are in declaration order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PadVector {
    /// Extra elements added to each dimension of each array: every
    /// array's dimensions in turn, so two vectors of one program order
    /// as their per-array lists would.
    pub intra: Vec<i64>,
    /// Extra bytes inserted before each array's base address.
    pub gap_bytes: Vec<u64>,
}

impl PadVector {
    /// The identity transformation (the original sequential layout).
    pub fn zero(program: &Program) -> Self {
        PadVector {
            intra: vec![0; program.arrays().iter().map(|a| a.rank()).sum()],
            gap_bytes: vec![0; program.arrays().len()],
        }
    }

    /// Each array's intra pads, in declaration order.
    fn pads<'v>(&'v self, program: &'v Program) -> impl Iterator<Item = &'v [i64]> {
        let mut rest = &self.intra[..];
        program.arrays().iter().map(move |a| {
            let (pads, tail) = rest.split_at(a.rank());
            rest = tail;
            pads
        })
    }

    /// Reads the pad vector back out of a layout produced by sequential
    /// placement with gaps (the shape every `pad_core` pipeline emits):
    /// intra pads are the per-dimension size deltas against the original
    /// shape, gaps the slack between each base and the aligned end of the
    /// previous array. Lossless for pipeline layouts — materializing the
    /// result reproduces the layout bit for bit.
    pub fn from_layout(program: &Program, layout: &DataLayout) -> Self {
        let mut intra = Vec::new();
        let mut gap_bytes = Vec::with_capacity(program.arrays().len());
        let mut expected = 0u64;
        for (id, spec) in program.arrays_with_ids() {
            let dims = layout.dims(id);
            let orig = layout.original_dims(id);
            intra.extend(dims.iter().zip(orig.iter()).map(|(d, o)| d.size - o.size));
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
        for ((id, _spec), pads) in program.arrays_with_ids().zip(self.pads(program)) {
            for (d, &pad) in pads.iter().enumerate() {
                if pad != 0 {
                    layout.pad_dim(id, d, pad);
                }
            }
        }
        let mut bases = Vec::with_capacity(layout.len());
        self.place(program, &mut bases);
        for ((id, _), base) in program.arrays_with_ids().zip(bases) {
            layout.set_base_addr(id, base);
        }
        layout
    }

    /// The base addresses of the vector's layout, written to `bases`
    /// without building it: arrays in declaration order, each at the
    /// previous one's end aligned to its element size plus its gap.
    /// Returns the end of the last array.
    pub fn place(&self, program: &Program, bases: &mut Vec<u64>) -> u64 {
        bases.clear();
        let mut addr = 0u64;
        for ((spec, pads), &gap) in program
            .arrays()
            .iter()
            .zip(self.pads(program))
            .zip(&self.gap_bytes)
        {
            let elems: i64 = spec
                .dims()
                .iter()
                .zip(pads)
                .map(|(d, p)| d.size + p)
                .product();
            addr = align_up(addr, u64::from(spec.elem_size())) + gap;
            bases.push(addr);
            addr += elems as u64 * u64::from(spec.elem_size());
        }
        addr
    }
}

/// Fingerprints pad vectors one after another: [`set_signature`] of each
/// one's materialized layout, from the vector and the bases
/// [`PadVector::place`] wrote. FNV-1a is sequential, so the state before
/// every array is kept, and a vector's pass resumes at its first array
/// whose base residue or pads differ from the previous vector's.
#[derive(Debug, Clone)]
pub(crate) struct Signer {
    cache_size: u64,
    /// Per array: the state before it, and the residue and pads it ate
    /// (no residue reads `u64::MAX` before the first vector); then the
    /// final state.
    states: Vec<u64>,
    residues: Vec<u64>,
    pads: Vec<i64>,
}

impl Signer {
    pub(crate) fn new(program: &Program, cache_size: u64) -> Self {
        let arrays = program.arrays().len();
        Signer {
            cache_size,
            states: vec![Fnv::new().0; arrays + 1],
            residues: vec![u64::MAX; arrays],
            pads: PadVector::zero(program).intra,
        }
    }

    pub(crate) fn sign(&mut self, program: &Program, vector: &PadVector, bases: &[u64]) -> u64 {
        let (mut start, mut first) = (0, bases.len());
        for (a, (spec, &base)) in program.arrays().iter().zip(bases).enumerate() {
            let pads = start..start + spec.rank();
            if residue(base, self.cache_size) != self.residues[a]
                || vector.intra[pads.clone()] != self.pads[pads.clone()]
            {
                first = a;
                break;
            }
            start = pads.end;
        }
        let mut h = Fnv(self.states[first]);
        for (a, (spec, &base)) in program.arrays().iter().zip(bases).enumerate().skip(first) {
            let pads = start..start + spec.rank();
            self.states[a] = h.0;
            self.residues[a] = residue(base, self.cache_size);
            self.pads[pads.clone()].copy_from_slice(&vector.intra[pads.clone()]);
            let sizes = spec.dims().iter().zip(&vector.intra[pads.clone()]);
            h.array(
                self.residues[a],
                sizes.map(|(d, p)| d.size + p),
                spec.elem_size(),
            );
            start = pads.end;
        }
        self.states[bases.len()] = h.0;
        h.0
    }
}

/// FNV-1a fingerprint of a layout *modulo cache-set placement*: per
/// array, the base address reduced mod `cache_size`, the (padded)
/// dimension sizes, and the element size. Layouts with equal signatures
/// index every access into the same cache set, so they are equivalent to
/// any set-indexed cache of that size and the search keeps only one.
pub fn set_signature(layout: &DataLayout, cache_size: u64) -> u64 {
    let mut h = Fnv::new();
    for i in 0..layout.len() {
        let id = ArrayId::from_index(i);
        h.array(
            residue(layout.base_addr(id), cache_size),
            layout.dims(id).iter().map(|d| d.size),
            layout.elem_size(id),
        );
    }
    h.0
}

/// The FNV-1a state of a signature.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// One array: base residue, sizes, element size, separator.
    fn array(&mut self, residue: u64, sizes: impl Iterator<Item = i64>, elem_size: u32) {
        self.eat(residue);
        sizes.for_each(|size| self.eat(size as u64));
        self.eat(u64::from(elem_size));
        self.eat(u64::MAX);
    }
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
    /// Per array: the index of its first dimension in
    /// [`PadVector::intra`].
    dim_start: Vec<usize>,
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
        let dim_start = program
            .arrays()
            .iter()
            .scan(0, |start, a| {
                *start += a.rank();
                Some(*start - a.rank())
            })
            .collect();
        SearchSpace {
            bounds,
            moves,
            intra_step,
            dim_start,
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
                let (step, at) = (self.intra_step[array], self.dim_start[array] + dim);
                if v.intra[at] + step > self.bounds.max_intra[array][dim] {
                    return None;
                }
                let mut next = v.clone();
                next.intra[at] += step;
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
                let (step, at) = (self.intra_step[array], self.dim_start[array] + dim);
                if v.intra[at] < step {
                    return None;
                }
                let mut next = v.clone();
                next.intra[at] -= step;
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

/// A fast-rung-evaluated point: the vector, the analytic miss score,
/// and the bookkeeping the strategies order by. `L` is `()` while the
/// candidate lives on the fast rung, and its materialized
/// [`DataLayout`] once [`Candidate::promote`] sends it to exact
/// confirmation, so only a promoted candidate can be confirmed.
#[derive(Debug, Clone)]
pub struct Candidate<L = ()> {
    /// The pad vector.
    pub vector: PadVector,
    /// The materialized layout (shapes + bases) of a promoted candidate.
    pub layout: L,
    /// Fast-rung score: the analytic miss estimate plus the graded
    /// conflict pressure ([`pad_core::ModelScore`]).
    pub fast: f64,
    /// Cache-set-equivalence fingerprint ([`set_signature`]).
    pub signature: u64,
    /// Total footprint in bytes (memory-overhead tie-break).
    pub total_bytes: u64,
    /// Fast evaluations consumed when this candidate was discovered —
    /// the x-axis of the cost/benefit frontier.
    pub found_at: u64,
}

impl Candidate {
    /// Promotes the candidate to exact confirmation, materializing its
    /// layout for `program`.
    pub fn promote(self, program: &Program) -> Candidate<DataLayout> {
        Candidate {
            layout: self.vector.materialize(program),
            vector: self.vector,
            fast: self.fast,
            signature: self.signature,
            total_bytes: self.total_bytes,
            found_at: self.found_at,
        }
    }
}

/// The total preference order used everywhere a candidate is selected:
/// lower fast score first, then smaller footprint, then signature, then
/// the vector itself lexicographically. Total, so sorting and min-taking
/// are independent of enumeration order.
pub fn cmp_candidates<L>(a: &Candidate<L>, b: &Candidate<L>) -> std::cmp::Ordering {
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
