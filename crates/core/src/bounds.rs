//! Conflict-derived pad-range bounds for the global layout search.
//!
//! The paper's heuristics pad one variable at a time; the `pad-search`
//! crate instead optimizes the *joint* pad vector over all variables.
//! Searching needs a bounded, finite space, and this module derives those
//! bounds from the same analysis the greedy heuristics act on:
//!
//! * **intra ranges** come from the per-dimension budget the paper found
//!   sufficient (the intra driver's 16 elements), restricted to
//!   arrays that are safe to reshape (`Safety::can_pad_intra`, rank ≥ 2)
//!   and to the lower dimensions `0..rank-1` — exactly the dimensions
//!   `INTRAPAD` is allowed to grow — and to arrays whose largest padded
//!   shape keeps the IR's address limits ([`AddressLimits`]) while every
//!   other array takes its own largest shape;
//! * **inter ranges** are capped at the largest cache level, the paper's
//!   maximum-travel failure rule for `INTERPAD` (any base-address gap of
//!   one full cache size revisits every alignment); and
//! * **suggested gaps** are computed per array from the severe conflicts
//!   [`find_severe_conflicts`] reports on the original layout, using
//!   [`increment_to_clear`] — the `neededPad` quantity of Figure 5. These
//!   give the search targeted long-range moves instead of relying on
//!   line-by-line steps to escape a conflict basin.
//!
//! [`find_severe_conflicts`]: crate::find_severe_conflicts
//! [`increment_to_clear`]: crate::increment_to_clear
//! [`AddressLimits`]: pad_ir::AddressLimits

use pad_ir::{AddressLimits, ArrayId, Program};

use crate::config::PaddingConfig;
use crate::conflict::{find_severe_conflicts, increment_to_clear};
use crate::intra::MAX_INTRA_PAD_PER_DIM;
use crate::layout::DataLayout;

/// Per-variable pad ranges bounding the global search space. All vectors
/// are indexed by `ArrayId::index()` in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchBounds {
    /// Maximum intra pad (elements) per array per dimension; zero where
    /// reshaping is unsafe or outside the dimensions `INTRAPAD` may grow.
    pub max_intra: Vec<Vec<i64>>,
    /// Maximum inter gap (bytes) inserted before each array; zero where
    /// the array's base address may not move.
    pub max_gap_bytes: Vec<u64>,
    /// Conflict-derived candidate gap increments (bytes) per array:
    /// for each severe conflict the array participates in, the smallest
    /// base-address increment that clears it. Sorted and deduplicated.
    pub suggested_gaps: Vec<Vec<u64>>,
}

impl SearchBounds {
    /// Total number of adjustable scalar coordinates (nonzero intra
    /// ranges plus movable bases) — the dimensionality of the search.
    pub fn coordinates(&self) -> usize {
        let intra = self.max_intra.iter().flatten().filter(|&&m| m > 0).count();
        let inter = self.max_gap_bytes.iter().filter(|&&m| m > 0).count();
        intra + inter
    }
}

/// Derives [`SearchBounds`] for `program` under `config` by scanning the
/// original layout for severe conflicts. See the module docs for the
/// derivation rules.
pub fn search_bounds(program: &Program, config: &PaddingConfig) -> SearchBounds {
    let primary = config.primary();
    let max_travel: u64 = config
        .levels()
        .iter()
        .map(|l| l.size)
        .max()
        .unwrap_or(primary.size);

    let mut max_intra = Vec::with_capacity(program.arrays().len());
    let mut max_gap_bytes = Vec::with_capacity(program.arrays().len());
    for spec in program.arrays() {
        let rank = spec.rank();
        let per_dim: Vec<i64> = (0..rank)
            .map(|d| {
                if spec.safety().can_pad_intra() && rank >= 2 && d < rank - 1 {
                    MAX_INTRA_PAD_PER_DIM
                } else {
                    0
                }
            })
            .collect();
        max_intra.push(per_dim);
        max_gap_bytes.push(if spec.safety().can_pad_inter() {
            max_travel
        } else {
            0
        });
    }

    // A search may pad every array to its largest shape at once, and its
    // seeds pad within the same ranges, so each range must keep the
    // limits with every other array at its largest shape too.
    let limits = AddressLimits::new(program);
    let largest: Vec<Vec<i64>> = program
        .arrays()
        .iter()
        .zip(&max_intra)
        .map(|(spec, pads)| {
            spec.dims()
                .iter()
                .zip(pads)
                .map(|(d, p)| d.size + p)
                .collect()
        })
        .collect();
    let bytes: Vec<i128> = (0..largest.len())
        .map(|a| limits.bytes(ArrayId::from_index(a), &largest[a]))
        .collect();
    let total = bytes.iter().fold(0i128, |acc, &b| acc.saturating_add(b));
    for (a, per_dim) in max_intra.iter_mut().enumerate() {
        let id = ArrayId::from_index(a);
        if per_dim.iter().any(|&m| m > 0) && !limits.admits(id, &largest[a], total - bytes[a]) {
            per_dim.fill(0);
        }
    }

    // Targeted gap increments: for every severe conflict, the smallest
    // move of the *later-declared* array (the one inter placement can
    // still shift relative to the earlier one) that clears the pair.
    let mut suggested_gaps: Vec<Vec<u64>> = vec![Vec::new(); program.arrays().len()];
    let layout = DataLayout::original(program);
    for report in find_severe_conflicts(program, &layout, config) {
        let (a, b) = report.arrays;
        let later = a.index().max(b.index());
        if max_gap_bytes[later] == 0 {
            continue;
        }
        // `distance_bytes` measures ref(a) − ref(b). Growing the later
        // array's base raises the distance when the later array is `a`
        // and lowers it when it is `b`; `increment_to_clear` wants the
        // moved-minus-fixed orientation.
        let oriented = if later == a.index() {
            report.distance_bytes
        } else {
            -report.distance_bytes
        };
        let need = increment_to_clear(oriented, primary.size, primary.line);
        if need > 0 && need <= max_gap_bytes[later] {
            suggested_gaps[later].push(need);
        }
    }
    for gaps in &mut suggested_gaps {
        gaps.sort_unstable();
        gaps.dedup();
    }

    SearchBounds {
        max_intra,
        max_gap_bytes,
        suggested_gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_ir::{ArrayBuilder, Loop, Program, Stmt, Subscript};

    fn two_array_kernel(n: i64) -> Program {
        let mut b = Program::builder("copy");
        let x = b.add_array(ArrayBuilder::new("X", [n, n]));
        let y = b.add_array(ArrayBuilder::new("Y", [n, n]));
        b.push(Stmt::loop_nest(
            [Loop::new("i", 1, n), Loop::new("j", 1, n)],
            vec![Stmt::refs(vec![
                x.at([Subscript::var("j"), Subscript::var("i")]),
                y.at([Subscript::var("j"), Subscript::var("i")]).write(),
            ])],
        ));
        b.build().expect("valid program")
    }

    #[test]
    fn bounds_cover_all_arrays() {
        let program = two_array_kernel(64);
        let config = PaddingConfig::new(2048, 32).unwrap();
        let b = search_bounds(&program, &config);
        assert_eq!(b.max_intra.len(), 2);
        assert_eq!(b.max_gap_bytes.len(), 2);
        assert_eq!(b.suggested_gaps.len(), 2);
        // Rank-2 arrays: the column dimension is paddable, the top is not.
        assert!(b.max_intra[0][0] > 0);
        assert_eq!(b.max_intra[0][1], 0);
        assert!(b.max_gap_bytes.iter().all(|&m| m == 2048));
        assert!(b.coordinates() >= 4);
    }

    #[test]
    fn conflicting_pair_suggests_a_clearing_gap() {
        // X and Y are each a multiple of the cache size apart at the same
        // subscript, so the uniform pair conflicts severely; the derived
        // gap for the later array must clear it.
        let program = two_array_kernel(64);
        let config = PaddingConfig::new(2048, 32).unwrap();
        let b = search_bounds(&program, &config);
        assert!(
            !b.suggested_gaps[1].is_empty(),
            "expected a conflict-derived gap for Y"
        );
        for &g in &b.suggested_gaps[1] {
            assert!(g > 0 && g <= 2048);
        }
    }

    #[test]
    fn unpaddable_arrays_get_zero_ranges() {
        let n = 32;
        let mut bld = Program::builder("fixed");
        let x = bld.add_array(
            ArrayBuilder::new("X", [n, n])
                .passed_as_parameter(true)
                .fixed_common_block(true),
        );
        bld.push(Stmt::loop_nest(
            [Loop::new("i", 1, n), Loop::new("j", 1, n)],
            vec![Stmt::refs(vec![
                x.at([Subscript::var("j"), Subscript::var("i")])
            ])],
        ));
        let program = bld.build().expect("valid program");
        let config = PaddingConfig::new(1024, 32).unwrap();
        let b = search_bounds(&program, &config);
        assert!(b.max_intra[0].iter().all(|&m| m == 0));
        assert_eq!(b.max_gap_bytes[0], 0);
        assert_eq!(b.coordinates(), 0);
    }
}
