//! Conflict distances and the severe-conflict predicate.
//!
//! The paper defines the *conflict distance* between two memory locations
//! as the difference of their addresses mod the cache size `C_s`; a
//! conflict miss may arise when that distance is smaller than the line
//! size `L_s`, "unless the addresses are actually located on the same
//! cache line". This module implements those definitions on byte
//! distances, plus the increment computation the greedy placement loops
//! use to clear a conflict.

use pad_ir::{ArrayId, Program};

use crate::config::PaddingConfig;
use crate::layout::DataLayout;
use crate::nest::Nest;

/// The circular distance between two addresses `diff` bytes apart on a
/// cache of `cs` bytes: `min(d, cs - d)` where `d = diff mod cs`.
///
/// This is the distance the paper's worked example uses when it calls
/// `934 × 934 − 934 ≡ −2 (mod C_s)` a conflict at distance 2.
///
/// # Panics
///
/// Panics if `cs == 0`.
pub fn circular_distance(diff: i64, cs: u64) -> u64 {
    assert!(cs > 0, "cache size must be nonzero");
    let d = diff.rem_euclid(cs as i64) as u64;
    d.min(cs - d)
}

/// True when two references a constant `diff` bytes apart conflict
/// *severely*: they land within `threshold` of each other modulo the cache
/// yet are far enough apart in memory (at least one line) that they cannot
/// share a cache line.
///
/// The second condition is what keeps a stencil's `A(j-1,i)` / `A(j+1,i)`
/// pair — two elements apart, same line, pure spatial reuse — from being
/// misdiagnosed as a conflict.
pub fn is_severe_conflict(diff: i64, cs: u64, ls: u64, threshold: u64) -> bool {
    diff.unsigned_abs() >= ls && circular_distance(diff, cs) < threshold
}

/// The smallest base-address increment that moves a pair currently `diff`
/// bytes apart (measuring *moved minus fixed*) to a circular distance of
/// at least `threshold`.
///
/// Returns 0 when the pair is already clear. Used by the greedy placement
/// of Figure 5 in the paper: `neededPad`.
///
/// # Panics
///
/// Panics if `2 * threshold > cs` (no address could then be clear of an
/// occupied location, and the greedy loop would not terminate).
pub fn increment_to_clear(diff: i64, cs: u64, threshold: u64) -> u64 {
    assert!(
        2 * threshold <= cs,
        "separation threshold {threshold} too large for cache of {cs} bytes"
    );
    let d = diff.rem_euclid(cs as i64) as u64;
    if d >= threshold && d <= cs - threshold {
        0
    } else if d < threshold {
        threshold - d
    } else {
        cs - d + threshold
    }
}

/// One detected severe conflict, for diagnostics and the experiment
/// harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictReport {
    /// The two arrays involved (equal for intra-array conflicts).
    pub arrays: (ArrayId, ArrayId),
    /// Constant byte distance between the references.
    pub distance_bytes: i64,
    /// Circular distance on the primary cache level.
    pub circular_distance: u64,
    /// Rendered forms of the two references.
    pub refs: (String, String),
}

/// Scans a program under a layout and reports every severe conflict
/// between constant-distance reference pairs that share a loop. This is
/// the diagnostic view of the analysis `INTERPAD`/`INTRAPAD` run
/// internally; the quickstart example uses it to show *why* padding fires.
pub fn find_severe_conflicts(
    program: &Program,
    layout: &DataLayout,
    config: &PaddingConfig,
) -> Vec<ConflictReport> {
    let mut nest = Nest::compile(program);
    nest.bind(layout);
    let mut reports = Vec::new();
    let primary = config.primary();
    for (group, g) in program.ref_groups().iter().zip(nest.groups()) {
        for (i, &ra) in group.refs.iter().enumerate() {
            for (j, &rb) in group.refs.iter().enumerate().skip(i + 1) {
                let (a, b) = (g.refs.start + i, g.refs.start + j);
                if nest.coeffs(a) != nest.coeffs(b) {
                    continue; // distance varies per iteration
                }
                let diff = nest.offset(a) - nest.offset(b) + layout.base_addr(ra.array()) as i64
                    - layout.base_addr(rb.array()) as i64;
                if config
                    .levels()
                    .iter()
                    .any(|lvl| is_severe_conflict(diff, lvl.size, lvl.line, lvl.line))
                {
                    reports.push(ConflictReport {
                        arrays: (ra.array(), rb.array()),
                        distance_bytes: diff,
                        circular_distance: circular_distance(diff, primary.size),
                        refs: (ra.to_string(), rb.to_string()),
                    });
                }
            }
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circular_distance_wraps() {
        assert_eq!(circular_distance(0, 1024), 0);
        assert_eq!(circular_distance(4, 1024), 4);
        assert_eq!(circular_distance(1020, 1024), 4);
        assert_eq!(circular_distance(-2, 1024), 2);
        assert_eq!(circular_distance(512, 1024), 512);
        assert_eq!(circular_distance(1024, 1024), 0);
        assert_eq!(circular_distance(-1026, 1024), 2);
    }

    #[test]
    fn severe_requires_both_conditions() {
        // Same line (distance 2 < line 32): not severe even though the
        // circular distance is tiny.
        assert!(!is_severe_conflict(2, 1024, 32, 32));
        // One cache size apart: severe.
        assert!(is_severe_conflict(1024, 1024, 32, 32));
        // Nearly one cache size apart (wraps to 2): severe.
        assert!(is_severe_conflict(1022, 1024, 32, 32));
        // Comfortably separated: not severe.
        assert!(!is_severe_conflict(512, 1024, 32, 32));
        // Identical address: reuse, not conflict.
        assert!(!is_severe_conflict(0, 1024, 32, 32));
    }

    #[test]
    fn increments_clear_conflicts() {
        // Already clear.
        assert_eq!(increment_to_clear(100, 1024, 32), 0);
        // Slightly above a multiple of the cache size.
        assert_eq!(increment_to_clear(4, 1024, 32), 28);
        // Slightly below: must travel past the collision point.
        assert_eq!(increment_to_clear(-4, 1024, 32), 4 + 32);
        assert_eq!(increment_to_clear(1020, 1024, 32), 36);
        // Exactly colliding.
        assert_eq!(increment_to_clear(0, 1024, 32), 32);
    }

    #[test]
    fn increment_result_is_clear() {
        for cs in [256u64, 1024, 16384] {
            for threshold in [16u64, 32, 128] {
                for diff in (-3000i64..3000).step_by(7) {
                    let inc = increment_to_clear(diff, cs, threshold);
                    let after = diff + inc as i64;
                    assert!(
                        circular_distance(after, cs) >= threshold,
                        "diff={diff} cs={cs} t={threshold} inc={inc}"
                    );
                    // And it is minimal: one byte less would not clear
                    // (only meaningful when an increment was needed).
                    if inc > 0 {
                        assert!(circular_distance(diff + inc as i64 - 1, cs) < threshold);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_threshold_panics() {
        let _ = increment_to_clear(0, 64, 64);
    }

    #[test]
    fn paper_jacobi_934_example() {
        // B(j,i) at base 934*934 vs A(j,i+1) at base 0, Col = 934,
        // 1-byte elements, Cs = 1024: distance ≡ -2, severe.
        let diff = 934 * 934 - 934; // (base_B + 0) - (base_A + Col), common linear form
        assert_eq!(circular_distance(diff, 1024), 2);
        assert!(is_severe_conflict(diff, 1024, 4, 4));
        // Padding B by 6 clears it.
        assert_eq!(increment_to_clear(diff, 1024, 4), 6);
        assert!(!is_severe_conflict(diff + 6, 1024, 4, 4));
    }
}
