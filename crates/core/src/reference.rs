//! The name-keyed linearization of array references, kept as an oracle.
//!
//! Section 2.1.2 of the paper calculates the memory address of a
//! multidimensional reference "by linearizing its subscripts"; subtracting
//! two linearized references yields their distance, and when all index
//! terms cancel that distance is constant on every iteration (the paper's
//! Expression 1). This module performs exactly that computation, in bytes,
//! relative to the array's base address, one reference at a time with
//! coefficients keyed by variable name.
//!
//! Production code reads the slot-compiled form instead ([`crate::Nest`]);
//! tests compare the two.

use std::collections::BTreeMap;

use pad_ir::{ArrayRef, Dim, IndexVar};

/// The affine byte offset of a reference relative to its array's base
/// address: `offset + Σ coeff(v) · v` over index variables `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearizedRef {
    /// Per-variable byte coefficients (sorted by variable, zero entries
    /// omitted).
    coeffs: BTreeMap<IndexVar, i64>,
    /// Constant byte offset (accounts for lower bounds).
    offset: i64,
}

impl LinearizedRef {
    /// The constant part, in bytes from the array base.
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// The variable coefficients, in bytes per unit of each index
    /// variable.
    pub fn coeffs(&self) -> &BTreeMap<IndexVar, i64> {
        &self.coeffs
    }
}

/// Linearizes `array_ref` against a (possibly padded) shape.
///
/// Column-major: dimension `j`'s stride is the product of the sizes of
/// dimensions `0..j`, times the element size. Lower bounds are subtracted
/// per dimension, matching the paper's note that non-zero lower bounds
/// fold into the constant term.
///
/// # Panics
///
/// Panics if the subscript count does not match `dims` (programs are
/// validated at construction, so this indicates a caller bug).
pub fn linearize(array_ref: &ArrayRef, dims: &[Dim], elem_size: u32) -> LinearizedRef {
    assert_eq!(
        array_ref.subscripts().len(),
        dims.len(),
        "subscript arity must match array rank"
    );
    let mut coeffs: BTreeMap<IndexVar, i64> = BTreeMap::new();
    let mut offset = 0i64;
    let mut stride = i64::from(elem_size);
    for (sub, dim) in array_ref.subscripts().iter().zip(dims) {
        offset += (sub.offset() - dim.lower) * stride;
        for (var, coeff) in sub.terms() {
            *coeffs.entry(var.clone()).or_insert(0) += coeff * stride;
        }
        stride *= dim.size;
    }
    coeffs.retain(|_, c| *c != 0);
    LinearizedRef { coeffs, offset }
}

/// If two linearized references are a constant distance apart on every
/// iteration (all index terms cancel), returns `a - b` in bytes.
///
/// This is the test `INTERPAD`/`INTRAPAD` apply to the nest's slot
/// coefficients ([`crate::Nest::coeffs`]): the paper restricts it to
/// *uniformly generated* references over conforming arrays, which is
/// precisely the syntactic condition under which the difference is
/// constant. Comparing coefficient vectors directly also correctly handles
/// the post-padding case where two arrays stop conforming (their column
/// strides diverge) and therefore stop conflicting severely.
pub fn constant_difference(a: &LinearizedRef, b: &LinearizedRef) -> Option<i64> {
    if a.coeffs == b.coeffs {
        Some(a.offset - b.offset)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_ir::{ArrayId, Subscript};

    fn dims2(col: i64, rows: i64) -> Vec<Dim> {
        vec![Dim::new(col), Dim::new(rows)]
    }

    #[test]
    fn linearizes_stencil_refs() {
        // A(j, i+1) over A(934, 934), 1-byte elements:
        // offset = (0-1)*1 + (1-1)*934 = -1; coeffs j=1, i=934.
        let r = ArrayId::from_index(0).at([Subscript::var("j"), Subscript::var_offset("i", 1)]);
        let lin = linearize(&r, &dims2(934, 934), 1);
        assert_eq!(lin.offset(), -1);
        assert_eq!(lin.coeffs().get(&"j".into()), Some(&1));
        assert_eq!(lin.coeffs().get(&"i".into()), Some(&934));
    }

    #[test]
    fn element_size_scales_everything() {
        let r = ArrayId::from_index(0).at([Subscript::var("j"), Subscript::var("i")]);
        let lin = linearize(&r, &dims2(100, 100), 8);
        assert_eq!(lin.coeffs().get(&"j".into()), Some(&8));
        assert_eq!(lin.coeffs().get(&"i".into()), Some(&800));
        assert_eq!(lin.offset(), -8 - 800);
    }

    #[test]
    fn jacobi_column_pair_distance() {
        // Paper Section 3, N=512 / Cs=1024: A(j,i-1) and A(j,i+1) are
        // 2*Col apart. With Col = 512 (1-byte elements) that is 1024.
        let lo = ArrayId::from_index(0).at([Subscript::var("j"), Subscript::var_offset("i", -1)]);
        let hi = ArrayId::from_index(0).at([Subscript::var("j"), Subscript::var_offset("i", 1)]);
        let dims = dims2(512, 512);
        let d = constant_difference(&linearize(&hi, &dims, 1), &linearize(&lo, &dims, 1));
        assert_eq!(d, Some(1024));
    }

    #[test]
    fn different_strides_are_not_constant() {
        // After intra-padding A to column 514, A and B no longer conform:
        // the i coefficients differ, so no constant distance exists.
        let a = ArrayId::from_index(0).at([Subscript::var("j"), Subscript::var("i")]);
        let b = ArrayId::from_index(1).at([Subscript::var("j"), Subscript::var("i")]);
        let la = linearize(&a, &dims2(514, 512), 1);
        let lb = linearize(&b, &dims2(512, 512), 1);
        assert_eq!(constant_difference(&la, &lb), None);
    }

    #[test]
    fn different_variables_are_not_constant() {
        let a = ArrayId::from_index(0).at([Subscript::var("i"), Subscript::var("j")]);
        let b = ArrayId::from_index(0).at([Subscript::var("i"), Subscript::var("k")]);
        let dims = dims2(256, 256);
        assert_eq!(
            constant_difference(&linearize(&a, &dims, 8), &linearize(&b, &dims, 8)),
            None
        );
    }

    #[test]
    fn constant_subscripts_fold_into_offset() {
        let a = ArrayId::from_index(0).at([Subscript::var("i"), Subscript::constant(3)]);
        let lin = linearize(&a, &dims2(100, 10), 8);
        assert_eq!(lin.offset(), -8 + 2 * 100 * 8);
        assert_eq!(lin.coeffs().len(), 1);
    }

    #[test]
    fn lower_bounds_shift_offset() {
        let dims = vec![Dim::with_lower(10, 0), Dim::with_lower(10, 5)];
        let a = ArrayId::from_index(0).at([Subscript::constant(0), Subscript::constant(5)]);
        let lin = linearize(&a, &dims, 4);
        assert_eq!(lin.offset(), 0);
    }

    #[test]
    fn canceling_coefficients_are_dropped() {
        // A(i-i) style degenerate subscript: i cancels out entirely.
        let s = Subscript::from_terms([(IndexVar::new("i"), 1), (IndexVar::new("i"), -1)], 2);
        let a = ArrayId::from_index(0).at([s]);
        let lin = linearize(&a, &[Dim::new(100)], 8);
        assert!(lin.coeffs().is_empty());
        assert_eq!(lin.offset(), 8);
    }
}
