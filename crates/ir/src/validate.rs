//! Structural validation of programs.

use crate::affine::{AffineExpr, IndexVar};
use crate::array::{ArrayId, ArraySpec};
use crate::error::IrError;
use crate::loops::Stmt;
use crate::program::Program;
use crate::reference::ArrayRef;

/// What validation knows about one loop's index variable while checking
/// the loop's body.
struct Bound<'p> {
    var: &'p IndexVar,
    /// Smallest and largest value either loop bound can take.
    lo: i128,
    hi: i128,
    /// Largest magnitude of a value or of the step.
    reach: i128,
}

/// Checks that the arrays fit [`crate::MAX_FOOTPRINT_BYTES`] together,
/// every reference is well-formed and every variable is bound. Each
/// array's own size was checked when it was declared.
///
/// It also keeps address arithmetic inside `i64`. Every loop bound
/// must fit `i64` over the enclosing loops' ranges, at every partial sum
/// of its evaluation. Every reference's byte offset from its array's
/// base must stay within `MAX_FOOTPRINT_BYTES` in magnitude. That offset
/// is bounded term by term: each subscript's constant and the
/// dimension's lower bound, plus each coefficient times its variable's
/// largest value or step, times the dimension's byte stride. So no
/// partial sum of a compiled address, in any order, leaves `i64`.
pub(crate) fn validate(program: &Program) -> Result<(), IrError> {
    let total = program
        .arrays()
        .iter()
        .try_fold(0i64, |acc, a| acc.checked_add(a.size_bytes()));
    if total.is_none_or(|t| t > crate::MAX_FOOTPRINT_BYTES) {
        return Err(IrError::FootprintTooLarge { array: None });
    }
    walk(program, &mut |r, bound| validate_ref(program, r, bound))
}

/// The address limits a built [`Program`] keeps (see
/// [`crate::MAX_FOOTPRINT_BYTES`]), for its arrays reshaped.
///
/// Padding grows dimensions, and with them an array's footprint and the
/// byte strides its references scale by. This table holds each
/// reference's reach in elements per dimension, which no reshaping
/// changes, so [`AddressLimits::admits`] prices a grown shape with the
/// validator's own rule.
#[derive(Debug, Clone)]
pub struct AddressLimits {
    elem_sizes: Vec<u32>,
    /// Per array: each reference's reach in elements, one entry per
    /// dimension, the references back to back.
    reach: Vec<Vec<i128>>,
}

impl AddressLimits {
    /// The limits of a built program.
    pub fn new(program: &Program) -> Self {
        let mut reach = vec![Vec::new(); program.arrays().len()];
        walk(program, &mut |r, bound| {
            let spec = program.array(r.array());
            reach[r.array().index()].extend(element_reach(spec, r, bound));
            Ok(())
        })
        .expect("a built program walks cleanly");
        AddressLimits {
            elem_sizes: program.arrays().iter().map(ArraySpec::elem_size).collect(),
            reach,
        }
    }

    /// The byte footprint of array `id` with dimension sizes `sizes`,
    /// saturating far above any accepted value.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the program.
    pub fn bytes(&self, id: ArrayId, sizes: &[i64]) -> i128 {
        sizes
            .iter()
            .fold(i128::from(self.elem_sizes[id.index()]), |acc, &size| {
                acc.saturating_mul(i128::from(size))
            })
    }

    /// True when array `id` reshaped to `sizes` keeps the limits a built
    /// program keeps: its footprint plus `others` (the bytes of every
    /// other array) within [`crate::MAX_FOOTPRINT_BYTES`], and every
    /// reference to it within that many bytes of its base under the
    /// reshaped strides.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the program.
    pub fn admits(&self, id: ArrayId, sizes: &[i64], others: i128) -> bool {
        let max = i128::from(crate::MAX_FOOTPRINT_BYTES);
        let elem_size = self.elem_sizes[id.index()];
        self.bytes(id, sizes).saturating_add(others) <= max
            && self.reach[id.index()].chunks(sizes.len()).all(|elements| {
                byte_reach(elements.iter().copied(), elem_size, sizes.iter().copied()) <= max
            })
    }
}

/// Checks every loop, and hands each reference to `visit` with the
/// loops that bind it.
fn walk<'p>(
    program: &'p Program,
    visit: &mut impl FnMut(&'p ArrayRef, &[Bound<'p>]) -> Result<(), IrError>,
) -> Result<(), IrError> {
    let mut bound: Vec<Bound> = Vec::new();
    program
        .body()
        .iter()
        .try_for_each(|stmt| walk_stmt(stmt, &mut bound, visit))
}

fn walk_stmt<'p>(
    stmt: &'p Stmt,
    bound: &mut Vec<Bound<'p>>,
    visit: &mut impl FnMut(&'p ArrayRef, &[Bound<'p>]) -> Result<(), IrError>,
) -> Result<(), IrError> {
    match stmt {
        Stmt::Refs(refs) => refs.iter().try_for_each(|r| visit(r, bound)),
        Stmt::Loop { header, body } => {
            check_expr(header.lower(), bound)?;
            check_expr(header.upper(), bound)?;
            if bound.iter().any(|b| b.var == header.var()) {
                return Err(IrError::ShadowedVariable {
                    var: header.var().name().into(),
                });
            }
            let overflow = || IrError::BoundOverflow {
                var: header.var().name().into(),
            };
            let lower = bound_range(header.lower(), bound).ok_or_else(overflow)?;
            let upper = bound_range(header.upper(), bound).ok_or_else(overflow)?;
            let (lo, hi) = (lower.0.min(upper.0), lower.1.max(upper.1));
            bound.push(Bound {
                var: header.var(),
                lo,
                hi,
                reach: lo.abs().max(hi.abs()).max(i128::from(header.step()).abs()),
            });
            let result = body.iter().try_for_each(|s| walk_stmt(s, bound, visit));
            bound.pop();
            result
        }
    }
}

/// The innermost binding of `var` (checked to exist beforehand).
fn lookup<'b, 'p>(bound: &'b [Bound<'p>], var: &IndexVar) -> &'b Bound<'p> {
    bound
        .iter()
        .rev()
        .find(|b| b.var == var)
        .expect("variables are checked bound first")
}

/// The range of a loop bound over the enclosing loops' ranges, or `None`
/// when a term or a partial sum of its evaluation can leave `i64`.
fn bound_range(expr: &AffineExpr, bound: &[Bound]) -> Option<(i128, i128)> {
    let fits = |v: i128| i64::try_from(v).is_ok();
    let offset = i128::from(expr.offset());
    let mut range = (offset, offset);
    for (var, coeff) in expr.terms() {
        let b = lookup(bound, var);
        let (x, y) = (i128::from(*coeff) * b.lo, i128::from(*coeff) * b.hi);
        range = (range.0 + x.min(y), range.1 + x.max(y));
        if ![x, y, range.0, range.1].into_iter().all(fits) {
            return None;
        }
    }
    Some(range)
}

fn validate_ref(program: &Program, array_ref: &ArrayRef, bound: &[Bound]) -> Result<(), IrError> {
    let index = array_ref.array().index();
    let Some(spec) = program.arrays().get(index) else {
        return Err(IrError::UnknownArray { index });
    };
    if array_ref.subscripts().len() != spec.rank() {
        return Err(IrError::SubscriptArity {
            array: spec.name().into(),
            got: array_ref.subscripts().len(),
            expected: spec.rank(),
        });
    }
    for sub in array_ref.subscripts() {
        check_expr(sub, bound)?;
    }
    let elements = element_reach(spec, array_ref, bound);
    let sizes = spec.dims().iter().map(|d| d.size);
    if byte_reach(elements, spec.elem_size(), sizes) > i128::from(crate::MAX_FOOTPRINT_BYTES) {
        return Err(IrError::AddressOverflow {
            array: spec.name().into(),
        });
    }
    Ok(())
}

/// Per dimension, the term-by-term bound on a reference's subscript in
/// elements: the subscript's constant and the dimension's lower bound,
/// plus each coefficient times its variable's largest value or step
/// (see [`validate`]). Saturates far above any accepted value.
fn element_reach<'a>(
    spec: &'a ArraySpec,
    array_ref: &'a ArrayRef,
    bound: &'a [Bound],
) -> impl Iterator<Item = i128> + 'a {
    array_ref
        .subscripts()
        .iter()
        .zip(spec.dims())
        .map(move |(sub, dim)| {
            sub.terms().iter().fold(
                i128::from(sub.offset()).abs() + i128::from(dim.lower).abs(),
                |acc, (var, coeff)| {
                    let term = i128::from(*coeff).abs() * lookup(bound, var).reach;
                    acc.saturating_add(term)
                },
            )
        })
}

/// The bound on a reference's byte offset from its array's base: its
/// per-dimension `elements` times the byte strides of an array with
/// element size `elem_size` and dimension sizes `sizes`. Saturates far
/// above any accepted value.
fn byte_reach(
    elements: impl Iterator<Item = i128>,
    elem_size: u32,
    sizes: impl Iterator<Item = i64>,
) -> i128 {
    let mut stride = i128::from(elem_size);
    let mut reach = 0i128;
    for (elements, size) in elements.zip(sizes) {
        reach = reach.saturating_add(elements.saturating_mul(stride));
        stride = stride.saturating_mul(i128::from(size));
    }
    reach
}

fn check_expr(expr: &AffineExpr, bound: &[Bound]) -> Result<(), IrError> {
    for var in expr.vars() {
        if !bound.iter().any(|b| b.var == var) {
            return Err(IrError::UnboundVariable {
                var: var.name().into(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayBuilder, Dim};
    use crate::loops::Loop;
    use crate::reference::Subscript;

    #[test]
    fn wrong_arity_rejected() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [10, 10]));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 10),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        assert!(matches!(b.build(), Err(IrError::SubscriptArity { .. })));
    }

    #[test]
    fn unbound_variable_rejected() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [10]));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 10),
            vec![Stmt::refs(vec![a.at([Subscript::var("q")])])],
        ));
        assert!(matches!(b.build(), Err(IrError::UnboundVariable { .. })));
    }

    #[test]
    fn unbound_bound_variable_rejected() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [10]));
        b.push(Stmt::loop_(
            Loop::new("i", Subscript::var("k"), 10),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        assert!(matches!(b.build(), Err(IrError::UnboundVariable { .. })));
    }

    #[test]
    fn shadowed_variable_rejected() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [10]));
        b.push(Stmt::loop_nest(
            [Loop::new("i", 1, 10), Loop::new("i", 1, 10)],
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        assert!(matches!(b.build(), Err(IrError::ShadowedVariable { .. })));
    }

    #[test]
    fn sibling_loops_may_share_names() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [10]));
        for _ in 0..2 {
            b.push(Stmt::loop_(
                Loop::new("i", 1, 10),
                vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
            ));
        }
        assert!(b.build().is_ok());
    }

    /// The error `text` fails to parse with.
    fn parse_err(text: &str) -> String {
        crate::parse(text).expect_err(text).to_string()
    }

    #[test]
    fn references_whose_addresses_wrap_64_bits_are_rejected() {
        // Each reference's byte offset wraps i64 unchecked: a coefficient
        // times the stride, a constant, a loop near the top of i64, and a
        // lower bound near the bottom.
        let cases = [
            "array A(100, 4)\ndo i = 1, 10\n  t = A(4611686018427387904*i, 1)\nend",
            "array A(100, 4)\ndo i = 1, 10\n  t = A(i + 9223372036854775000, 1)\nend",
            "array A(100, 4)\ndo i = 9223372036854775800, 9223372036854775807\n  t = A(i, 1)\nend",
            "array A(-9223372036854775807:-9223372036854775000, 4)\n\
             do i = 1, 10\n  t = A(i, 1)\nend",
        ];
        for body in cases {
            let err = parse_err(&format!("program wrap\n{body}"));
            assert!(
                err.contains("a reference to A can reach more than"),
                "{body:?} gave {err}"
            );
        }
    }

    #[test]
    fn loop_bounds_outside_i64_are_rejected() {
        let err = parse_err(
            "program wrap\narray A(4)\n\
             do i = 1, 9223372036854775807\n  do j = i, i + 1\n    t = A(1)\n  end\nend",
        );
        assert!(err.contains("loop over j leave the 64-bit range"), "{err}");
        let err = parse_err(
            "program wrap\narray A(4)\n\
             do i = -9223372036854775807, 2\n  do j = 1, 2*i\n    t = A(1)\n  end\nend",
        );
        assert!(err.contains("loop over j leave the 64-bit range"), "{err}");
    }

    #[test]
    fn the_limits_themselves_are_accepted() {
        // A loop spanning all of i64 whose body never scales its variable.
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [10]));
        b.push(Stmt::loop_(
            Loop::new("i", i64::MIN, i64::MAX),
            vec![Stmt::refs(vec![a.at([Subscript::constant(2)])])],
        ));
        assert!(b.build().is_ok());
        // Offsets reaching exactly MAX_FOOTPRINT_BYTES, and one byte more.
        let reach = |hi: i64| {
            let mut b = Program::builder("p");
            let a = b.add_array(
                ArrayBuilder::new("A", [10])
                    .dims([Dim::with_lower(10, 0)])
                    .elem_size(1),
            );
            b.push(Stmt::loop_(
                Loop::new("i", 0, hi),
                vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
            ));
            b.build()
        };
        assert!(reach(crate::MAX_FOOTPRINT_BYTES).is_ok());
        assert_eq!(
            reach(crate::MAX_FOOTPRINT_BYTES + 1),
            Err(IrError::AddressOverflow { array: "A".into() })
        );
    }

    #[test]
    fn unknown_array_rejected() {
        // Construct a reference to an id from a *different* builder.
        let mut other = Program::builder("other");
        let _ = other.add_array(ArrayBuilder::new("A", [10]));
        let phantom = other.add_array(ArrayBuilder::new("B", [10]));

        let mut b = Program::builder("p");
        let _ = b.add_array(ArrayBuilder::new("A", [10]));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 10),
            vec![Stmt::refs(vec![phantom.at([Subscript::var("i")])])],
        ));
        assert!(matches!(b.build(), Err(IrError::UnknownArray { .. })));
    }
}
