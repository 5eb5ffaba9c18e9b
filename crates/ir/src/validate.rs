//! Structural validation of programs.

use std::collections::HashSet;

use crate::affine::{AffineExpr, IndexVar};
use crate::error::IrError;
use crate::loops::Stmt;
use crate::program::Program;
use crate::reference::ArrayRef;

/// Checks that the arrays fit [`crate::MAX_FOOTPRINT_BYTES`] together,
/// every reference is well-formed and every variable is bound. Each
/// array's own size was checked when it was declared.
pub(crate) fn validate(program: &Program) -> Result<(), IrError> {
    let total = program
        .arrays()
        .iter()
        .try_fold(0i64, |acc, a| acc.checked_add(a.size_bytes()));
    if total.is_none_or(|t| t > crate::MAX_FOOTPRINT_BYTES) {
        return Err(IrError::FootprintTooLarge { array: None });
    }
    let mut bound: Vec<IndexVar> = Vec::new();
    for stmt in program.body() {
        validate_stmt(program, stmt, &mut bound)?;
    }
    Ok(())
}

fn validate_stmt(program: &Program, stmt: &Stmt, bound: &mut Vec<IndexVar>) -> Result<(), IrError> {
    match stmt {
        Stmt::Refs(refs) => refs
            .iter()
            .try_for_each(|r| validate_ref(program, r, bound)),
        Stmt::Loop { header, body } => {
            check_expr(header.lower(), bound)?;
            check_expr(header.upper(), bound)?;
            if bound.contains(header.var()) {
                return Err(IrError::ShadowedVariable {
                    var: header.var().name().into(),
                });
            }
            bound.push(header.var().clone());
            let result = body
                .iter()
                .try_for_each(|s| validate_stmt(program, s, bound));
            bound.pop();
            result
        }
    }
}

fn validate_ref(
    program: &Program,
    array_ref: &ArrayRef,
    bound: &[IndexVar],
) -> Result<(), IrError> {
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
    Ok(())
}

fn check_expr(expr: &AffineExpr, bound: &[IndexVar]) -> Result<(), IrError> {
    let bound_set: HashSet<&IndexVar> = bound.iter().collect();
    for var in expr.vars() {
        if !bound_set.contains(var) {
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
    use crate::array::ArrayBuilder;
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
