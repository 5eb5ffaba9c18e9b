//! The `% UNIF. REFS` column of Table 2: the share of references in
//! uniform form.
//!
//! Gannon, Jalby & Gallivan's *uniformly generated* references — pairs of
//! the form `A(i1+r1, ..., id+rd)` and `B(i1+s1, ..., id+sd)` over
//! *conforming* arrays — are the syntactic class the paper's analysis
//! reasons about: between such references the linearized distance is a
//! compile-time constant. The analysis itself decides "a constant
//! distance apart" from linearized forms (equal slot coefficients in a
//! [`Nest`](crate::Nest)); this module only counts the references whose
//! own subscripts are in uniform form.

use pad_ir::{ArrayRef, Program};

/// True when a single reference is in uniform form: every subscript is
/// `i + c` for an index variable `i`, or an integer constant (the paper
/// folds constants in as `i_j = 0`).
fn is_uniform_ref(array_ref: &ArrayRef) -> bool {
    array_ref.uniform_subscripts().is_some()
}

/// The fraction of references in the program (inside loops) that are in
/// uniform form — the `% UNIF. REFS` column of Table 2.
pub fn uniform_ref_fraction(program: &Program) -> f64 {
    let mut total = 0usize;
    let mut uniform = 0usize;
    for group in program.ref_groups() {
        for r in &group.refs {
            total += 1;
            if is_uniform_ref(r) {
                uniform += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        uniform as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_ir::{ArrayBuilder, IndexVar, Loop, Stmt, Subscript};

    fn stencil_program() -> Program {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [100, 100]));
        let c = b.add_array(ArrayBuilder::new("B", [100, 100]));
        let d = b.add_array(ArrayBuilder::new("D", [100, 50]));
        let irregular = Subscript::from_terms([(IndexVar::new("j"), 2)], 0);
        b.push(Stmt::loop_nest(
            [Loop::new("i", 2, 99), Loop::new("j", 2, 99)],
            vec![Stmt::refs(vec![
                a.at([Subscript::var("j"), Subscript::var("i")]),
                a.at([Subscript::var_offset("j", -1), Subscript::var("i")]),
                c.at([Subscript::var("j"), Subscript::var("i")]).write(),
                d.at([Subscript::var("j"), Subscript::var("i")]),
                a.at([irregular, Subscript::var("i")]),
                c.at([Subscript::var("i"), Subscript::var("j")]),
            ])],
        ));
        b.build().expect("valid")
    }

    #[test]
    fn uniform_classification() {
        let p = stencil_program();
        let refs = p.all_refs();
        assert!(is_uniform_ref(refs[0]));
        assert!(is_uniform_ref(refs[1]));
        assert!(!is_uniform_ref(refs[4])); // 2*j coefficient
    }

    #[test]
    fn fraction_counts_loop_refs() {
        let p = stencil_program();
        let f = uniform_ref_fraction(&p);
        assert!((f - 5.0 / 6.0).abs() < 1e-12, "got {f}");
    }

    #[test]
    fn empty_program_fraction_is_zero() {
        let p = Program::builder("e").build().expect("valid");
        assert_eq!(uniform_ref_fraction(&p), 0.0);
    }
}
