//! Trace capture, for tests and debugging.

use pad_cache_sim::Access;
use pad_core::DataLayout;
use pad_ir::Program;

/// Materializes the program's address stream through the interpreted
/// walk ([`crate::for_each_access`]): a reference oracle for golden tests
/// that inspect exact address sequences.
///
/// Simulation streams accesses through [`crate::simulate_batch`] instead
/// of collecting them.
pub fn collect_trace(program: &Program, layout: &DataLayout) -> Vec<Access> {
    let mut out = Vec::new();
    crate::for_each_access(program, layout, |a| out.push(a));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_ir::{ArrayBuilder, Loop, Stmt, Subscript};

    fn program() -> Program {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [100]).elem_size(8));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 100),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        b.build().expect("valid")
    }

    #[test]
    fn unlimited_capture() {
        let p = program();
        let t = collect_trace(&p, &DataLayout::original(&p));
        assert_eq!(t.len(), 100);
        assert_eq!(t[0].addr, 0);
        assert_eq!(t[99].addr, 99 * 8);
    }
}
