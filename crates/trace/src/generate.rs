//! The interpreted walk: loop nests executed straight from the IR. It is
//! the reference oracle that tests, the `bench_*` reference engines and
//! the benchmark's output checks compare the compiled walk against;
//! production simulation goes through [`crate::simulate_batch`].

use pad_cache_sim::Access;
use pad_core::DataLayout;
use pad_ir::{AccessKind, AffineExpr, IndexVar, Program, Stmt};

/// Executes the program's loop nests under `layout`, invoking `f` for
/// every array access in program order — the reference oracle for
/// [`crate::CompiledTrace`], which walks the same stream several times
/// faster.
///
/// Loop bounds are inclusive (Fortran `do` semantics); loops whose bounds
/// describe an empty range simply execute zero iterations, which is what
/// makes triangular nests like `do i = k+1, n` work at the boundary.
///
/// # Panics
///
/// Panics if a bound or subscript references a variable that no enclosing
/// loop binds (programs built through [`Program::builder`] are validated
/// and cannot trigger this).
pub fn for_each_access(program: &Program, layout: &DataLayout, mut f: impl FnMut(Access)) {
    let mut walker = Walker {
        layout,
        env: Vec::new(),
        indices: Vec::new(),
        f: &mut f,
    };
    for stmt in program.body() {
        walker.stmt(stmt);
    }
}

/// Counts the accesses the program would perform by walking it, without
/// simulating: the reference oracle for [`crate::CompiledTrace::count`],
/// which counts in closed form.
pub fn count_accesses(program: &Program, layout: &DataLayout) -> u64 {
    let mut n = 0u64;
    for_each_access(program, layout, |_| n += 1);
    n
}

struct Walker<'a, F: FnMut(Access)> {
    layout: &'a DataLayout,
    env: Vec<(IndexVar, i64)>,
    indices: Vec<i64>,
    f: &'a mut F,
}

impl<F: FnMut(Access)> Walker<'_, F> {
    fn eval(&self, expr: &AffineExpr) -> i64 {
        expr.eval_with(|var| {
            self.env
                .iter()
                .rev()
                .find(|(v, _)| v == var)
                .map(|&(_, value)| value)
        })
        .expect("validated programs bind every variable")
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Refs(refs) => {
                for r in refs {
                    self.indices.clear();
                    for sub in r.subscripts() {
                        let v = self.eval(sub);
                        self.indices.push(v);
                    }
                    let addr = self.layout.address_of(r.array(), &self.indices);
                    (self.f)(Access {
                        addr,
                        is_write: r.kind() == AccessKind::Write,
                    });
                }
            }
            Stmt::Loop { header, body } => {
                let lower = self.eval(header.lower());
                let upper = self.eval(header.upper());
                let step = header.step();
                let mut value = lower;
                loop {
                    let in_range = if step > 0 {
                        value <= upper
                    } else {
                        value >= upper
                    };
                    if !in_range {
                        break;
                    }
                    self.env.push((header.var().clone(), value));
                    for s in body {
                        self.stmt(s);
                    }
                    self.env.pop();
                    value += step;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_ir::{ArrayBuilder, ArrayId, Loop, Subscript};

    fn collect(program: &Program) -> Vec<(u64, bool)> {
        let layout = DataLayout::original(program);
        let mut out = Vec::new();
        for_each_access(program, &layout, |a| out.push((a.addr, a.is_write)));
        out
    }

    #[test]
    fn unit_stride_walk() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [4]).elem_size(8));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 4),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        let p = b.build().expect("valid");
        assert_eq!(
            collect(&p),
            vec![(0, false), (8, false), (16, false), (24, false)]
        );
    }

    #[test]
    fn column_major_nest_order() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [2, 2]).elem_size(1));
        b.push(Stmt::loop_nest(
            [Loop::new("i", 1, 2), Loop::new("j", 1, 2)],
            vec![Stmt::refs(vec![a
                .at([Subscript::var("j"), Subscript::var("i")])
                .write()])],
        ));
        let p = b.build().expect("valid");
        // i outer, j inner: (1,1) (2,1) (1,2) (2,2) -> addresses 0 1 2 3.
        assert_eq!(
            collect(&p),
            vec![(0, true), (1, true), (2, true), (3, true)]
        );
    }

    #[test]
    fn triangular_bounds_shrink() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [4]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::new("k", 1, 3),
            vec![Stmt::loop_(
                Loop::new("i", Subscript::var_offset("k", 1), 4),
                vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
            )],
        ));
        let p = b.build().expect("valid");
        // k=1: i=2..4 (3), k=2: i=3..4 (2), k=3: i=4 (1).
        assert_eq!(collect(&p).len(), 6);
    }

    #[test]
    fn empty_range_executes_nothing() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [4]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::new("i", 5, 4),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        let p = b.build().expect("valid");
        assert!(collect(&p).is_empty());
    }

    #[test]
    fn negative_step_walks_backward() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [3]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::with_step("i", 3, 1, -1),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        let p = b.build().expect("valid");
        assert_eq!(collect(&p), vec![(2, false), (1, false), (0, false)]);
    }

    #[test]
    fn padding_shifts_addresses() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [2, 2]).elem_size(1));
        let c = b.add_array(ArrayBuilder::new("C", [2]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 2),
            vec![Stmt::refs(vec![
                a.at([Subscript::constant(1), Subscript::var("i")]),
                c.at([Subscript::var("i")]),
            ])],
        ));
        let p = b.build().expect("valid");
        let mut layout = DataLayout::original(&p);
        let ids: Vec<ArrayId> = p.arrays_with_ids().map(|(id, _)| id).collect();
        layout.pad_dim(ids[0], 0, 1);
        layout.assign_sequential_bases();
        let mut out = Vec::new();
        for_each_access(&p, &layout, |acc| out.push(acc.addr));
        // A columns now 3 wide; C starts after 3*2 = 6 bytes.
        assert_eq!(out, vec![0, 6, 3, 7]);
    }

    #[test]
    fn count_matches_for_each() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [10, 10]).elem_size(1));
        b.push(Stmt::loop_nest(
            [Loop::new("i", 1, 10), Loop::new("j", 1, 10)],
            vec![Stmt::refs(vec![
                a.at([Subscript::var("j"), Subscript::var("i")])
            ])],
        ));
        let p = b.build().expect("valid");
        let layout = DataLayout::original(&p);
        assert_eq!(count_accesses(&p, &layout), 100);
    }

    #[test]
    fn shadowed_names_resolve_innermost() {
        // Two sibling loops reuse "i"; inner scopes see their own binding.
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [4]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 2),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        b.push(Stmt::loop_(
            Loop::new("i", 3, 4),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        let p = b.build().expect("valid");
        assert_eq!(collect(&p).len(), 4);
    }
}
