//! Fortran-flavoured pretty-printing of programs.

use std::fmt;

use crate::array::ArraySpec;
use crate::loops::Stmt;
use crate::program::Program;
use crate::reference::AccessKind;

impl fmt::Display for Program {
    /// Renders the program in a Fortran-like sketch, useful for debugging
    /// kernel specifications:
    ///
    /// ```text
    /// program jacobi
    ///   real A(512,512), B(512,512)
    ///   do i = 2, 511
    ///     do j = 2, 511
    ///       A(j-1,i) A(j,i-1) A(j+1,i) A(j,i+1) B(j,i)=
    /// ```
    ///
    /// Every array attribute that can change an analysis follows its
    /// shape, as in the spec language: a non-default element size
    /// (`elem 4`) and the `param`, `assoc` and `common` safety flags. Two
    /// programs with one display form therefore pad and simulate alike,
    /// which the advisor's answer store relies on when it keys answers
    /// by this form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {}", self.name())?;
        write!(f, "  real ")?;
        for (i, a) in self.arrays().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
            if a.elem_size() != ArraySpec::DEFAULT_ELEM_SIZE {
                write!(f, " elem {}", a.elem_size())?;
            }
            let safety = a.safety();
            for (flag, set) in [
                ("param", safety.passed_as_parameter),
                ("assoc", safety.storage_associated),
                ("common", safety.fixed_common_block),
            ] {
                if set {
                    write!(f, " {flag}")?;
                }
            }
        }
        writeln!(f)?;
        for stmt in self.body() {
            fmt_stmt(self, stmt, 1, f)?;
        }
        Ok(())
    }
}

fn indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        write!(f, "  ")?;
    }
    Ok(())
}

fn fmt_stmt(
    program: &Program,
    stmt: &Stmt,
    depth: usize,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    match stmt {
        Stmt::Refs(refs) => {
            indent(f, depth)?;
            for (i, r) in refs.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                let name = program.array(r.array()).name();
                write!(f, "{name}(")?;
                for (k, s) in r.subscripts().iter().enumerate() {
                    if k > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")?;
                if r.kind() == AccessKind::Write {
                    write!(f, "=")?;
                }
            }
            writeln!(f)
        }
        Stmt::Loop { header, body } => {
            indent(f, depth)?;
            if header.step() == 1 {
                writeln!(
                    f,
                    "do {} = {}, {}",
                    header.var(),
                    header.lower(),
                    header.upper()
                )?;
            } else {
                writeln!(
                    f,
                    "do {} = {}, {}, {}",
                    header.var(),
                    header.lower(),
                    header.upper(),
                    header.step()
                )?;
            }
            for s in body {
                fmt_stmt(program, s, depth + 1, f)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::array::ArrayBuilder;
    use crate::loops::{Loop, Stmt};
    use crate::program::Program;
    use crate::reference::Subscript;

    #[test]
    fn renders_fortran_sketch() {
        let mut b = Program::builder("demo");
        let a = b.add_array(ArrayBuilder::new("A", [8, 8]));
        b.push(Stmt::loop_nest(
            [Loop::new("i", 2, 7), Loop::new("j", 2, 7)],
            vec![Stmt::refs(vec![
                a.at([Subscript::var_offset("j", -1), Subscript::var("i")]),
                a.at([Subscript::var("j"), Subscript::var("i")]).write(),
            ])],
        ));
        let text = b.build().expect("valid").to_string();
        assert!(text.contains("program demo"));
        assert!(text.contains("real A(8,8)"));
        assert!(text.contains("do i = 2, 7"));
        assert!(text.contains("A(j-1,i) A(j,i)="));
    }

    #[test]
    fn renders_every_attribute_that_changes_an_answer() {
        let text = |decl: &str| {
            crate::parse(&format!(
                "program twin\narray A(2048, 64){decl}\narray B(8)\n\
                 do j = 2, 63\n  do i = 1, 2048\n    t = A(i, j-1) + A(i, j+1) + B(1)\n  end\nend\n"
            ))
            .expect("twin parses")
            .to_string()
        };
        let plain = text("");
        assert!(plain.contains("real A(2048,64), B(8)\n"), "{plain}");
        let twins = [
            (" elem 4", "A(2048,64) elem 4, B(8)"),
            (" param", "A(2048,64) param, B(8)"),
            (" assoc", "A(2048,64) assoc, B(8)"),
            (" common", "A(2048,64) common, B(8)"),
            (
                " elem 4 param assoc common",
                "A(2048,64) elem 4 param assoc common, B(8)",
            ),
            // The default element size is not printed.
            (" elem 8", "A(2048,64), B(8)"),
        ];
        for (decl, shown) in twins {
            let twin = text(decl);
            assert!(twin.contains(&format!("real {shown}\n")), "{decl}: {twin}");
            assert_eq!(twin == plain, decl == " elem 8", "{decl}");
        }
    }

    #[test]
    fn renders_nonunit_step() {
        let mut b = Program::builder("s");
        let a = b.add_array(ArrayBuilder::new("A", [16]));
        b.push(Stmt::loop_(
            Loop::with_step("i", 1, 16, 2),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        let text = b.build().expect("valid").to_string();
        assert!(text.contains("do i = 1, 16, 2"));
    }
}
