//! Incremental construction of [`Program`]s.

use crate::array::{ArrayBuilder, ArrayId};
use crate::error::IrError;
use crate::loops::Stmt;
use crate::program::Program;

/// Builder for [`Program`]; see [`Program::builder`].
///
/// Arrays are declared first (each declaration returns the [`ArrayId`] used
/// to build references), then statements are pushed in program order, and
/// [`ProgramBuilder::build`] validates the result.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    arrays: Vec<ArrayBuilder>,
    body: Vec<Stmt>,
    source_lines: Option<u32>,
}

impl ProgramBuilder {
    pub(crate) fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            arrays: Vec::new(),
            body: Vec::new(),
            source_lines: None,
        }
    }

    /// Declares an array and returns its id.
    pub fn add_array(&mut self, array: ArrayBuilder) -> ArrayId {
        let id = ArrayId(self.arrays.len());
        self.arrays.push(array);
        id
    }

    /// Appends a top-level statement.
    pub fn push(&mut self, stmt: Stmt) -> &mut Self {
        self.body.push(stmt);
        self
    }

    /// Records the original benchmark's source-line count (Table 2
    /// metadata).
    pub fn source_lines(&mut self, lines: u32) -> &mut Self {
        self.source_lines = Some(lines);
        self
    }

    /// Validates and produces the program.
    ///
    /// # Errors
    ///
    /// Returns an [`IrError`] if any array shape is malformed, a reference
    /// has the wrong number of subscripts or points at an undeclared array,
    /// or a subscript/bound uses an index variable not bound by an
    /// enclosing loop.
    pub fn build(self) -> Result<Program, IrError> {
        let arrays = self
            .arrays
            .into_iter()
            .map(ArrayBuilder::finish)
            .collect::<Result<Vec<_>, _>>()?;
        Program::from_parts(self.name, arrays, self.body, self.source_lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::Loop;
    use crate::reference::Subscript;

    #[test]
    fn builds_a_program() {
        let mut b = Program::builder("t");
        let a = b.add_array(ArrayBuilder::new("A", [10]));
        b.source_lines(42);
        b.push(Stmt::loop_(
            Loop::new("i", 1, 10),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        let p = b.build().expect("valid");
        assert_eq!(p.name(), "t");
        assert_eq!(p.source_lines(), Some(42));
        assert_eq!(p.arrays().len(), 1);
    }

    #[test]
    fn footprints_beyond_half_the_i64_range_are_rejected() {
        use crate::MAX_FOOTPRINT_BYTES as MAX;
        let build = |arrays: &[(&str, &[i64], u32)]| {
            let mut b = Program::builder("big");
            for &(name, dims, elem) in arrays {
                b.add_array(ArrayBuilder::new(name, dims.iter().copied()).elem_size(elem));
            }
            b.build()
        };
        let too_large = |array: Option<&str>| {
            Err(IrError::FootprintTooLarge {
                array: array.map(str::to_string),
            })
        };

        // Byte sizes that wrap 64 bits, in the element count or only
        // once the element size multiplies in.
        assert_eq!(build(&[("A", &[i64::MAX, 256], 8)]), too_large(Some("A")));
        assert_eq!(build(&[("A", &[1 << 61], 8)]), too_large(Some("A")));
        // The limit itself fits; one byte more does not.
        assert!(build(&[("A", &[MAX], 1)]).is_ok());
        assert!(build(&[("A", &[MAX / 8], 8)]).is_ok());
        assert_eq!(build(&[("A", &[MAX + 1], 1)]), too_large(Some("A")));
        // Each array fits alone, but not together.
        let half = MAX / 2 + 1;
        assert_eq!(
            build(&[("A", &[half], 1), ("B", &[half], 1)]),
            too_large(None)
        );
        assert!(build(&[("A", &[half], 1), ("B", &[half - 2], 1)]).is_ok());
        // Many arrays whose sum wraps i64.
        let many: Vec<(String, i64)> = (0..5).map(|i| (format!("A{i}"), MAX)).collect();
        let many: Vec<(&str, &[i64], u32)> = many
            .iter()
            .map(|(n, size)| (n.as_str(), std::slice::from_ref(size), 1))
            .collect();
        assert_eq!(build(&many), too_large(None));
    }

    #[test]
    fn empty_program_is_fine() {
        let p = Program::builder("empty").build().expect("valid");
        assert!(p.all_refs().is_empty());
        assert!(p.ref_groups().is_empty());
    }
}
