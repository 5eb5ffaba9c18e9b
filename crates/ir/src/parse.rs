//! A small textual frontend for loop-nest programs.
//!
//! The builder API is the primary interface, but a Fortran-flavoured text
//! form makes kernels easy to write, store, and diff — the role source
//! files played for the paper's SUIF-based implementation. The grammar:
//!
//! ```text
//! program jacobi
//! lines 52                      # optional Table-2 metadata
//! array A(512, 512)             # elem size defaults to 8 bytes
//! array B(512, 512) elem 4      # explicit element size
//! array P(100) param            # passed as parameter (not intra-paddable)
//! array Q(0:99)                 # explicit lower bound
//!
//! do i = 2, 511
//!   do j = 2, 511
//!     B(j, i) = A(j-1, i) + A(j, i-1) + A(j+1, i) + A(j, i+1)
//!   end
//! end
//! ```
//!
//! Statements are assignments. Every array reference on the right-hand
//! side becomes a read (in textual order); the left-hand side becomes a
//! write. A left-hand side without parentheses is a scalar and is ignored
//! (scalars live in registers, as the paper assumes). Loop bounds and
//! subscripts are affine expressions over the enclosing loop variables
//! (`k+1`, `2*j-1`, ...). Comments run from `#` or `!` to end of line.
//!
//! # Example
//!
//! ```
//! let program = pad_ir::parse(
//!     "program dot
//!      array A(1000)
//!      array B(1000)
//!      do i = 1, 1000
//!        s = s + A(i) * B(i)
//!      end",
//! )?;
//! assert_eq!(program.arrays().len(), 2);
//! assert_eq!(program.all_refs().len(), 2);
//! # Ok::<(), pad_ir::ParseError>(())
//! ```

use std::error::Error;
use std::fmt;

use crate::affine::{AffineExpr, IndexVar};
use crate::array::{ArrayBuilder, ArrayId, Dim};
use crate::loops::{Loop, Stmt};
use crate::program::Program;
use crate::reference::{ArrayRef, Subscript};

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where the problem was found.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

impl From<crate::IrError> for ParseError {
    fn from(e: crate::IrError) -> Self {
        ParseError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// Parses the textual program form described in the module-level docs.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending line for syntax
/// errors, and wraps [`crate::IrError`] for semantic problems (unbound
/// variables, arity mismatches) found during final validation.
pub fn parse(source: &str) -> Result<Program, ParseError> {
    Parser::new(source).parse()
}

struct Parser<'s> {
    lines: Vec<(usize, &'s str)>,
    pos: usize,
    arrays: Vec<(String, ArrayId)>,
}

impl<'s> Parser<'s> {
    fn new(source: &'s str) -> Self {
        let lines = source
            .lines()
            .enumerate()
            .map(|(i, raw)| {
                let stripped = raw.split(['#', '!']).next().unwrap_or("").trim();
                (i + 1, stripped)
            })
            .filter(|(_, l)| !l.is_empty())
            .collect();
        Parser {
            lines,
            pos: 0,
            arrays: Vec::new(),
        }
    }

    fn err<T>(&self, line: usize, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line,
            message: message.into(),
        })
    }

    fn parse(mut self) -> Result<Program, ParseError> {
        // Header: program NAME.
        let Some(&(line, text)) = self.lines.first() else {
            return self.err(1, "empty program text");
        };
        let Some(name) = text.strip_prefix("program ") else {
            return self.err(line, "expected `program <name>` on the first line");
        };
        let mut builder = Program::builder(name.trim());
        self.pos = 1;

        // Declarations: lines/array, until the first do.
        while let Some(&(line, text)) = self.lines.get(self.pos) {
            if let Some(rest) = text.strip_prefix("lines ") {
                let n: u32 = rest.trim().parse().map_err(|_| ParseError {
                    line,
                    message: "bad line count".into(),
                })?;
                builder.source_lines(n);
                self.pos += 1;
            } else if let Some(rest) = text.strip_prefix("array ") {
                let (name, array) = parse_array_decl(line, rest)?;
                let id = builder.add_array(array);
                self.arrays.push((name, id));
                self.pos += 1;
            } else {
                break;
            }
        }

        // Body: loops and statements at top level.
        while self.pos < self.lines.len() {
            let stmt = self.parse_stmt()?;
            builder.push(stmt);
        }
        builder.build().map_err(Into::into)
    }

    fn lookup(&self, line: usize, name: &str) -> Result<ArrayId, ParseError> {
        self.arrays
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, id)| id)
            .ok_or_else(|| ParseError {
                line,
                message: format!("undeclared array {name}"),
            })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        // Callers only invoke this with `pos` in bounds; a typed error
        // (never a panic) keeps an internal slip from taking down a
        // request-handling thread that parses untrusted program text.
        let Some(&(line, text)) = self.lines.get(self.pos) else {
            return self.err(0, "internal: statement parser ran past the input");
        };
        if let Some(rest) = text.strip_prefix("do ") {
            self.pos += 1;
            let header = parse_do(line, rest)?;
            let mut body = Vec::new();
            loop {
                let Some(&(l, t)) = self.lines.get(self.pos) else {
                    return self.err(line, "unterminated `do` (missing `end`)");
                };
                if t == "end" || t == "enddo" || t == "end do" {
                    self.pos += 1;
                    break;
                }
                let _ = l;
                body.push(self.parse_stmt()?);
            }
            Ok(Stmt::Loop { header, body })
        } else if text == "end" || text == "enddo" || text == "end do" {
            self.err(line, "`end` without a matching `do`")
        } else {
            self.pos += 1;
            self.parse_assignment(line, text)
        }
    }

    fn parse_assignment(&self, line: usize, text: &str) -> Result<Stmt, ParseError> {
        let Some(eq) = top_level_eq(text) else {
            return self.err(line, "expected an assignment `lhs = rhs`");
        };
        let (lhs, rhs) = (text[..eq].trim(), text[eq + 1..].trim());
        let mut refs = Vec::new();
        for (name, subs) in extract_refs(line, rhs)? {
            let id = self.lookup(line, &name)?;
            refs.push(ArrayRef::new(id, subs, crate::AccessKind::Read));
        }
        let lhs_refs = extract_refs(line, lhs)?;
        match lhs_refs.len() {
            0 => {} // scalar target: lives in a register, no memory traffic
            1 => {
                let Some((name, subs)) = lhs_refs.into_iter().next() else {
                    return self.err(line, "internal: lost the left-hand-side reference");
                };
                let id = self.lookup(line, &name)?;
                refs.push(ArrayRef::new(id, subs, crate::AccessKind::Write));
            }
            _ => return self.err(line, "multiple array references on the left-hand side"),
        }
        Ok(Stmt::Refs(refs))
    }
}

/// Finds the `=` separating lhs from rhs (not inside parentheses).
fn top_level_eq(text: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, c) in text.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            '=' if depth == 0 => return Some(i),
            _ => {}
        }
    }
    None
}

/// `A(512, 512) elem 4 param` -> (name, builder).
fn parse_array_decl(line: usize, text: &str) -> Result<(String, ArrayBuilder), ParseError> {
    let text = text.trim();
    let open = text.find('(').ok_or_else(|| ParseError {
        line,
        message: "array declaration needs (dims)".into(),
    })?;
    let close = text.rfind(')').ok_or_else(|| ParseError {
        line,
        message: "unclosed ( in array declaration".into(),
    })?;
    let name = text[..open].trim().to_string();
    if name.is_empty() {
        return Err(ParseError {
            line,
            message: "array declaration needs a name".into(),
        });
    }
    let mut dims = Vec::new();
    for part in text[open + 1..close].split(',') {
        let part = part.trim();
        let dim = if let Some((lo, hi)) = part.split_once(':') {
            let lo: i64 = lo.trim().parse().map_err(|_| ParseError {
                line,
                message: format!("bad lower bound {lo}"),
            })?;
            let hi: i64 = hi.trim().parse().map_err(|_| ParseError {
                line,
                message: format!("bad upper bound {hi}"),
            })?;
            if hi < lo {
                return Err(ParseError {
                    line,
                    message: format!("empty range {part}"),
                });
            }
            let size = hi.checked_sub(lo).and_then(|d| d.checked_add(1));
            let size = size.ok_or_else(|| ParseError {
                line,
                message: format!("range {part} has more than {} elements", i64::MAX),
            })?;
            Dim::with_lower(size, lo)
        } else {
            let size: i64 = part.parse().map_err(|_| ParseError {
                line,
                message: format!("bad dimension size {part}"),
            })?;
            if size < 1 {
                return Err(ParseError {
                    line,
                    message: format!("bad dimension size {part}"),
                });
            }
            Dim::new(size)
        };
        dims.push(dim);
    }
    let mut array = ArrayBuilder::new(&name, []).dims(dims);
    let mut rest = text[close + 1..].split_whitespace().peekable();
    while let Some(word) = rest.next() {
        match word {
            "elem" => {
                let n = rest.next().ok_or_else(|| ParseError {
                    line,
                    message: "elem needs a byte count".into(),
                })?;
                let bytes: u32 = n.parse().map_err(|_| ParseError {
                    line,
                    message: format!("bad element size {n}"),
                })?;
                array = array.elem_size(bytes);
            }
            "param" => array = array.passed_as_parameter(true),
            "assoc" => array = array.storage_associated(true),
            "common" => array = array.fixed_common_block(true),
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unknown array attribute {other}"),
                })
            }
        }
    }
    Ok((name, array))
}

/// `i = 2, n-1` or `i = 1, 100, 2` after the `do `.
fn parse_do(line: usize, text: &str) -> Result<Loop, ParseError> {
    let Some(eq) = text.find('=') else {
        return Err(ParseError {
            line,
            message: "do needs `var = lo, hi`".into(),
        });
    };
    let var = text[..eq].trim();
    if var.is_empty() || !is_ident(var) {
        return Err(ParseError {
            line,
            message: format!("bad loop variable `{var}`"),
        });
    }
    let parts: Vec<&str> = text[eq + 1..].split(',').map(str::trim).collect();
    if parts.len() < 2 || parts.len() > 3 {
        return Err(ParseError {
            line,
            message: "do needs `var = lo, hi[, step]`".into(),
        });
    }
    let lower = parse_affine(line, parts[0])?;
    let upper = parse_affine(line, parts[1])?;
    let step = if parts.len() == 3 {
        parts[2].parse().map_err(|_| ParseError {
            line,
            message: format!("bad step {}", parts[2]),
        })?
    } else {
        1
    };
    Loop::try_with_step(var, lower, upper, step).map_err(|e| ParseError {
        line,
        message: e.to_string(),
    })
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Extracts every `NAME(sub, sub, ...)` occurrence, left to right.
fn extract_refs(line: usize, text: &str) -> Result<Vec<(String, Vec<Subscript>)>, ParseError> {
    let bytes = text.as_bytes();
    let mut refs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let name = &text[start..i];
            // Skip whitespace before a potential subscript list.
            let mut j = i;
            while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'(' {
                let mut depth = 1;
                let open = j;
                j += 1;
                while j < bytes.len() && depth > 0 {
                    match bytes[j] {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                if depth != 0 {
                    return Err(ParseError {
                        line,
                        message: format!("unclosed ( after {name}"),
                    });
                }
                let inner = &text[open + 1..j - 1];
                let subs = inner
                    .split(',')
                    .map(|s| parse_affine(line, s))
                    .collect::<Result<Vec<_>, _>>()?;
                refs.push((name.to_string(), subs));
                i = j;
            }
            // bare identifier: scalar or loop variable — not a reference
        } else {
            i += 1;
        }
    }
    Ok(refs)
}

/// Parses `2*j - 1 + k` style affine expressions.
fn parse_affine(line: usize, text: &str) -> Result<AffineExpr, ParseError> {
    let text = text.trim();
    if text.is_empty() {
        return Err(ParseError {
            line,
            message: "empty expression".into(),
        });
    }
    let mut terms: Vec<(IndexVar, i64)> = Vec::new();
    let mut offset = 0i64;
    let mut sign = 1i64;
    let mut rest = text;
    loop {
        rest = rest.trim_start();
        if rest.is_empty() {
            return Err(ParseError {
                line,
                message: format!("dangling operator in `{text}`"),
            });
        }
        // One term: [INT *] IDENT | INT.
        let (term_end, term) = split_term(rest);
        parse_term(line, term, sign, &mut terms, &mut offset, text)?;
        rest = &rest[term_end..];
        rest = rest.trim_start();
        if rest.is_empty() {
            break;
        }
        sign = match rest.as_bytes()[0] {
            b'+' => 1,
            b'-' => -1,
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unexpected `{}` in `{text}`", other as char),
                })
            }
        };
        rest = &rest[1..];
    }
    Ok(AffineExpr::from_terms(terms, offset))
}

fn split_term(s: &str) -> (usize, &str) {
    let bytes = s.as_bytes();
    let mut i = 0;
    // A leading sign belongs to the operator handling above, except at the
    // very start of the expression.
    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
        i += 1;
    }
    while i < bytes.len() {
        match bytes[i] {
            b'+' | b'-' => break,
            _ => i += 1,
        }
    }
    (i, s[..i].trim())
}

fn parse_term(
    line: usize,
    term: &str,
    sign: i64,
    terms: &mut Vec<(IndexVar, i64)>,
    offset: &mut i64,
    whole: &str,
) -> Result<(), ParseError> {
    let term = term.trim();
    let (sign, term) = match term.strip_prefix('-') {
        Some(rest) => (-sign, rest.trim()),
        None => (sign, term.strip_prefix('+').unwrap_or(term).trim()),
    };
    if let Some((coeff, var)) = term.split_once('*') {
        let c: i64 = coeff.trim().parse().map_err(|_| ParseError {
            line,
            message: format!("bad coefficient `{coeff}` in `{whole}`"),
        })?;
        let var = var.trim();
        if !is_ident(var) {
            return Err(ParseError {
                line,
                message: format!("bad variable `{var}` in `{whole}`"),
            });
        }
        terms.push((IndexVar::new(var), sign * c));
    } else if is_ident(term) {
        terms.push((IndexVar::new(term), sign));
    } else {
        let n: i64 = term.parse().map_err(|_| ParseError {
            line,
            message: format!("bad term `{term}` in `{whole}`"),
        })?;
        *offset += sign * n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;

    const JACOBI: &str = "
        program jacobi
        lines 52
        array A(512, 512)
        array B(512, 512)
        do i = 2, 511
          do j = 2, 511
            B(j, i) = A(j-1, i) + A(j, i-1) + A(j+1, i) + A(j, i+1)
          end
        end
        do i = 2, 511
          do j = 2, 511
            A(j, i) = B(j, i)
          end
        end
    ";

    #[test]
    fn parses_jacobi() {
        let p = parse(JACOBI).expect("parses");
        assert_eq!(p.name(), "jacobi");
        assert_eq!(p.source_lines(), Some(52));
        assert_eq!(p.arrays().len(), 2);
        let groups = p.ref_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].refs.len(), 5);
        assert_eq!(groups[0].refs[4].kind(), AccessKind::Write);
        // Reads come before the write within the statement.
        assert_eq!(groups[0].refs[0].kind(), AccessKind::Read);
    }

    #[test]
    fn parse_matches_builder_for_jacobi() {
        // The parsed JACOBI must agree with the builder-constructed suite
        // kernel on the analysis-relevant structure.
        let parsed = parse(JACOBI).expect("parses");
        let parsed_text = parsed.to_string();
        assert!(parsed_text.contains("do i = 2, 511"));
        assert!(parsed_text.contains("A(j-1,i)"));
    }

    #[test]
    fn scalar_assignment_has_no_write_ref() {
        let p = parse(
            "program dot
             array A(100)
             array B(100)
             do i = 1, 100
               s = s + A(i) * B(i)
             end",
        )
        .expect("parses");
        let refs = p.all_refs();
        assert_eq!(refs.len(), 2);
        assert!(refs.iter().all(|r| r.kind() == AccessKind::Read));
    }

    #[test]
    fn attributes_and_element_sizes() {
        let p = parse(
            "program attrs
             array A(10, 10) elem 4 param
             array C(0:9) common
             do i = 1, 10
               A(i, 1) = C(i-1)
             end",
        )
        .expect("parses");
        let a = &p.arrays()[0];
        assert_eq!(a.elem_size(), 4);
        assert!(!a.safety().can_pad_intra());
        assert!(a.safety().can_pad_inter());
        let c = &p.arrays()[1];
        assert_eq!(c.dims()[0].lower, 0);
        assert!(!c.safety().can_pad_inter());
    }

    #[test]
    fn triangular_bounds_and_steps() {
        let p = parse(
            "program tri
             array A(64, 64)
             do k = 1, 63
               do i = k+1, 64, 2
                 A(i, k) = A(i, k)
               end
             end",
        )
        .expect("parses");
        let mut headers = Vec::new();
        p.body()[0].visit_loops(&mut |l| headers.push(l.clone()));
        assert_eq!(headers[1].lower().to_string(), "k+1");
        assert_eq!(headers[1].step(), 2);
    }

    #[test]
    fn affine_coefficients() {
        let p = parse(
            "program coeff
             array X(300)
             do i = 1, 100
               X(3*i - 2) = X(3*i)
             end",
        )
        .expect("parses");
        let refs = p.all_refs();
        assert!(refs[0].uniform_subscripts().is_none(), "3*i is not uniform");
    }

    #[test]
    fn error_cases_point_at_lines() {
        let cases: &[(&str, &str)] = &[
            ("", "empty program"),
            ("array A(10)", "expected `program"),
            ("program p\narray A", "needs (dims)"),
            ("program p\narray A(10) weird", "unknown array attribute"),
            ("program p\narray A(9:2)", "empty range"),
            (
                "program p\narray A(10)\ndo i = 1, 10\nA(i) = 1",
                "unterminated",
            ),
            ("program p\nend", "without a matching"),
            (
                "program p\narray A(5)\ndo i = 1, 5\nA(i) + 1\nend",
                "assignment",
            ),
            (
                "program p\narray A(5)\ndo i = 1, 5\nA(i) = B(i)\nend",
                "undeclared array",
            ),
            (
                "program p\narray A(5)\ndo i = 1, 5, 0\nA(i) = 0\nend",
                "has a zero step",
            ),
            (
                "program p\narray A(5)\ndo i = 1, 5\nA(q) = 0\nend",
                "not bound",
            ),
        ];
        for (src, needle) in cases {
            let err = parse(src).expect_err(src);
            assert!(
                err.to_string().contains(needle),
                "source {src:?} gave {err} (wanted {needle})"
            );
        }
    }

    #[test]
    fn footprints_that_overflow_are_parse_errors() {
        // Each array's byte count wraps i64; unchecked, the second one's
        // base address wrapped negative.
        let err = parse(
            "program big
             array A(9223372036854775807, 256)
             array B(9223372036854775807, 256)
             do i = 1, 4
               A(i, 1) = B(i, 1)
             end",
        )
        .expect_err("A's footprint overflows");
        assert!(
            err.to_string().contains("array A occupies more than"),
            "{err}"
        );

        let err = parse(
            "program big
             array A(2305843009213693952) elem 1
             array B(2305843009213693952) elem 1",
        )
        .expect_err("the total footprint overflows");
        assert!(err.to_string().contains("arrays occupy more than"), "{err}");

        let err = parse("program big\narray A(-9223372036854775808:9223372036854775807)")
            .expect_err("the range's element count overflows");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("more than"), "{err}");

        let p = parse("program edge\narray A(9223372036854775807:9223372036854775807) elem 1")
            .expect("a one-element range at the top of i64 parses");
        assert_eq!(p.arrays()[0].dims()[0].upper(), i64::MAX);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = parse(
            "# a comment\nprogram c\n\n! fortran comment\narray A(4)\ndo i = 1, 4 # trailing\n  A(i) = 0\nend",
        )
        .expect("parses");
        assert_eq!(p.all_refs().len(), 1);
    }

    #[test]
    fn constants_on_rhs_are_not_refs() {
        let p = parse(
            "program k
             array A(4)
             do i = 1, 4
               A(i) = 3 + 4
             end",
        )
        .expect("parses");
        assert_eq!(p.all_refs().len(), 1);
        assert_eq!(p.all_refs()[0].kind(), AccessKind::Write);
    }

    #[test]
    fn round_trip_through_analysis() {
        // A parsed program behaves identically in the padding pipeline.
        let p = parse(JACOBI).expect("parses");
        let groups = p.ref_groups();
        assert!(groups[0].binds(&"i".into()));
        assert!(groups[0].binds(&"j".into()));
    }
}
