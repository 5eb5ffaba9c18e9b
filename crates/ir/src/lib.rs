//! Loop-nest program representation for compile-time data-layout analysis.
//!
//! This crate provides the intermediate representation consumed by the
//! padding heuristics of Rivera & Tseng, *Data Transformations for
//! Eliminating Conflict Misses* (PLDI 1998). It plays the role the Stanford
//! SUIF compiler's IR played in the original work: it captures exactly the
//! program properties the heuristics need —
//!
//! * array shapes (dimension sizes, lower bounds, element sizes),
//! * *padding safety* attributes (storage association, parameter passing,
//!   Fortran common blocks),
//! * loop nests with affine bounds, and
//! * array references with affine subscripts.
//!
//! Programs are column-major (Fortran layout): the first subscript varies
//! fastest in memory.
//!
//! # Example
//!
//! Build the JACOBI stencil from Figure 7 of the paper:
//!
//! ```
//! use pad_ir::{AccessKind, ArrayBuilder, Loop, Program, Stmt, Subscript};
//!
//! let n = 512;
//! let mut builder = Program::builder("jacobi");
//! let a = builder.add_array(ArrayBuilder::new("A", [n, n]));
//! let b = builder.add_array(ArrayBuilder::new("B", [n, n]));
//!
//! let body = Stmt::loop_nest(
//!     [Loop::new("i", 2, n - 1), Loop::new("j", 2, n - 1)],
//!     vec![Stmt::refs(vec![
//!         a.at([Subscript::var_offset("j", -1), Subscript::var("i")]),
//!         a.at([Subscript::var("j"), Subscript::var_offset("i", -1)]),
//!         a.at([Subscript::var_offset("j", 1), Subscript::var("i")]),
//!         a.at([Subscript::var("j"), Subscript::var_offset("i", 1)]),
//!         b.at([Subscript::var("j"), Subscript::var("i")]).with_kind(AccessKind::Write),
//!     ])],
//! );
//! builder.push(body);
//! let program = builder.build()?;
//! assert_eq!(program.arrays().len(), 2);
//! # Ok::<(), pad_ir::IrError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod affine;
mod array;
mod builder;
mod display;
mod error;
mod loops;
mod parse;
mod program;
mod reference;
mod validate;

pub use affine::{AffineExpr, IndexVar};
pub use array::{ArrayBuilder, ArrayId, ArraySpec, Dim, Safety};
pub use builder::ProgramBuilder;
pub use error::IrError;
pub use loops::{Loop, Stmt};
pub use parse::{parse, ParseError};
pub use program::{Program, RefGroup, RefInContext};
pub use reference::{AccessKind, ArrayRef, Subscript};
pub use validate::AddressLimits;

/// Largest byte size accepted for one array, and for all of a program's
/// arrays together: half the `i64` range. Layouts place arrays and grow
/// them by padding in 64-bit byte arithmetic; the other half is headroom
/// for the alignment gaps and pads a layout adds on top.
pub const MAX_FOOTPRINT_BYTES: i64 = i64::MAX / 2;
