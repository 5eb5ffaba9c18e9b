//! IR construction and validation errors.

use std::error::Error;
use std::fmt;

/// Errors produced while building or validating a [`crate::Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IrError {
    /// An array was declared with no dimensions.
    EmptyShape {
        /// Name of the offending array.
        array: String,
    },
    /// An array was declared with a zero element size.
    ZeroElementSize {
        /// Name of the offending array.
        array: String,
    },
    /// A reference points at an array id not declared in the program.
    UnknownArray {
        /// The out-of-range array index.
        index: usize,
    },
    /// A reference has the wrong number of subscripts for its array.
    SubscriptArity {
        /// Name of the referenced array.
        array: String,
        /// Number of subscripts supplied.
        got: usize,
        /// The array's rank.
        expected: usize,
    },
    /// A subscript or loop bound uses a variable not bound by an enclosing
    /// loop.
    UnboundVariable {
        /// The unbound variable's name.
        var: String,
    },
    /// Two nested loops bind the same index variable.
    ShadowedVariable {
        /// The doubly-bound variable's name.
        var: String,
    },
    /// An array was looked up by a name the program does not declare.
    NoSuchArray {
        /// The name that failed to resolve.
        name: String,
    },
    /// A loop was constructed with a zero step.
    ZeroStep {
        /// The loop's index variable name.
        var: String,
    },
    /// A loop nest was requested with no loop headers.
    EmptyLoopNest,
    /// An array's byte size, or the program's total footprint, exceeds
    /// [`crate::MAX_FOOTPRINT_BYTES`].
    FootprintTooLarge {
        /// Name of the offending array, or `None` when every array fits
        /// but their sum does not.
        array: Option<String>,
    },
    /// A loop bound, or a partial sum of its evaluation, can leave `i64`
    /// over the enclosing loops' ranges.
    BoundOverflow {
        /// The loop's index variable name.
        var: String,
    },
    /// A reference's byte offset from its array's base can exceed
    /// [`crate::MAX_FOOTPRINT_BYTES`] in magnitude over the loop bounds.
    AddressOverflow {
        /// Name of the referenced array.
        array: String,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::EmptyShape { array } => {
                write!(f, "array {array} declared with no dimensions")
            }
            IrError::ZeroElementSize { array } => {
                write!(f, "array {array} declared with zero element size")
            }
            IrError::UnknownArray { index } => {
                write!(f, "reference to undeclared array index {index}")
            }
            IrError::SubscriptArity {
                array,
                got,
                expected,
            } => write!(
                f,
                "reference to {array} has {got} subscripts but the array has rank {expected}"
            ),
            IrError::UnboundVariable { var } => {
                write!(f, "index variable {var} is not bound by an enclosing loop")
            }
            IrError::ShadowedVariable { var } => {
                write!(f, "index variable {var} is bound by two nested loops")
            }
            IrError::NoSuchArray { name } => {
                write!(f, "no array named {name} is declared")
            }
            IrError::ZeroStep { var } => {
                write!(f, "loop over {var} has a zero step")
            }
            IrError::EmptyLoopNest => {
                write!(f, "a loop nest requires at least one loop header")
            }
            IrError::FootprintTooLarge { array: Some(array) } => write!(
                f,
                "array {array} occupies more than {} bytes",
                crate::MAX_FOOTPRINT_BYTES
            ),
            IrError::FootprintTooLarge { array: None } => write!(
                f,
                "the program's arrays occupy more than {} bytes together",
                crate::MAX_FOOTPRINT_BYTES
            ),
            IrError::BoundOverflow { var } => {
                write!(
                    f,
                    "the bounds of the loop over {var} leave the 64-bit range"
                )
            }
            IrError::AddressOverflow { array } => write!(
                f,
                "a reference to {array} can reach more than {} bytes from its base",
                crate::MAX_FOOTPRINT_BYTES
            ),
        }
    }
}

impl Error for IrError {}
