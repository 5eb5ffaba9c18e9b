//! Array declarations: shapes, element sizes, and padding-safety flags.

use std::fmt;

use crate::error::IrError;
use crate::reference::{AccessKind, ArrayRef, Subscript};

/// Identifies an array within a [`crate::Program`].
///
/// Obtained from [`crate::ProgramBuilder::add_array`]; stable for the
/// lifetime of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub(crate) usize);

impl ArrayId {
    /// The zero-based index of the array in [`crate::Program::arrays`].
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs an id from its index.
    ///
    /// Ids are nothing more than positions in the program's declaration
    /// order; this is the inverse of [`ArrayId::index`]. An id fabricated
    /// for an index that no array occupies will make accessors panic, so
    /// only round-trip indices obtained from a real program.
    pub fn from_index(index: usize) -> Self {
        ArrayId(index)
    }

    /// Builds a reference to this array with the given subscripts (a read
    /// by default; see [`ArrayRef::with_kind`]).
    pub fn at(self, subscripts: impl IntoIterator<Item = Subscript>) -> ArrayRef {
        ArrayRef::new(self, subscripts, AccessKind::Read)
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array#{}", self.0)
    }
}

/// One array dimension: its extent in elements and its lower bound
/// (Fortran arrays default to a lower bound of 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim {
    /// Number of elements along this dimension.
    pub size: i64,
    /// Smallest legal subscript along this dimension.
    pub lower: i64,
}

impl Dim {
    /// A dimension of `size` elements with the Fortran default lower bound
    /// of 1.
    ///
    /// # Panics
    ///
    /// Panics if `size < 1`.
    pub fn new(size: i64) -> Self {
        assert!(size >= 1, "dimension size must be at least 1, got {size}");
        Dim { size, lower: 1 }
    }

    /// A dimension with an explicit lower bound.
    ///
    /// # Panics
    ///
    /// Panics if `size < 1`.
    pub fn with_lower(size: i64, lower: i64) -> Self {
        assert!(size >= 1, "dimension size must be at least 1, got {size}");
        Dim { size, lower }
    }

    /// The largest legal subscript along this dimension.
    pub fn upper(&self) -> i64 {
        self.lower + (self.size - 1)
    }
}

/// Why an array may or may not be legally padded.
///
/// Mirrors the safety analysis of Section 4.1 of the paper: local variables
/// are *globalized* so the compiler controls base addresses, but arrays
/// whose internal layout is observable (sequence/storage association,
/// arrays passed as procedure parameters) cannot be intra-padded, and
/// variables trapped in non-splittable common blocks cannot be moved at
/// all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Safety {
    /// The array takes part in Fortran storage/sequence association
    /// (EQUIVALENCE or layout-sensitive COMMON): its element layout is
    /// observable, so dimension sizes must not change.
    pub storage_associated: bool,
    /// The array is passed as an argument to some procedure that assumes
    /// its declared shape, so dimension sizes must not change.
    pub passed_as_parameter: bool,
    /// The variable lives in a common block that sequence association
    /// prevents splitting: neither its base address nor its shape may
    /// change.
    pub fixed_common_block: bool,
}

impl Safety {
    /// Fully paddable (the default for globalized locals).
    pub fn safe() -> Self {
        Safety::default()
    }

    /// May this array's dimension sizes be changed (intra-variable
    /// padding)?
    pub fn can_pad_intra(&self) -> bool {
        !self.storage_associated && !self.passed_as_parameter && !self.fixed_common_block
    }

    /// May this array's base address be changed (inter-variable padding)?
    pub fn can_pad_inter(&self) -> bool {
        !self.fixed_common_block
    }
}

/// A declared array: name, column-major shape, element size, and safety
/// attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArraySpec {
    name: String,
    dims: Vec<Dim>,
    elem_size: u32,
    safety: Safety,
}

impl ArraySpec {
    /// Element size (in bytes) used when none is specified: `f64`/REAL*8.
    pub const DEFAULT_ELEM_SIZE: u32 = 8;

    pub(crate) fn from_parts(
        name: String,
        dims: Vec<Dim>,
        elem_size: u32,
        safety: Safety,
    ) -> Result<Self, IrError> {
        if dims.is_empty() {
            return Err(IrError::EmptyShape { array: name });
        }
        if elem_size == 0 {
            return Err(IrError::ZeroElementSize { array: name });
        }
        let bytes = dims
            .iter()
            .try_fold(i64::from(elem_size), |acc, d| acc.checked_mul(d.size));
        if bytes.is_none_or(|b| b > crate::MAX_FOOTPRINT_BYTES) {
            return Err(IrError::FootprintTooLarge { array: Some(name) });
        }
        Ok(ArraySpec {
            name,
            dims,
            elem_size,
            safety,
        })
    }

    /// The array's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The array's dimensions, first (fastest-varying, column) dimension
    /// first.
    pub fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Size of one element, in bytes.
    pub fn elem_size(&self) -> u32 {
        self.elem_size
    }

    /// Padding-safety attributes.
    pub fn safety(&self) -> Safety {
        self.safety
    }

    /// The column size `Col_s`: the extent of the first (fastest-varying)
    /// dimension, in elements.
    pub fn column_size(&self) -> i64 {
        self.dims[0].size
    }

    /// The row size `R_s`: the extent of the second dimension, or 1 for
    /// one-dimensional arrays. Used to cap `j*` in the LINPAD2 heuristic.
    pub fn row_size(&self) -> i64 {
        self.dims.get(1).map_or(1, |d| d.size)
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> i64 {
        self.dims.iter().map(|d| d.size).product()
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> i64 {
        self.num_elements() * i64::from(self.elem_size)
    }
}

impl fmt::Display for ArraySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if d.lower == 1 {
                write!(f, "{}", d.size)?;
            } else {
                write!(f, "{}:{}", d.lower, d.upper())?;
            }
        }
        write!(f, ")")
    }
}

/// Builder for [`ArraySpec`], consumed by
/// [`crate::ProgramBuilder::add_array`].
///
/// # Example
///
/// ```
/// use pad_ir::{ArrayBuilder, Program};
///
/// let mut b = Program::builder("demo");
/// let id = b.add_array(
///     ArrayBuilder::new("A", [512, 512])
///         .elem_size(4)
///         .passed_as_parameter(true),
/// );
/// let program = b.build()?;
/// assert_eq!(program.array(id).elem_size(), 4);
/// assert!(!program.array(id).safety().can_pad_intra());
/// # Ok::<(), pad_ir::IrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArrayBuilder {
    name: String,
    dims: Vec<Dim>,
    elem_size: u32,
    safety: Safety,
}

impl ArrayBuilder {
    /// Starts an array with the given name and dimension sizes (lower
    /// bounds default to 1, element size to
    /// [`ArraySpec::DEFAULT_ELEM_SIZE`]).
    pub fn new(name: impl Into<String>, dims: impl IntoIterator<Item = i64>) -> Self {
        ArrayBuilder {
            name: name.into(),
            dims: dims.into_iter().map(Dim::new).collect(),
            elem_size: ArraySpec::DEFAULT_ELEM_SIZE,
            safety: Safety::default(),
        }
    }

    /// Replaces the dimensions with explicit [`Dim`]s (for non-unit lower
    /// bounds).
    pub fn dims(mut self, dims: impl IntoIterator<Item = Dim>) -> Self {
        self.dims = dims.into_iter().collect();
        self
    }

    /// Sets the element size in bytes.
    pub fn elem_size(mut self, bytes: u32) -> Self {
        self.elem_size = bytes;
        self
    }

    /// Marks the array as storage-associated (not intra-paddable).
    pub fn storage_associated(mut self, yes: bool) -> Self {
        self.safety.storage_associated = yes;
        self
    }

    /// Marks the array as passed to a procedure (not intra-paddable).
    pub fn passed_as_parameter(mut self, yes: bool) -> Self {
        self.safety.passed_as_parameter = yes;
        self
    }

    /// Marks the array as trapped in a non-splittable common block
    /// (not paddable at all).
    pub fn fixed_common_block(mut self, yes: bool) -> Self {
        self.safety.fixed_common_block = yes;
        self
    }

    pub(crate) fn finish(self) -> Result<ArraySpec, IrError> {
        ArraySpec::from_parts(self.name, self.dims, self.elem_size, self.safety)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(dims: &[i64]) -> ArraySpec {
        ArraySpec::from_parts(
            "A".into(),
            dims.iter().copied().map(Dim::new).collect(),
            8,
            Safety::default(),
        )
        .expect("valid spec")
    }

    #[test]
    fn sizes() {
        let a = spec(&[512, 512]);
        assert_eq!(a.column_size(), 512);
        assert_eq!(a.row_size(), 512);
        assert_eq!(a.num_elements(), 512 * 512);
        assert_eq!(a.size_bytes(), 512 * 512 * 8);
    }

    #[test]
    fn one_dimensional_row_size_is_one() {
        assert_eq!(spec(&[100]).row_size(), 1);
    }

    #[test]
    fn empty_shape_rejected() {
        let err = ArraySpec::from_parts("A".into(), vec![], 8, Safety::default());
        assert!(matches!(err, Err(IrError::EmptyShape { .. })));
    }

    #[test]
    fn zero_elem_size_rejected() {
        let err = ArraySpec::from_parts("A".into(), vec![Dim::new(4)], 0, Safety::default());
        assert!(matches!(err, Err(IrError::ZeroElementSize { .. })));
    }

    #[test]
    fn safety_rules() {
        assert!(Safety::safe().can_pad_intra());
        assert!(Safety::safe().can_pad_inter());
        let s = Safety {
            passed_as_parameter: true,
            ..Safety::default()
        };
        assert!(!s.can_pad_intra());
        assert!(s.can_pad_inter());
        let c = Safety {
            fixed_common_block: true,
            ..Safety::default()
        };
        assert!(!c.can_pad_intra());
        assert!(!c.can_pad_inter());
    }

    #[test]
    fn dim_bounds() {
        let d = Dim::with_lower(10, 0);
        assert_eq!(d.upper(), 9);
        assert_eq!(Dim::new(10).upper(), 10);
    }

    #[test]
    fn display_shapes() {
        assert_eq!(spec(&[512, 512]).to_string(), "A(512,512)");
        let b = ArraySpec::from_parts(
            "B".into(),
            vec![Dim::with_lower(10, 0), Dim::new(4)],
            8,
            Safety::default(),
        )
        .expect("valid");
        assert_eq!(b.to_string(), "B(0:9,4)");
    }
}
