//! Data layouts: the output of the padding transformations.

use std::fmt;

use pad_ir::{ArrayId, Dim, Program};

/// A concrete memory layout for a program's arrays: a base address and a
/// (possibly padded) shape per array.
///
/// The padding transformations consume a [`Program`] and produce a
/// `DataLayout`; the trace generator and the native kernels then use the
/// layout's [`DataLayout::address_of`] to turn subscripts into byte
/// addresses. Layouts are column-major, like the Fortran programs the
/// paper optimizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataLayout {
    names: Vec<String>,
    elem_sizes: Vec<u32>,
    base_addrs: Vec<u64>,
    dims: Vec<Vec<Dim>>,
    original_dims: Vec<Vec<Dim>>,
    total_bytes: u64,
}

impl DataLayout {
    /// The layout a straightforward compiler would produce: arrays placed
    /// contiguously in declaration order (aligned to their element size),
    /// no padding anywhere.
    pub fn original(program: &Program) -> Self {
        let dims: Vec<Vec<Dim>> = program.arrays().iter().map(|a| a.dims().to_vec()).collect();
        DataLayout::with_dims(program, dims)
    }

    /// A layout with the given (possibly padded) per-array shapes and
    /// sequential base addresses. Used by the intra-variable phase before
    /// inter-variable placement runs.
    ///
    /// # Panics
    ///
    /// Panics if `dims` does not have exactly one shape per program array,
    /// or changes an array's rank.
    pub fn with_dims(program: &Program, dims: Vec<Vec<Dim>>) -> Self {
        assert_eq!(
            dims.len(),
            program.arrays().len(),
            "one shape per array required"
        );
        for (spec, shape) in program.arrays().iter().zip(&dims) {
            assert_eq!(
                spec.rank(),
                shape.len(),
                "array {} changed rank",
                spec.name()
            );
        }
        let mut layout = DataLayout {
            names: program
                .arrays()
                .iter()
                .map(|a| a.name().to_string())
                .collect(),
            elem_sizes: program.arrays().iter().map(|a| a.elem_size()).collect(),
            base_addrs: vec![0; program.arrays().len()],
            original_dims: program.arrays().iter().map(|a| a.dims().to_vec()).collect(),
            dims,
            total_bytes: 0,
        };
        layout.assign_sequential_bases();
        layout
    }

    /// Recomputes base addresses as a dense sequential packing (aligned to
    /// element sizes) of the current shapes. Invoke after [`pad_dim`]
    /// changes sizes; the padding pipelines do this automatically between
    /// their intra- and inter-variable phases.
    ///
    /// [`pad_dim`]: DataLayout::pad_dim
    pub fn assign_sequential_bases(&mut self) {
        let mut addr = 0u64;
        for i in 0..self.base_addrs.len() {
            addr = align_up(addr, u64::from(self.elem_sizes[i]));
            self.base_addrs[i] = addr;
            addr += self.array_bytes(ArrayId::from_index(i));
        }
        self.total_bytes = addr;
    }

    /// Moves one array to an explicit base address (manual inter-variable
    /// padding). The caller is responsible for keeping arrays disjoint;
    /// verify with [`DataLayout::check_no_overlap`].
    pub fn set_base_addr(&mut self, id: ArrayId, base: u64) {
        self.base_addrs[id.index()] = base;
        let end = base + self.array_bytes(id);
        self.total_bytes = self.total_bytes.max(end);
    }

    pub(crate) fn set_total_bytes(&mut self, total: u64) {
        self.total_bytes = total;
    }

    /// Grows dimension `dim` of an array by `elements` (manual
    /// intra-variable padding). Base addresses become stale; call
    /// [`DataLayout::assign_sequential_bases`] (or place arrays manually)
    /// afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range or the dimension would become
    /// empty.
    pub fn pad_dim(&mut self, id: ArrayId, dim: usize, elements: i64) {
        let d = &mut self.dims[id.index()][dim];
        d.size += elements;
        assert!(
            d.size >= 1,
            "padding left dimension {dim} of {} empty",
            self.names[id.index()]
        );
    }

    pub(crate) fn restore_original_dims(&mut self, id: ArrayId) {
        self.dims[id.index()] = self.original_dims[id.index()].clone();
    }

    /// The number of arrays in the layout.
    pub fn len(&self) -> usize {
        self.base_addrs.len()
    }

    /// True when the layout holds no arrays.
    pub fn is_empty(&self) -> bool {
        self.base_addrs.is_empty()
    }

    /// The array's base address in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (all accessors do).
    pub fn base_addr(&self, id: ArrayId) -> u64 {
        self.base_addrs[id.index()]
    }

    /// Every array's base address, in declaration order.
    pub(crate) fn base_addrs(&self) -> &[u64] {
        &self.base_addrs
    }

    /// The array's current (possibly padded) shape.
    pub fn dims(&self, id: ArrayId) -> &[Dim] {
        &self.dims[id.index()]
    }

    /// The array's shape before padding.
    pub fn original_dims(&self, id: ArrayId) -> &[Dim] {
        &self.original_dims[id.index()]
    }

    /// The array's element size in bytes.
    pub fn elem_size(&self, id: ArrayId) -> u32 {
        self.elem_sizes[id.index()]
    }

    /// The array's current column size (first-dimension extent), in
    /// elements.
    pub fn column_size(&self, id: ArrayId) -> i64 {
        self.dims[id.index()][0].size
    }

    /// Current total size of the array in bytes.
    pub fn array_bytes(&self, id: ArrayId) -> u64 {
        let elems: i64 = self.dims[id.index()].iter().map(|d| d.size).product();
        elems as u64 * u64::from(self.elem_sizes[id.index()])
    }

    /// Total elements added to the array by intra-variable padding, summed
    /// over dimensions (the per-dimension size increases, *not* the change
    /// in element count).
    pub fn intra_pad_elements(&self, id: ArrayId) -> i64 {
        self.dims[id.index()]
            .iter()
            .zip(&self.original_dims[id.index()])
            .map(|(new, old)| new.size - old.size)
            .sum()
    }

    /// Byte strides per dimension (column-major): `strides[0]` is the
    /// element size, `strides[j]` the distance between consecutive
    /// subscripts in dimension `j`.
    pub fn strides_bytes(&self, id: ArrayId) -> Vec<i64> {
        let dims = &self.dims[id.index()];
        let mut strides = Vec::with_capacity(dims.len());
        let mut stride = i64::from(self.elem_sizes[id.index()]);
        for d in dims {
            strides.push(stride);
            stride *= d.size;
        }
        strides
    }

    /// The byte address of `array(indices...)` under this layout.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if a subscript is outside the array's
    /// declared (padded) bounds.
    pub fn address_of(&self, id: ArrayId, indices: &[i64]) -> u64 {
        let dims = &self.dims[id.index()];
        debug_assert_eq!(indices.len(), dims.len());
        let mut offset_elems = 0i64;
        let mut stride = 1i64;
        for (idx, d) in indices.iter().zip(dims) {
            debug_assert!(
                *idx >= d.lower && *idx <= d.upper(),
                "subscript {idx} out of bounds [{}, {}] for {}",
                d.lower,
                d.upper(),
                self.names[id.index()]
            );
            offset_elems += (idx - d.lower) * stride;
            stride *= d.size;
        }
        self.base_addrs[id.index()] + offset_elems as u64 * u64::from(self.elem_sizes[id.index()])
    }

    /// Bytes from address 0 to the end of the last array, including all
    /// inter-variable gaps.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Verifies that no two arrays overlap. The padding heuristics only
    /// ever move arrays apart, so this should always hold; it is checked
    /// by the property tests.
    pub fn check_no_overlap(&self) -> bool {
        let mut spans: Vec<(u64, u64)> = (0..self.len())
            .map(|i| {
                let id = ArrayId::from_index(i);
                (
                    self.base_addr(id),
                    self.base_addr(id) + self.array_bytes(id),
                )
            })
            .collect();
        spans.sort_unstable();
        spans.windows(2).all(|w| w[0].1 <= w[1].0)
    }

    /// Name of the array (for reporting).
    pub fn name(&self, id: ArrayId) -> &str {
        &self.names[id.index()]
    }

    /// Renders an ASCII map of the cache: `width` cells covering the
    /// `cs`-byte cache, each showing which array's footprint lands there
    /// (by first letter), `#` where several arrays overlap on the cache,
    /// and `.` for untouched regions. Arrays larger than the cache cover
    /// it entirely, so the map is most informative for base-address
    /// placement of smaller variables — and for seeing that conforming
    /// arrays' *starting* offsets (shown as uppercase anchors) are spread
    /// out after padding.
    ///
    /// # Panics
    ///
    /// Panics if `cs` or `width` is zero.
    pub fn cache_footprint(&self, cs: u64, width: usize) -> String {
        assert!(cs > 0, "cache size must be nonzero");
        assert!(width > 0, "map width must be nonzero");
        let mut cells: Vec<char> = vec!['.'; width];
        let cell_bytes = cs.div_ceil(width as u64);
        let mut mark = |offset: u64, c: char, force: bool| {
            let cell = ((offset % cs) / cell_bytes) as usize % width;
            cells[cell] = match cells[cell] {
                '.' => c,
                prev if prev == c => c,
                _ if force => c,
                _ => '#',
            };
        };
        for i in 0..self.len() {
            let id = ArrayId::from_index(i);
            let letter = self.names[i]
                .chars()
                .next()
                .unwrap_or('?')
                .to_ascii_lowercase();
            let base = self.base_addr(id);
            let bytes = self.array_bytes(id).min(cs);
            let mut covered = 0;
            while covered < bytes {
                mark(base + covered, letter, false);
                covered += cell_bytes;
            }
        }
        // Anchors on top, uppercase, overriding coverage marks.
        for i in 0..self.len() {
            let id = ArrayId::from_index(i);
            let letter = self.names[i]
                .chars()
                .next()
                .unwrap_or('?')
                .to_ascii_uppercase();
            mark(self.base_addr(id), letter, true);
        }
        let mut out = String::with_capacity(width + 16);
        out.push('|');
        out.extend(cells);
        out.push('|');
        out
    }
}

impl fmt::Display for DataLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "layout ({} bytes):", self.total_bytes)?;
        for i in 0..self.len() {
            let id = ArrayId::from_index(i);
            let shape: Vec<String> = self.dims(id).iter().map(|d| d.size.to_string()).collect();
            writeln!(
                f,
                "  {:<12} @ {:>10}  ({})  {} bytes",
                self.names[i],
                self.base_addr(id),
                shape.join("x"),
                self.array_bytes(id)
            )?;
        }
        Ok(())
    }
}

pub(crate) fn align_up(addr: u64, align: u64) -> u64 {
    debug_assert!(align > 0);
    addr.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_ir::{ArrayBuilder, Loop, Stmt, Subscript};

    fn program() -> (Program, ArrayId, ArrayId) {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [4, 3]));
        let c = b.add_array(ArrayBuilder::new("C", [10]).elem_size(4));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 3),
            vec![Stmt::refs(vec![
                a.at([Subscript::var("i"), Subscript::constant(1)])
            ])],
        ));
        (b.build().expect("valid"), a, c)
    }

    #[test]
    fn original_layout_is_sequential() {
        let (p, a, c) = program();
        let l = DataLayout::original(&p);
        assert_eq!(l.base_addr(a), 0);
        assert_eq!(l.base_addr(c), 4 * 3 * 8);
        assert_eq!(l.total_bytes(), 4 * 3 * 8 + 10 * 4);
        assert!(l.check_no_overlap());
    }

    #[test]
    fn column_major_addressing() {
        let (p, a, _) = program();
        let l = DataLayout::original(&p);
        // A(1,1) at base; A(2,1) one element later; A(1,2) one column later.
        assert_eq!(l.address_of(a, &[1, 1]), 0);
        assert_eq!(l.address_of(a, &[2, 1]), 8);
        assert_eq!(l.address_of(a, &[1, 2]), 4 * 8);
        assert_eq!(l.address_of(a, &[4, 3]), (3 + 2 * 4) * 8);
    }

    #[test]
    fn padding_changes_strides() {
        let (p, a, c) = program();
        let mut l = DataLayout::original(&p);
        l.pad_dim(a, 0, 2); // column 4 -> 6
        l.assign_sequential_bases();
        assert_eq!(l.address_of(a, &[1, 2]), 6 * 8);
        assert_eq!(l.base_addr(c), 6 * 3 * 8);
        assert_eq!(l.intra_pad_elements(a), 2);
        assert_eq!(l.strides_bytes(a), vec![8, 48]);
    }

    #[test]
    fn restore_original_dims_undoes_padding() {
        let (p, a, _) = program();
        let mut l = DataLayout::original(&p);
        l.pad_dim(a, 0, 5);
        l.restore_original_dims(a);
        assert_eq!(l.dims(a), l.original_dims(a));
        assert_eq!(l.intra_pad_elements(a), 0);
    }

    #[test]
    fn inter_gap_counts_in_total_not_occupied() {
        let (p, a, c) = program();
        let mut l = DataLayout::original(&p);
        let occupied = |l: &DataLayout| l.array_bytes(a) + l.array_bytes(c);
        let before = occupied(&l);
        l.set_base_addr(c, l.base_addr(c) + 64);
        assert_eq!(occupied(&l), before);
        assert_eq!(l.total_bytes(), before + 64);
        assert!(l.check_no_overlap());
    }

    #[test]
    fn overlap_detected() {
        let (p, _, c) = program();
        let mut l = DataLayout::original(&p);
        l.set_base_addr(c, 0);
        assert!(!l.check_no_overlap());
    }

    #[test]
    fn lower_bounds_respected() {
        let mut b = Program::builder("lb");
        let a = b.add_array(ArrayBuilder::new("A", [8]).dims([Dim::with_lower(8, 0)]));
        let p = b.build().expect("valid");
        let l = DataLayout::original(&p);
        assert_eq!(l.address_of(a, &[0]), 0);
        assert_eq!(l.address_of(a, &[7]), 56);
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 4), 12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_subscript_panics_in_debug() {
        let (p, a, _) = program();
        let l = DataLayout::original(&p);
        let _ = l.address_of(a, &[5, 1]);
    }

    #[test]
    fn cache_footprint_shows_anchors_and_overlap() {
        let mut b = Program::builder("fp");
        let x = b.add_array(ArrayBuilder::new("X", [64]).elem_size(1));
        let y = b.add_array(ArrayBuilder::new("Y", [64]).elem_size(1));
        let p = b.build().expect("valid");
        let mut l = DataLayout::original(&p);

        // Both arrays at the same cache offset: overlap everywhere except
        // the anchors.
        l.set_base_addr(x, 0);
        l.set_base_addr(y, 128); // == 0 mod 128
        let map = l.cache_footprint(128, 32);
        assert!(map.starts_with('|') && map.ends_with('|'));
        assert!(map.contains('Y'), "later anchor wins the cell: {map}");
        assert!(map.contains('#'), "bodies overlap: {map}");

        // Separated: distinct letters, no overlap marks.
        l.set_base_addr(y, 192); // 64 mod 128
        let map = l.cache_footprint(128, 32);
        assert!(map.contains('x') || map.contains('X'), "{map}");
        assert!(map.contains('y') || map.contains('Y'), "{map}");
        assert!(!map.contains('#'), "{map}");
    }
}
