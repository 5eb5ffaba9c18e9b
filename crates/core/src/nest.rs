//! The compiled form of a program's loop nests.
//!
//! The paper finds every conflict from one quantity: a reference's
//! subscripts linearized into a byte offset (Section 2.1.2, Expression 1).
//! [`Nest::compile`] resolves loop variables to slots once and keeps that
//! quantity's layout-independent half: affine loop bounds over slots, and
//! every reference as per-dimension rows — the subscript's constant, then
//! one coefficient per enclosing-loop slot. [`Nest::bind`] adds a
//! layout's strides. The PAD/PADLITE heuristics, [`crate::MissModel`] and
//! the compiled trace walker all read the bound form;
//! [`crate::reference::linearize`] is its name-keyed oracle.

use std::ops::Range;

use pad_ir::{AccessKind, AffineExpr, ArrayId, ArrayRef, Dim, IndexVar, Program, Stmt};

use crate::layout::DataLayout;

/// An affine expression over loop slots: `constant + Σ coeff · slot`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotExpr {
    /// The constant term.
    pub constant: i64,
    /// `(slot, coefficient)` terms.
    pub terms: Vec<(usize, i64)>,
}

impl SlotExpr {
    /// The value with loop slot `s` holding `slots[s]`.
    #[inline]
    pub fn eval(&self, slots: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(slot, coeff) in &self.terms {
            acc += coeff * slots[slot];
        }
        acc
    }
}

/// One statement of a loop body or of the program's top level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestItem {
    /// A loop, indexing [`Nest::loops`].
    Loop(usize),
    /// A reference, indexing [`Nest::refs`].
    Ref(usize),
}

/// One loop of a [`Nest`].
#[derive(Debug, Clone)]
pub struct NestLoop {
    /// The loop's slot, which is its depth (0 for an outermost loop).
    pub slot: usize,
    /// The lower bound, its terms in the source expression's order.
    pub lower: SlotExpr,
    /// The upper bound, likewise.
    pub upper: SlotExpr,
    /// The (nonzero) step.
    pub step: i64,
    /// The body, in program order.
    pub body: Vec<NestItem>,
    /// The references directly in the body, which execute together on
    /// every iteration: a range of [`Nest::refs`] in program order.
    pub refs: Range<usize>,
}

/// One array reference of a [`Nest`].
#[derive(Debug, Clone, Copy)]
pub struct NestRef {
    /// The referenced array.
    pub array: ArrayId,
    /// True for a store.
    pub is_write: bool,
    /// Enclosing loops: the reference reads slots `0..depth`.
    pub depth: usize,
    /// Start of its rows in `Nest::rows`, `1 + depth` per dimension.
    rows: usize,
    /// Start of its bound form in `Nest::lin`, `1 + depth` long.
    lin: usize,
}

/// A program's loop nests compiled over slots, bound to the layout of
/// the last [`Nest::bind`] (offsets and coefficients read zero before).
#[derive(Debug, Clone, Default)]
pub struct Nest {
    /// In pre-order.
    loops: Vec<NestLoop>,
    roots: Vec<NestItem>,
    refs: Vec<NestRef>,
    rows: Vec<i64>,
    /// Array `a`'s dimensions are `dim_start[a]..dim_start[a + 1]` of
    /// `strides`.
    dim_start: Vec<usize>,
    /// Array `a`'s references are `by_array[ref_start[a]..ref_start[a + 1]]`.
    ref_start: Vec<usize>,
    by_array: Vec<usize>,
    strides: Vec<i64>,
    /// Per reference: byte offset from its array's base, then one byte
    /// coefficient per slot.
    lin: Vec<i64>,
}

impl Nest {
    /// Compiles `program`'s loop nests.
    ///
    /// # Panics
    ///
    /// Panics if a subscript or bound reads a variable no enclosing loop
    /// binds (programs are validated at construction, so this indicates a
    /// caller bug).
    pub fn compile(program: &Program) -> Nest {
        let mut dim_start = vec![0];
        for spec in program.arrays() {
            dim_start.push(dim_start[dim_start.len() - 1] + spec.rank());
        }
        let mut nest = Nest {
            strides: vec![0; dim_start[dim_start.len() - 1]],
            dim_start,
            ..Nest::default()
        };
        nest.roots = nest.compile_body(program.body(), &mut Vec::new()).1;
        let arrays = program.arrays().len();
        nest.by_array = (0..nest.refs.len()).collect();
        nest.by_array.sort_by_key(|&r| nest.refs[r].array.index());
        nest.ref_start = (0..=arrays)
            .map(|a| {
                nest.by_array
                    .partition_point(|&r| nest.refs[r].array.index() < a)
            })
            .collect();
        nest
    }

    /// Compiles one loop body (or the top level), numbering its
    /// references before its loops: returns the references' range and the
    /// body.
    fn compile_body<'p>(
        &mut self,
        body: &'p [Stmt],
        scope: &mut Vec<&'p IndexVar>,
    ) -> (Range<usize>, Vec<NestItem>) {
        let first = self.refs.len();
        for stmt in body {
            if let Stmt::Refs(refs) = stmt {
                refs.iter().for_each(|r| self.push_ref(r, scope));
            }
        }
        let direct = first..self.refs.len();
        let mut numbered = direct.clone();
        let mut items = Vec::new();
        for stmt in body {
            match stmt {
                Stmt::Refs(refs) => {
                    items.extend(numbered.by_ref().take(refs.len()).map(NestItem::Ref))
                }
                Stmt::Loop { header, body } => {
                    let index = self.loops.len();
                    self.loops.push(NestLoop {
                        slot: scope.len(),
                        lower: resolve(header.lower(), scope),
                        upper: resolve(header.upper(), scope),
                        step: header.step(),
                        body: Vec::new(),
                        refs: 0..0,
                    });
                    scope.push(header.var());
                    (self.loops[index].refs, self.loops[index].body) =
                        self.compile_body(body, scope);
                    scope.pop();
                    items.push(NestItem::Loop(index));
                }
            }
        }
        (direct, items)
    }

    fn push_ref(&mut self, r: &ArrayRef, scope: &[&IndexVar]) {
        let (depth, rows) = (scope.len(), self.rows.len());
        for sub in r.subscripts() {
            let row = self.rows.len();
            self.rows.push(sub.offset());
            self.rows.resize(row + 1 + depth, 0);
            for (var, coeff) in sub.terms() {
                self.rows[row + 1 + slot_of(var, scope)] += coeff;
            }
        }
        let is_write = r.kind() == AccessKind::Write;
        let lin = self.lin.len();
        self.refs.push(NestRef {
            array: r.array(),
            is_write,
            depth,
            rows,
            lin,
        });
        self.lin.resize(lin + 1 + depth, 0);
    }

    /// Binds the nest to `layout`, a layout of the compiled program:
    /// column-major byte strides and lower bounds, folded into every
    /// reference's offset and slot coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `layout` disagrees with the compiled program on the
    /// number of arrays or an array's rank.
    pub fn bind(&mut self, layout: &DataLayout) {
        assert_eq!(
            layout.len() + 1,
            self.dim_start.len(),
            "layout and compiled program disagree on the array count"
        );
        for a in 0..layout.len() {
            let id = ArrayId::from_index(a);
            self.bind_array(id, layout.elem_size(id), layout.dims(id));
        }
    }

    /// Binds one array's shape: `dims` (lower bounds and sizes) of
    /// `elem_size`-byte elements, folded into the strides and into the
    /// offset and coefficients of every reference to the array. The other
    /// arrays keep their binding.
    ///
    /// # Panics
    ///
    /// Panics if `dims` changes the array's rank.
    pub(crate) fn bind_array(&mut self, array: ArrayId, elem_size: u32, dims: &[Dim]) {
        let a = array.index();
        let span = self.dim_start[a]..self.dim_start[a + 1];
        assert_eq!(dims.len(), span.len(), "layout changed an array's rank");
        let mut stride = i64::from(elem_size);
        for (d, dim) in span.zip(dims) {
            self.strides[d] = stride;
            stride *= dim.size;
        }
        let strides = &self.strides[self.dim_start[a]..self.dim_start[a + 1]];
        for &r in &self.by_array[self.ref_start[a]..self.ref_start[a + 1]] {
            let r = &self.refs[r];
            let cols = 1 + r.depth;
            let rows = &self.rows[r.rows..r.rows + dims.len() * cols];
            let out = &mut self.lin[r.lin..r.lin + cols];
            out.fill(0);
            for ((dim, &stride), row) in dims.iter().zip(strides).zip(rows.chunks_exact(cols)) {
                out[0] += (row[0] - dim.lower) * stride;
                for (c, &k) in out[1..].iter_mut().zip(&row[1..]) {
                    *c += k * stride;
                }
            }
        }
    }

    /// Every loop, in pre-order.
    pub fn loops(&self) -> &[NestLoop] {
        &self.loops
    }

    /// The program's top-level statements.
    pub fn roots(&self) -> &[NestItem] {
        &self.roots
    }

    /// Every reference; a loop's direct references are numbered together.
    pub fn refs(&self) -> &[NestRef] {
        &self.refs
    }

    /// The loops that directly hold references, in pre-order: the groups
    /// `Program::ref_groups` makes, in the same order.
    pub fn groups(&self) -> impl Iterator<Item = &NestLoop> {
        self.loops.iter().filter(|l| !l.refs.is_empty())
    }

    /// Reference `r`'s byte offset from its array's base.
    pub fn offset(&self, r: usize) -> i64 {
        self.lin[self.refs[r].lin]
    }

    /// Reference `r`'s byte coefficient per slot, outermost first; a slot
    /// whose variable an inner loop rebinds reads zero.
    pub fn coeffs(&self, r: usize) -> &[i64] {
        let x = &self.refs[r];
        &self.lin[x.lin + 1..x.lin + 1 + x.depth]
    }

    /// The references to `array`, in program order.
    pub(crate) fn array_refs(&self, array: ArrayId) -> &[usize] {
        &self.by_array[self.ref_start[array.index()]..self.ref_start[array.index() + 1]]
    }

    /// `array`'s byte stride per dimension.
    pub fn strides(&self, array: ArrayId) -> &[i64] {
        &self.strides[self.dim_start[array.index()]..self.dim_start[array.index() + 1]]
    }
}

/// The slot of `var` in `scope`: the innermost binding wins.
fn slot_of(var: &IndexVar, scope: &[&IndexVar]) -> usize {
    scope
        .iter()
        .rposition(|v| *v == var)
        .expect("validated programs bind every variable")
}

fn resolve(expr: &AffineExpr, scope: &[&IndexVar]) -> SlotExpr {
    let terms = expr.terms().iter();
    SlotExpr {
        constant: expr.offset(),
        terms: terms.map(|(var, c)| (slot_of(var, scope), *c)).collect(),
    }
}
