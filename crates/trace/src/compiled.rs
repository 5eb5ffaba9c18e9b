//! Compiled trace generation.
//!
//! [`crate::for_each_access`] interprets the IR directly: every subscript
//! evaluation walks a name-keyed environment. For the experiment harness —
//! billions of accesses across the figure sweeps — that overhead
//! dominates. This module *compiles* a program × layout pair once:
//! loop variables become integer slots, subscripts become pre-linearized
//! `base + Σ coeff·slot` forms (folding in element sizes, lower bounds,
//! and the layout's base addresses), and the walk touches no strings or
//! maps. The compiled walker is verified access-for-access against the
//! interpreter by `equivalence` tests and property tests.

use pad_cache_sim::Access;
use pad_core::DataLayout;
use pad_ir::{AccessKind, AffineExpr, IndexVar, Program, Stmt};

/// A pre-resolved affine expression over loop slots.
#[derive(Debug, Clone)]
struct SlotExpr {
    constant: i64,
    terms: Vec<(usize, i64)>,
}

impl SlotExpr {
    fn eval(&self, slots: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(slot, coeff) in &self.terms {
            acc += coeff * slots[slot];
        }
        acc
    }
}

#[derive(Debug, Clone)]
enum Node {
    Loop {
        slot: usize,
        lower: SlotExpr,
        upper: SlotExpr,
        step: i64,
        body: Vec<Node>,
    },
    /// An innermost loop whose body is straight-line references — the
    /// shape every kernel's hot loop takes. Instead of re-evaluating each
    /// subscript's full `base + Σ coeff·slot` form per iteration, the
    /// walk evaluates each reference's address once at the first
    /// iteration and then advances it by the constant per-iteration
    /// `delta = coeff(slot) · step`, so the steady state is one add per
    /// reference per iteration.
    InnerLoop {
        slot: usize,
        lower: SlotExpr,
        upper: SlotExpr,
        step: i64,
        refs: Vec<InnerRef>,
    },
    Ref {
        addr: SlotExpr,
        is_write: bool,
    },
}

/// One reference inside an [`Node::InnerLoop`] body.
#[derive(Debug, Clone)]
struct InnerRef {
    addr: SlotExpr,
    /// Address advance per loop iteration: the address expression's
    /// coefficient on the loop's own slot times the loop step.
    delta: i64,
    is_write: bool,
}

/// A program × layout pair compiled for fast trace generation.
///
/// # Example
///
/// ```
/// use pad_core::DataLayout;
/// use pad_trace::CompiledTrace;
///
/// let program = pad_kernels::jacobi::spec(16);
/// let layout = DataLayout::original(&program);
/// let compiled = CompiledTrace::compile(&program, &layout);
/// assert_eq!(compiled.count(), pad_trace::count_accesses(&program, &layout));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    name: String,
    roots: Vec<Node>,
    num_slots: usize,
}

impl CompiledTrace {
    /// Compiles the program against a layout. The layout is captured by
    /// value of its address parameters; later changes to it do not affect
    /// the compiled trace.
    pub fn compile(program: &Program, layout: &DataLayout) -> Self {
        let mut scope: Vec<IndexVar> = Vec::new();
        let mut num_slots = 0usize;
        let mut roots = Vec::new();
        for stmt in program.body() {
            match stmt {
                Stmt::Refs(refs) => {
                    // Top-level straight-line accesses (rare but legal).
                    for r in refs {
                        roots.push(compile_ref(r, layout, &scope));
                    }
                }
                nested @ Stmt::Loop { .. } => {
                    roots.push(compile_stmt(nested, layout, &mut scope, &mut num_slots));
                }
            }
        }
        CompiledTrace {
            name: program.name().to_string(),
            roots,
            num_slots,
        }
    }

    /// The source program's name (labels telemetry spans for this trace).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Invokes `f` for every access, in program order — the compiled
    /// equivalent of [`crate::for_each_access`].
    pub fn for_each(&self, mut f: impl FnMut(Access)) {
        let mut slots = vec![0i64; self.num_slots];
        for node in &self.roots {
            walk(node, &mut slots, &mut f);
        }
    }

    /// Counts the accesses the compiled program performs, without
    /// walking them: an innermost loop adds trips × references, and a loop
    /// whose nested bounds do not read its own variable counts its body
    /// once and multiplies. A loop whose body is one loop with bounds
    /// affine in the outer variable — a triangular nest — sums the inner
    /// trip counts in closed form. Only deeper dependent nests (LU's
    /// `k`/`i`/`j`) iterate the outer loop. Saturates at `u64::MAX`.
    pub fn count(&self) -> u64 {
        self.count_within(u64::MAX).unwrap_or(u64::MAX)
    }

    /// [`CompiledTrace::count`], iterating at most `max_trips` outer-loop
    /// trips in total: `None` when counting would iterate more. Pricing
    /// paths use this to bound their own cost on nests that cannot be
    /// counted in closed form.
    pub fn count_within(&self, max_trips: u64) -> Option<u64> {
        let mut slots = vec![0i64; self.num_slots];
        let mut trips_left = max_trips;
        count_nodes(&self.roots, &mut slots, &mut trips_left)
    }

    /// Invokes `f` with consecutive chunks of the access stream, filling
    /// (and reusing) `buf` up to `chunk` accesses at a time. Concatenated,
    /// the chunks are exactly the [`CompiledTrace::for_each`] stream.
    ///
    /// This is the batched engine's generation primitive: emitting into a
    /// contiguous buffer once and handing slices to each simulation sink
    /// amortizes per-access dispatch across every cache configuration
    /// that consumes the trace. The buffer is caller-owned so sweeps can
    /// reuse one allocation across many kernels.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn for_each_chunk(
        &self,
        chunk: usize,
        buf: &mut Vec<Access>,
        mut f: impl FnMut(&[Access]),
    ) {
        assert!(chunk > 0, "chunk size must be positive");
        buf.clear();
        if buf.capacity() < chunk {
            // A chunk may be far longer than the trace: reserve no more
            // than the trace holds.
            let len = usize::try_from(self.count()).unwrap_or(usize::MAX);
            buf.reserve(chunk.min(len));
        }
        {
            let f = &mut f;
            let buf = &mut *buf;
            self.for_each(move |a| {
                buf.push(a);
                if buf.len() == chunk {
                    f(buf);
                    buf.clear();
                }
            });
        }
        if !buf.is_empty() {
            f(buf);
            buf.clear();
        }
    }
}

fn resolve(expr: &AffineExpr, scope: &[IndexVar], scale: i64, constant: i64) -> SlotExpr {
    let mut out = SlotExpr {
        constant: constant + expr.offset() * scale,
        terms: Vec::new(),
    };
    for (var, coeff) in expr.terms() {
        // Innermost binding wins, mirroring the interpreter's scoping.
        let slot = scope
            .iter()
            .rposition(|v| v == var)
            .expect("validated programs bind every variable");
        out.terms.push((slot, coeff * scale));
    }
    out
}

fn compile_stmt(
    stmt: &Stmt,
    layout: &DataLayout,
    scope: &mut Vec<IndexVar>,
    num_slots: &mut usize,
) -> Node {
    match stmt {
        Stmt::Refs(_) => unreachable!("refs are flattened by the Loop arm"),
        Stmt::Loop { header, body } => {
            let lower = resolve(header.lower(), scope, 1, 0);
            let upper = resolve(header.upper(), scope, 1, 0);
            let slot = scope.len();
            *num_slots = (*num_slots).max(slot + 1);
            scope.push(header.var().clone());
            let mut children = Vec::new();
            for s in body {
                match s {
                    Stmt::Refs(refs) => {
                        for r in refs {
                            children.push(compile_ref(r, layout, scope));
                        }
                    }
                    nested @ Stmt::Loop { .. } => {
                        children.push(compile_stmt(nested, layout, scope, num_slots));
                    }
                }
            }
            scope.pop();
            let step = header.step();
            // Innermost all-reference bodies get the incremental form:
            // per-iteration address deltas replace full re-evaluation.
            if !children.is_empty() && children.iter().all(|c| matches!(c, Node::Ref { .. })) {
                let refs = children
                    .into_iter()
                    .map(|c| match c {
                        Node::Ref { addr, is_write } => {
                            let delta = addr
                                .terms
                                .iter()
                                .find(|&&(s, _)| s == slot)
                                .map_or(0, |&(_, coeff)| coeff * step);
                            InnerRef {
                                addr,
                                delta,
                                is_write,
                            }
                        }
                        Node::Loop { .. } | Node::InnerLoop { .. } => unreachable!(),
                    })
                    .collect();
                return Node::InnerLoop {
                    slot,
                    lower,
                    upper,
                    step,
                    refs,
                };
            }
            Node::Loop {
                slot,
                lower,
                upper,
                step,
                body: children,
            }
        }
    }
}

fn compile_ref(r: &pad_ir::ArrayRef, layout: &DataLayout, scope: &[IndexVar]) -> Node {
    let dims = layout.dims(r.array());
    let elem = i64::from(layout.elem_size(r.array()));
    let mut addr = SlotExpr {
        constant: layout.base_addr(r.array()) as i64,
        terms: Vec::new(),
    };
    let mut stride = elem;
    for (sub, dim) in r.subscripts().iter().zip(dims) {
        let resolved = resolve(sub, scope, stride, 0);
        addr.constant += resolved.constant - dim.lower * stride;
        for term in resolved.terms {
            match addr.terms.iter_mut().find(|(s, _)| *s == term.0) {
                Some((_, c)) => *c += term.1,
                None => addr.terms.push(term),
            }
        }
        stride *= dim.size;
    }
    addr.terms.retain(|&(_, c)| c != 0);
    Node::Ref {
        addr,
        is_write: r.kind() == AccessKind::Write,
    }
}

/// Iterations of a loop from `lo` to `hi` (inclusive) by nonzero `step`,
/// in `u128`: the bounds are `i64` expressions, so the difference must not
/// wrap, and `i64::MIN..=i64::MAX` runs 2^64 times.
fn trips(lo: i64, hi: i64, step: i64) -> u128 {
    debug_assert_ne!(step, 0, "validated loops have nonzero steps");
    let span = if step > 0 {
        i128::from(hi) - i128::from(lo)
    } else {
        i128::from(lo) - i128::from(hi)
    };
    if span < 0 {
        0
    } else {
        span as u128 / u128::from(step.unsigned_abs()) + 1
    }
}

fn saturate(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

fn count_nodes(nodes: &[Node], slots: &mut [i64], trips_left: &mut u64) -> Option<u64> {
    nodes.iter().try_fold(0u64, |n, node| {
        Some(n.saturating_add(count_node(node, slots, trips_left)?))
    })
}

fn count_node(node: &Node, slots: &mut [i64], trips_left: &mut u64) -> Option<u64> {
    match node {
        Node::Ref { .. } => Some(1),
        Node::InnerLoop {
            lower,
            upper,
            step,
            refs,
            ..
        } => Some(
            saturate(trips(lower.eval(slots), upper.eval(slots), *step))
                .saturating_mul(refs.len() as u64),
        ),
        Node::Loop {
            slot,
            lower,
            upper,
            step,
            body,
        } => {
            let lo = lower.eval(slots);
            let n = trips(lo, upper.eval(slots), *step);
            if !body.iter().any(|child| bounds_read(child, *slot)) {
                return Some(count_nodes(body, slots, trips_left)?.saturating_mul(saturate(n)));
            }
            if let [child] = body.as_slice() {
                if let Some(child_trips) = summed_trips(child, *slot, lo, n, *step, slots) {
                    let per_trip = match child {
                        Node::InnerLoop { refs, .. } => refs.len() as u64,
                        Node::Loop { body, .. } => count_nodes(body, slots, trips_left)?,
                        Node::Ref { .. } => unreachable!("summed_trips takes loops only"),
                    };
                    return Some(saturate(child_trips).saturating_mul(per_trip));
                }
            }
            *trips_left = trips_left.checked_sub(u64::try_from(n).ok()?)?;
            let mut total = 0u64;
            let mut value = lo;
            for _ in 0..n {
                slots[*slot] = value;
                total = total.saturating_add(count_nodes(body, slots, trips_left)?);
                value = value.wrapping_add(*step);
            }
            Some(total)
        }
    }
}

/// Total trips of `child` over the `n` iterations of the loop on `slot`
/// (first value `lo`, advancing by `step`), in closed form: the child's
/// bounds are affine in that loop's variable, so its span is affine in
/// the iteration number. `None` when `child` is not a loop whose body
/// count is the same on every trip (its body's bounds read neither
/// loop), or the arithmetic leaves `i128`. Saturates at `u128::MAX`.
fn summed_trips(
    child: &Node,
    slot: usize,
    lo: i64,
    n: u128,
    step: i64,
    slots: &[i64],
) -> Option<u128> {
    let (lower, upper, child_step) = match child {
        Node::InnerLoop {
            lower, upper, step, ..
        } => (lower, upper, *step),
        Node::Loop {
            slot: own,
            lower,
            upper,
            step,
            body,
        } if !body
            .iter()
            .any(|c| bounds_read(c, slot) || bounds_read(c, *own)) =>
        {
            (lower, upper, *step)
        }
        _ => return None,
    };
    let (lc, la) = affine_in(lower, slots, slot)?;
    let (uc, ua) = affine_in(upper, slots, slot)?;
    // The child's span, `hi - lo` (or `lo - hi` for a negative step), is
    // `p + q·v` in the outer variable `v = lo + t·step`.
    let (p, q) = if child_step > 0 {
        (uc.checked_sub(lc)?, ua.checked_sub(la)?)
    } else {
        (lc.checked_sub(uc)?, la.checked_sub(ua)?)
    };
    let a = p.checked_add(q.checked_mul(i128::from(lo))?)?;
    let b = q.checked_mul(i128::from(step))?;
    trip_sum(a, b, n, u128::from(child_step.unsigned_abs()))
}

/// `expr` as `c + a·x` in the variable of loop slot `slot`, the other
/// slots held at their current values: `(c, a)`.
fn affine_in(expr: &SlotExpr, slots: &[i64], slot: usize) -> Option<(i128, i128)> {
    let mut c = i128::from(expr.constant);
    let mut a = 0i128;
    for &(s, coeff) in &expr.terms {
        if s == slot {
            a = a.checked_add(i128::from(coeff))?;
        } else {
            c = c.checked_add(i128::from(coeff) * i128::from(slots[s]))?;
        }
    }
    Some((c, a))
}

/// `Σ_{t<n} trips(t)` for a loop whose span on outer iteration `t` is
/// `a + b·t` and whose step magnitude is `s`: a span below zero runs no
/// trips, otherwise `span / s + 1`. `None` when the arithmetic leaves
/// `i128`; saturates at `u128::MAX`.
fn trip_sum(a: i128, b: i128, n: u128, s: u128) -> Option<u128> {
    if n == 0 {
        return Some(0);
    }
    let last = n - 1;
    // The iterations with a nonnegative span form one interval [t0, t1].
    let (t0, t1) = match (a >= 0, b.signum()) {
        (true, 0 | 1) => (0, last),
        (false, 1) => (a.unsigned_abs().div_ceil(b.unsigned_abs()), last),
        (true, _) => (0, last.min(a.unsigned_abs() / b.unsigned_abs())),
        (false, _) => return Some(0),
    };
    if t0 > t1 {
        return Some(0);
    }
    // Spans across the interval, rising from `start` by `slope`.
    let (start, slope) = if b >= 0 {
        (a.checked_add(b.checked_mul(i128::try_from(t0).ok()?)?)?, b)
    } else {
        (a.checked_add(b.checked_mul(i128::try_from(t1).ok()?)?)?, -b)
    };
    let m = t1 - t0 + 1;
    Some(
        floor_sum(m, s, slope.unsigned_abs(), start.unsigned_abs())
            .and_then(|f| f.checked_add(m))
            .unwrap_or(u128::MAX),
    )
}

/// `Σ_{i<n} ⌊(a·i + b) / m⌋` for `m > 0` by Euclid-like reduction (the
/// classic `floor_sum`); `None` when the sum overflows `u128`. Every
/// partial sum is a lower bound on the total, so overflow means the
/// total does too.
fn floor_sum(mut n: u128, mut m: u128, mut a: u128, mut b: u128) -> Option<u128> {
    let mut sum = 0u128;
    loop {
        if a >= m {
            let pairs = if n.is_multiple_of(2) {
                (n / 2).checked_mul(n.saturating_sub(1))?
            } else {
                n.checked_mul((n - 1) / 2)?
            };
            sum = sum.checked_add(pairs.checked_mul(a / m)?)?;
            a %= m;
        }
        if b >= m {
            sum = sum.checked_add(n.checked_mul(b / m)?)?;
            b %= m;
        }
        // a < m and b < m, so y_max < m·(n + 1).
        let y_max = a.checked_mul(n)?.checked_add(b)?;
        if y_max < m {
            return Some(sum);
        }
        n = y_max / m;
        b = y_max % m;
        std::mem::swap(&mut m, &mut a);
    }
}

/// True if a loop bound inside `node` reads loop slot `slot`.
fn bounds_read(node: &Node, slot: usize) -> bool {
    let reads = |e: &SlotExpr| e.terms.iter().any(|&(s, _)| s == slot);
    match node {
        Node::Ref { .. } => false,
        Node::InnerLoop { lower, upper, .. } => reads(lower) || reads(upper),
        Node::Loop {
            lower, upper, body, ..
        } => reads(lower) || reads(upper) || body.iter().any(|c| bounds_read(c, slot)),
    }
}

fn walk(node: &Node, slots: &mut Vec<i64>, f: &mut impl FnMut(Access)) {
    match node {
        Node::Ref { addr, is_write } => {
            f(Access {
                addr: addr.eval(slots) as u64,
                is_write: *is_write,
            });
        }
        Node::Loop {
            slot,
            lower,
            upper,
            step,
            body,
        } => {
            let lo = lower.eval(slots);
            let hi = upper.eval(slots);
            let mut value = lo;
            loop {
                let in_range = if *step > 0 { value <= hi } else { value >= hi };
                if !in_range {
                    break;
                }
                slots[*slot] = value;
                for child in body {
                    walk(child, slots, f);
                }
                value += step;
            }
        }
        Node::InnerLoop {
            slot,
            lower,
            upper,
            step,
            refs,
        } => {
            let lo = lower.eval(slots);
            let iters = trips(lo, upper.eval(slots), *step);
            if iters == 0 {
                return;
            }
            slots[*slot] = lo;
            match refs.as_slice() {
                // Single-reference bodies (copy/transpose-style inner
                // loops) collapse to a pure strided emit.
                [r] => {
                    let mut addr = r.addr.eval(slots);
                    let is_write = r.is_write;
                    for _ in 0..iters {
                        f(Access {
                            addr: addr as u64,
                            is_write,
                        });
                        addr = addr.wrapping_add(r.delta);
                    }
                }
                _ => {
                    let mut cursors: Vec<(i64, i64, bool)> = refs
                        .iter()
                        .map(|r| (r.addr.eval(slots), r.delta, r.is_write))
                        .collect();
                    for _ in 0..iters {
                        for c in &mut cursors {
                            f(Access {
                                addr: c.0 as u64,
                                is_write: c.2,
                            });
                            c.0 = c.0.wrapping_add(c.1);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::for_each_access;
    use pad_ir::{ArrayBuilder, Loop, Subscript};

    fn interpret(program: &Program, layout: &DataLayout) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        for_each_access(program, layout, |a| out.push((a.addr, a.is_write)));
        out
    }

    fn compiled(program: &Program, layout: &DataLayout) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        CompiledTrace::compile(program, layout).for_each(|a| out.push((a.addr, a.is_write)));
        out
    }

    #[test]
    fn matches_interpreter_on_every_suite_kernel() {
        for k in pad_kernels::suite() {
            let n = k.default_n.clamp(8, 16);
            let p = (k.spec)(n);
            for layout in [
                DataLayout::original(&p),
                pad_core::Pad::new(pad_core::PaddingConfig::new(1024, 32).expect("valid"))
                    .run(&p)
                    .layout,
            ] {
                assert_eq!(
                    interpret(&p, &layout),
                    compiled(&p, &layout),
                    "{} diverges",
                    k.name
                );
            }
        }
    }

    #[test]
    fn handles_shadowed_names_and_negative_steps() {
        let mut b = Program::builder("tricky");
        let a = b.add_array(ArrayBuilder::new("A", [8]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::with_step("i", 8, 1, -2),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 2),
            vec![Stmt::loop_(
                Loop::new("j", Subscript::var("i"), 4),
                vec![Stmt::refs(vec![a.at([Subscript::var("j")])])],
            )],
        ));
        let p = b.build().expect("valid");
        let layout = DataLayout::original(&p);
        assert_eq!(interpret(&p, &layout), compiled(&p, &layout));
    }

    fn assert_count_matches_interpreter(p: &Program, layout: &DataLayout) {
        assert_eq!(
            CompiledTrace::compile(p, layout).count(),
            crate::count_accesses(p, layout),
            "{}",
            p.name()
        );
    }

    #[test]
    fn count_matches_interpreter_on_every_suite_kernel() {
        for k in pad_kernels::suite() {
            let small = k.default_n.clamp(8, 16);
            for n in [small, small + 7] {
                let p = (k.spec)(n);
                let pad =
                    pad_core::Pad::new(pad_core::PaddingConfig::new(1024, 32).expect("valid"));
                assert_count_matches_interpreter(&p, &DataLayout::original(&p));
                assert_count_matches_interpreter(&p, &pad.run(&p).layout);
            }
        }
    }

    #[test]
    fn count_matches_interpreter_on_irregular_loops() {
        let i = || Subscript::var("i");
        let j = || Subscript::var("j");
        let k = || Subscript::var("k");
        let plus = |v: &str, c: i64| Subscript::from_terms([(pad_ir::IndexVar::new(v), 1)], c);
        let mut b = Program::builder("irregular");
        let a = b.add_array(ArrayBuilder::new("A", [64]).elem_size(8));
        let refs = |subs: Vec<Subscript>| Stmt::refs(subs.into_iter().map(|s| a.at([s])).collect());
        // Triangular: do i = 1, 9; do j = i, 9.
        b.push(Stmt::loop_(
            Loop::new("i", 1, 9),
            vec![Stmt::loop_(
                Loop::new("j", i(), 9),
                vec![refs(vec![j(), i()])],
            )],
        ));
        // Three-deep LU shape: do k; do i = k+1, n; do j = k+1, n —
        // the middle loop multiplies, the outer one iterates.
        b.push(Stmt::loop_(
            Loop::new("k", 1, 12),
            vec![Stmt::loop_(
                Loop::new("i", plus("k", 1), 12),
                vec![
                    refs(vec![i()]),
                    Stmt::loop_(Loop::new("j", plus("k", 1), 12), vec![refs(vec![j()])]),
                ],
            )],
        ));
        // A bound reading a grandparent: do i; do j = 1, 3; do k = 1, i.
        b.push(Stmt::loop_(
            Loop::new("i", 1, 6),
            vec![Stmt::loop_(
                Loop::new("j", 1, 3),
                vec![Stmt::loop_(Loop::new("k", 1, i()), vec![refs(vec![k()])])],
            )],
        ));
        // Negative steps, steps that do not divide the span, and a
        // negative-step triangle.
        b.push(Stmt::loop_(
            Loop::with_step("i", 9, 1, -2),
            vec![refs(vec![i()])],
        ));
        b.push(Stmt::loop_(
            Loop::with_step("i", 1, 10, 3),
            vec![refs(vec![i()])],
        ));
        b.push(Stmt::loop_(
            Loop::with_step("i", 10, 1, -3),
            vec![Stmt::loop_(
                Loop::with_step("j", 10, i(), -1),
                vec![refs(vec![j()])],
            )],
        ));
        // Empty ranges: outer, inner, and one inner range empty only for
        // some outer iterations.
        b.push(Stmt::loop_(
            Loop::new("i", 5, 1),
            vec![Stmt::loop_(Loop::new("j", 1, 4), vec![refs(vec![j()])])],
        ));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 4),
            vec![Stmt::loop_(Loop::new("j", 3, 2), vec![refs(vec![j()])])],
        ));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 8),
            vec![Stmt::loop_(Loop::new("j", 5, i()), vec![refs(vec![j()])])],
        ));
        // Shadowed names: `i` rebound at another depth by a sibling nest.
        b.push(Stmt::loop_(
            Loop::new("j", 1, 3),
            vec![Stmt::loop_(
                Loop::new("i", j(), 4),
                vec![refs(vec![i(), j()])],
            )],
        ));
        b.push(refs(vec![Subscript::constant(1)]));
        let p = b.build().expect("valid");
        assert_count_matches_interpreter(&p, &DataLayout::original(&p));
    }

    #[test]
    fn count_saturates_and_skips_invariant_iteration() {
        // 10^12 × 10^12 × 2 accesses: counted in closed form, saturated.
        let mut b = Program::builder("huge");
        let a = b.add_array(ArrayBuilder::new("A", [4]).elem_size(8));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 1_000_000_000_000),
            vec![Stmt::loop_(
                Loop::new("j", 1, 1_000_000_000_000),
                vec![Stmt::refs(vec![a.at([Subscript::constant(1)]); 2])],
            )],
        ));
        b.push(Stmt::loop_(
            Loop::new("i", i64::MIN, i64::MAX),
            vec![Stmt::refs(vec![a.at([Subscript::constant(2)])])],
        ));
        let p = b.build().expect("valid");
        let compiled = CompiledTrace::compile(&p, &DataLayout::original(&p));
        assert_eq!(compiled.count(), u64::MAX);
    }

    #[test]
    fn count_sums_affine_inner_trips_in_closed_form() {
        // Seeded two-deep nests whose inner bounds are affine in the
        // outer variable: coefficients -2..=2, steps of both signs, spans
        // empty on some outer iterations or on all of them. The inner
        // body is either references or a rectangular loop (counted once
        // and multiplied).
        let mut rng = pad_cache_sim::SplitMix64::new(0x7412);
        let mut draw = |lo: i64, hi: i64| lo + rng.below((hi - lo + 1) as u64) as i64;
        for case in 0..300 {
            let mut b = Program::builder(format!("affine{case}"));
            let a = b.add_array(ArrayBuilder::new("A", [64]).elem_size(8));
            let step = |d: &mut dyn FnMut(i64, i64) -> i64| match d(0, 5) {
                0 => -3,
                1 => -2,
                2 => -1,
                3 => 1,
                4 => 2,
                _ => 3,
            };
            let outer = Loop::with_step("i", draw(-6, 12), draw(-6, 12), step(&mut draw));
            let bound = |d: &mut dyn FnMut(i64, i64) -> i64| {
                pad_ir::AffineExpr::from_terms([(pad_ir::IndexVar::new("i"), d(-2, 2))], d(-6, 12))
            };
            let inner_header =
                Loop::with_step("j", bound(&mut draw), bound(&mut draw), step(&mut draw));
            let refs = Stmt::refs(vec![a.at([Subscript::constant(1)]); draw(1, 3) as usize]);
            let inner_body = if draw(0, 1) == 0 {
                vec![refs]
            } else {
                vec![Stmt::loop_(Loop::new("k", 1, draw(0, 3)), vec![refs])]
            };
            b.push(Stmt::loop_(
                outer,
                vec![Stmt::loop_(inner_header, inner_body)],
            ));
            let p = b.build().expect("valid");
            assert_count_matches_interpreter(&p, &DataLayout::original(&p));
        }
    }

    #[test]
    fn count_within_bounds_iteration_of_deeper_dependent_nests() {
        let lu = |n: i64| {
            let mut b = Program::builder("lu");
            let a = b.add_array(ArrayBuilder::new("A", [16, 16]).elem_size(8));
            let plus = |c| Subscript::var_offset("k", c);
            b.push(Stmt::loop_(
                Loop::new("k", 1, n),
                vec![Stmt::loop_(
                    Loop::new("i", plus(1), n),
                    vec![
                        Stmt::refs(vec![a.at([Subscript::constant(1), Subscript::constant(1)])]),
                        Stmt::loop_(
                            Loop::new("j", plus(1), n),
                            vec![Stmt::refs(vec![
                                a.at([Subscript::constant(1), Subscript::constant(2)])
                            ])],
                        ),
                    ],
                )],
            ));
            b.build().expect("valid")
        };
        // The outer loop iterates: exact within the trip budget, refused
        // beyond it without iterating.
        let small = lu(12);
        let compiled = CompiledTrace::compile(&small, &DataLayout::original(&small));
        let exact = crate::count_accesses(&small, &DataLayout::original(&small));
        assert_eq!(compiled.count_within(12), Some(exact));
        assert_eq!(compiled.count_within(11), None);
        let huge = lu(1_000_000_000);
        let compiled = CompiledTrace::compile(&huge, &DataLayout::original(&huge));
        assert_eq!(compiled.count_within(1 << 20), None);

        // A 10^9 triangle needs no iteration at all: n(n+1)/2 exactly.
        let mut b = Program::builder("triangle");
        let a = b.add_array(ArrayBuilder::new("A", [4]).elem_size(8));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 1_000_000_000),
            vec![Stmt::loop_(
                Loop::new("j", 1, Subscript::var("i")),
                vec![Stmt::refs(vec![a.at([Subscript::constant(1)])])],
            )],
        ));
        let p = b.build().expect("valid");
        let compiled = CompiledTrace::compile(&p, &DataLayout::original(&p));
        let n = 1_000_000_000u64;
        assert_eq!(compiled.count_within(0), Some(n * (n + 1) / 2));
    }

    #[test]
    fn simulate_agrees_with_interpreted_simulation() {
        let p = pad_kernels::jacobi::spec(32);
        let layout = DataLayout::original(&p);
        let cache = pad_cache_sim::CacheConfig::direct_mapped(1024, 32);
        let compiled_stats = crate::simulate_program(&p, &layout, &cache);
        let interpreted = crate::reference::simulate_program(&p, &layout, &cache);
        assert_eq!(compiled_stats, interpreted);
    }

    #[test]
    fn scaled_subscripts_compile() {
        let mut b = Program::builder("scaled");
        let a = b.add_array(ArrayBuilder::new("A", [32]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 10),
            vec![Stmt::refs(vec![a.at([Subscript::from_terms(
                [(pad_ir::IndexVar::new("i"), 3)],
                -2,
            )])])],
        ));
        let p = b.build().expect("valid");
        let layout = DataLayout::original(&p);
        assert_eq!(interpret(&p, &layout), compiled(&p, &layout));
    }
}
