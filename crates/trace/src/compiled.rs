//! Compiled trace generation.
//!
//! [`crate::for_each_access`] interprets the IR directly: every subscript
//! evaluation walks a name-keyed environment. For the experiment harness —
//! billions of accesses across the figure sweeps — that overhead
//! dominates. This module *compiles* a program × layout pair once from
//! the program's [`Nest`] bound to the layout: loop variables are integer
//! slots, and every reference is a pre-linearized `base + Σ coeff·slot`
//! form (folding in element sizes, lower bounds, and the layout's base
//! addresses), so the walk touches no strings or maps. The compiled
//! walker is verified access-for-access against the interpreter by
//! `equivalence` tests and property tests.

use pad_cache_sim::Access;
use pad_core::{DataLayout, Nest, NestItem, SlotExpr};
use pad_ir::Program;

#[derive(Debug, Clone, Hash)]
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
#[derive(Debug, Clone, Hash)]
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
        let mut nest = Nest::compile(program);
        nest.bind(layout);
        CompiledTrace {
            name: program.name().to_string(),
            roots: nest
                .roots()
                .iter()
                .map(|&item| node(&nest, layout, item))
                .collect(),
            num_slots: nest.loops().iter().map(|l| l.slot + 1).max().unwrap_or(0),
        }
    }

    /// The source program's name (labels telemetry spans for this trace).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feeds `state` everything the access stream depends on: every
    /// loop's slot, bounds and step and every reference's address form
    /// (bases and element sizes folded in) and write flag, in program
    /// order. Not the program's name: two programs that issue the same
    /// stream hash alike. The walk memo keys its entries by this.
    pub(crate) fn hash_stream<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        self.roots.hash(state);
    }

    /// Invokes `f` for every access, in program order — the compiled
    /// equivalent of [`crate::for_each_access`].
    pub fn for_each(&self, mut f: impl FnMut(Access)) {
        self.for_each_chunk(crate::BATCH_CHUNK, &mut Vec::new(), |chunk| {
            chunk.iter().for_each(|&a| f(a));
        });
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
        self.cost_within(0, max_trips)
    }

    /// The work a walk of the compiled program does: its accesses plus
    /// one for every loop trip, counted with the closed forms of
    /// [`CompiledTrace::count_within`] and under the same `max_trips`
    /// bound. A loop whose body is an empty loop performs no accesses,
    /// yet a walk still runs every one of its trips, so a price in
    /// accesses alone would call it free.
    pub fn work_within(&self, max_trips: u64) -> Option<u64> {
        self.cost_within(1, max_trips)
    }

    /// Accesses plus `trip` for every loop trip.
    fn cost_within(&self, trip: u64, max_trips: u64) -> Option<u64> {
        let mut slots = vec![0i64; self.num_slots];
        let mut trips_left = max_trips;
        count_nodes(&self.roots, &mut slots, trip, &mut trips_left)
    }

    /// Invokes `f` with consecutive chunks of the access stream, in
    /// program order: every chunk but the last holds exactly `chunk`
    /// accesses. `buf` is scratch space, reused across calls; its
    /// contents on entry are ignored and on return unspecified.
    ///
    /// This is the one traversal of a compiled trace, and the batched
    /// engine's generation primitive: emitting into a contiguous buffer
    /// once and handing slices to each simulation sink amortizes
    /// per-access dispatch across every cache configuration that
    /// consumes the trace. An innermost loop is written a block at a
    /// time — every reference of as many whole iterations as the chunk
    /// has room for — so the steady state is one add and one store per
    /// access, with no per-access length test.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn for_each_chunk(&self, chunk: usize, buf: &mut Vec<Access>, f: impl FnMut(&[Access])) {
        assert!(chunk > 0, "chunk size must be positive");
        buf.truncate(chunk);
        let mut walk = ChunkWalk {
            slots: vec![0; self.num_slots],
            cursors: Vec::new(),
            chunk,
            buf,
            filled: 0,
            f,
        };
        for node in &self.roots {
            walk.node(node);
        }
        if walk.filled > 0 {
            (walk.f)(&walk.buf[..walk.filled]);
        }
    }
}

/// One reference's address inside an innermost loop being emitted.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    addr: i64,
    delta: i64,
    is_write: bool,
}

impl Cursor {
    /// The reference's access at the current iteration; steps to the next.
    #[inline(always)]
    fn next(&mut self) -> Access {
        let access = Access {
            addr: self.addr as u64,
            is_write: self.is_write,
        };
        self.addr = self.addr.wrapping_add(self.delta);
        access
    }
}

/// The state of one [`CompiledTrace::for_each_chunk`] traversal.
struct ChunkWalk<'b, F> {
    slots: Vec<i64>,
    /// The current innermost loop's cursors, one per reference; reused
    /// from loop to loop.
    cursors: Vec<Cursor>,
    chunk: usize,
    /// The chunk being filled. It grows geometrically up to `chunk`
    /// accesses, so a short trace never fills a long buffer.
    buf: &'b mut Vec<Access>,
    /// Accesses written to the front of `buf`.
    filled: usize,
    f: F,
}

impl<F: FnMut(&[Access])> ChunkWalk<'_, F> {
    /// Free slots in the chunk: a full chunk first grows or, at its full
    /// length, goes to `f`. Never zero.
    fn room(&mut self) -> usize {
        if self.filled == self.buf.len() {
            if self.buf.len() < self.chunk {
                let len = (2 * self.buf.len()).max(256).min(self.chunk);
                self.buf.resize(len, Access::read(0));
            } else {
                (self.f)(self.buf);
                self.filled = 0;
            }
        }
        self.buf.len() - self.filled
    }

    fn push(&mut self, access: Access) {
        self.room();
        self.buf[self.filled] = access;
        self.filled += 1;
    }

    fn node(&mut self, node: &Node) {
        match node {
            Node::Ref { addr, is_write } => self.push(Access {
                addr: addr.eval(&self.slots) as u64,
                is_write: *is_write,
            }),
            Node::Loop {
                slot,
                lower,
                upper,
                step,
                body,
            } => {
                let lo = lower.eval(&self.slots);
                let hi = upper.eval(&self.slots);
                let mut value = lo;
                loop {
                    let in_range = if *step > 0 { value <= hi } else { value >= hi };
                    if !in_range {
                        break;
                    }
                    self.slots[*slot] = value;
                    for child in body {
                        self.node(child);
                    }
                    // A next value beyond i64 lies beyond any bound, too.
                    let Some(next) = value.checked_add(*step) else {
                        break;
                    };
                    value = next;
                }
            }
            Node::InnerLoop {
                slot,
                lower,
                upper,
                step,
                refs,
            } => {
                let lo = lower.eval(&self.slots);
                let mut left = trips(lo, upper.eval(&self.slots), *step);
                if left == 0 {
                    return;
                }
                self.slots[*slot] = lo;
                let slots = &self.slots;
                self.cursors.clear();
                self.cursors.extend(refs.iter().map(|r| Cursor {
                    addr: r.addr.eval(slots),
                    delta: r.delta,
                    is_write: r.is_write,
                }));
                let per_trip = refs.len();
                while left > 0 {
                    let whole = (self.room() / per_trip) as u128;
                    if whole == 0 {
                        // Less room than one iteration: it straddles the
                        // chunk end.
                        for r in 0..per_trip {
                            let access = self.cursors[r].next();
                            self.push(access);
                        }
                        left -= 1;
                        continue;
                    }
                    let block = whole.min(left);
                    let end = self.filled + block as usize * per_trip;
                    fill_trips(&mut self.buf[self.filled..end], &mut self.cursors);
                    self.filled = end;
                    left -= block;
                }
            }
        }
    }
}

/// Writes whole iterations of an innermost loop into `block`, whose
/// length is a multiple of `cursors.len()`: one strided pass per
/// reference, so each pass keeps its one cursor in a register.
fn fill_trips(block: &mut [Access], cursors: &mut [Cursor]) {
    let refs = cursors.len();
    for (r, cursor) in cursors.iter_mut().enumerate() {
        for slot in block[r..].iter_mut().step_by(refs) {
            *slot = cursor.next();
        }
    }
}

/// The walker's form of one item of a bound nest. A reference's address
/// is its array's base plus its offset, over its nonzero slot
/// coefficients. A loop whose body is all references gets the incremental
/// form: per-iteration address deltas replace full re-evaluation.
fn node(nest: &Nest, layout: &DataLayout, item: NestItem) -> Node {
    let address = |r: usize| {
        let x = &nest.refs()[r];
        let terms = nest.coeffs(r).iter().enumerate().filter(|&(_, &c)| c != 0);
        let constant = layout.base_addr(x.array) as i64 + nest.offset(r);
        let terms = terms.map(|(s, &c)| (s, c)).collect();
        (SlotExpr { constant, terms }, x.is_write)
    };
    let l = match item {
        NestItem::Ref(r) => {
            let (addr, is_write) = address(r);
            return Node::Ref { addr, is_write };
        }
        NestItem::Loop(l) => &nest.loops()[l],
    };
    let (slot, lower, upper, step) = (l.slot, l.lower.clone(), l.upper.clone(), l.step);
    let refs: Option<Vec<InnerRef>> = (l.body.iter())
        .map(|&item| match item {
            NestItem::Ref(r) => {
                let (addr, is_write) = address(r);
                let delta = nest.coeffs(r)[slot] * step;
                Some(InnerRef {
                    addr,
                    delta,
                    is_write,
                })
            }
            NestItem::Loop(_) => None,
        })
        .collect();
    match refs {
        Some(refs) if !refs.is_empty() => Node::InnerLoop {
            slot,
            lower,
            upper,
            step,
            refs,
        },
        _ => {
            let body = l
                .body
                .iter()
                .map(|&item| node(nest, layout, item))
                .collect();
            Node::Loop {
                slot,
                lower,
                upper,
                step,
                body,
            }
        }
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

/// Accesses under `nodes` plus `trip` for every loop trip, iterating at
/// most `trips_left` outer-loop trips.
fn count_nodes(nodes: &[Node], slots: &mut [i64], trip: u64, trips_left: &mut u64) -> Option<u64> {
    nodes.iter().try_fold(0u64, |n, node| {
        Some(n.saturating_add(count_node(node, slots, trip, trips_left)?))
    })
}

fn count_node(node: &Node, slots: &mut [i64], trip: u64, trips_left: &mut u64) -> Option<u64> {
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
                .saturating_mul((refs.len() as u64).saturating_add(trip)),
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
                let per_trip = count_nodes(body, slots, trip, trips_left)?.saturating_add(trip);
                return Some(per_trip.saturating_mul(saturate(n)));
            }
            if let [child] = body.as_slice() {
                if let Some(child_trips) = summed_trips(child, *slot, lo, n, *step, slots) {
                    let per_trip = match child {
                        Node::InnerLoop { refs, .. } => refs.len() as u64,
                        Node::Loop { body, .. } => count_nodes(body, slots, trip, trips_left)?,
                        Node::Ref { .. } => unreachable!("summed_trips takes loops only"),
                    };
                    let inner = saturate(child_trips).saturating_mul(per_trip.saturating_add(trip));
                    return Some(inner.saturating_add(saturate(n).saturating_mul(trip)));
                }
            }
            *trips_left = trips_left.checked_sub(u64::try_from(n).ok()?)?;
            let mut total = 0u64;
            let mut value = lo;
            for _ in 0..n {
                slots[*slot] = value;
                let per_trip = count_nodes(body, slots, trip, trips_left)?.saturating_add(trip);
                total = total.saturating_add(per_trip);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::for_each_access;
    use pad_ir::{AffineExpr, ArrayBuilder, IndexVar, Loop, Stmt, Subscript};

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
                pad_core::PaddingPipeline::pad(
                    pad_core::PaddingConfig::new(1024, 32).expect("valid"),
                )
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

    #[test]
    fn outer_loops_at_the_ends_of_i64_stop_there() {
        let mut b = Program::builder("edges");
        let a = b.add_array(ArrayBuilder::new("A", [4]).elem_size(8));
        let inner = || {
            Stmt::loop_(
                Loop::new("j", 1, 2),
                vec![Stmt::refs(vec![a.at([Subscript::constant(1)])])],
            )
        };
        b.push(Stmt::loop_(
            Loop::new("i", i64::MAX - 1, i64::MAX),
            vec![inner()],
        ));
        b.push(Stmt::loop_(
            Loop::with_step("i", i64::MIN + 1, i64::MIN, -1),
            vec![inner()],
        ));
        let p = b.build().expect("valid");
        let mut walked = 0;
        CompiledTrace::compile(&p, &DataLayout::original(&p)).for_each(|_| walked += 1);
        assert_eq!(walked, 8);
    }

    /// Pins the closed-form access count against the interpreter, and
    /// the priced work against a direct iteration of every loop.
    fn assert_count_matches_interpreter(p: &Program, layout: &DataLayout) {
        let compiled = CompiledTrace::compile(p, layout);
        assert_eq!(
            compiled.count(),
            crate::count_accesses(p, layout),
            "{}",
            p.name()
        );
        assert_eq!(
            compiled.work_within(u64::MAX),
            Some(iterated_work(p.body(), &mut Vec::new())),
            "{}",
            p.name()
        );
    }

    /// Accesses plus loop trips, found by running every loop of the IR.
    fn iterated_work(stmts: &[Stmt], env: &mut Vec<(IndexVar, i64)>) -> u64 {
        let mut work = 0;
        for stmt in stmts {
            match stmt {
                Stmt::Refs(refs) => work += refs.len() as u64,
                Stmt::Loop { header, body } => {
                    let eval = |e: &AffineExpr, env: &[(IndexVar, i64)]| {
                        e.eval_with(|var| env.iter().rev().find(|(v, _)| v == var).map(|b| b.1))
                            .expect("validated programs bind every variable")
                    };
                    let hi = eval(header.upper(), env);
                    let step = header.step();
                    let mut value = eval(header.lower(), env);
                    while (step > 0 && value <= hi) || (step < 0 && value >= hi) {
                        env.push((header.var().clone(), value));
                        work += 1 + iterated_work(body, env);
                        env.pop();
                        value += step;
                    }
                }
            }
        }
        work
    }

    #[test]
    fn count_matches_interpreter_on_every_suite_kernel() {
        for k in pad_kernels::suite() {
            let small = k.default_n.clamp(8, 16);
            for n in [small, small + 7] {
                let p = (k.spec)(n);
                let pad = pad_core::PaddingPipeline::pad(
                    pad_core::PaddingConfig::new(1024, 32).expect("valid"),
                );
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
