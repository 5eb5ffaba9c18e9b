//! Differential test: the compiled analytic model is bit-identical to the
//! model evaluated reference by reference.
//!
//! The search's fast rung is `pad_core::MissModel`, compiled once per
//! search and scored on every candidate layout. This suite keeps the
//! interpreted form of the same model as its oracle — a name-keyed
//! midpoint walk that linearizes every reference per layout, and a
//! pressure loop that linearizes both references of every pair — and
//! requires `to_bits()` equality of the access estimate, the miss
//! estimate and the conflict pressure. Bit equality is what keeps every
//! search decision, frontier and golden unchanged.
//!
//! The same layouts pin the nest the model reads: every reference's
//! bound offset and slot coefficients (`pad_core::Nest`) must equal
//! `reference::linearize`'s offset and name-keyed coefficients, mapped
//! through the reference's enclosing loops, and the nest's groups must
//! be `Program::ref_groups()`.
//!
//! Programs: every suite kernel at two sizes, the generated cases of the
//! property suite, and hand-built nests covering loop shapes (triangular,
//! negative-step, empty), subscript shapes (unused loop variables, one
//! variable in two subscripts, constants, non-default lower bounds) and
//! element sizes. Layouts: original, PADLITE, PAD, and a seeded walk of
//! search moves, all scored through one compiled model so scratch state
//! carried between scores is exercised too.

mod common;

use std::collections::{BTreeMap, HashMap};

use pad_cache_sim::{CacheConfig, SplitMix64};
use pad_core::reference::{constant_difference, linearize};
use pad_core::{
    circular_distance, estimate_miss_rate, is_severe_conflict, CacheParams, DataLayout,
    MissEstimate, MissModel, Nest, PaddingConfig, PaddingPipeline,
};
use pad_ir::{ArrayBuilder, ArrayRef, Dim, IndexVar, Loop, Program, Stmt, Subscript};
use pad_search::{PadVector, SearchSpace};
use pad_trace::padding_config_for;

/// Random search moves scored per (program, configuration).
const WALK: usize = 50;

// ---------------------------------------------------------------------
// Oracle: the model evaluated reference by reference.
// ---------------------------------------------------------------------

fn oracle_estimate(program: &Program, layout: &DataLayout, config: &PaddingConfig) -> MissEstimate {
    let mut est = MissEstimate::default();
    let mut env: HashMap<IndexVar, f64> = HashMap::new();
    for stmt in program.body() {
        oracle_walk(layout, config, stmt, 1.0, &mut env, &mut est);
    }
    est
}

fn eval_mid(expr: &pad_ir::AffineExpr, env: &HashMap<IndexVar, f64>) -> f64 {
    let mut acc = expr.offset() as f64;
    for (var, coeff) in expr.terms() {
        acc += *coeff as f64 * env.get(var).copied().unwrap_or(0.0);
    }
    acc
}

fn oracle_walk(
    layout: &DataLayout,
    config: &PaddingConfig,
    stmt: &Stmt,
    iterations: f64,
    env: &mut HashMap<IndexVar, f64>,
    est: &mut MissEstimate,
) {
    let Stmt::Loop { header, body } = stmt else {
        return;
    };
    let lo = eval_mid(header.lower(), env);
    let hi = eval_mid(header.upper(), env);
    let step = header.step() as f64;
    let trip = (((hi - lo) / step) + 1.0).max(0.0);
    let inner_iterations = iterations * trip;
    let old = env.insert(header.var().clone(), (lo + hi) / 2.0);
    let direct: Vec<&ArrayRef> = body
        .iter()
        .filter_map(|s| match s {
            Stmt::Refs(refs) => Some(refs.iter()),
            Stmt::Loop { .. } => None,
        })
        .flatten()
        .collect();
    if !direct.is_empty() {
        oracle_group(layout, config, header.var(), &direct, inner_iterations, est);
    }
    for s in body {
        oracle_walk(layout, config, s, inner_iterations, env, est);
    }
    match old {
        Some(v) => {
            env.insert(header.var().clone(), v);
        }
        None => {
            env.remove(header.var());
        }
    }
}

fn oracle_group(
    layout: &DataLayout,
    config: &PaddingConfig,
    loop_var: &IndexVar,
    refs: &[&ArrayRef],
    iterations: f64,
    est: &mut MissEstimate,
) {
    let ls = config.primary().line as f64;
    let lins: Vec<_> = refs
        .iter()
        .map(|r| linearize(r, layout.dims(r.array()), layout.elem_size(r.array())))
        .collect();
    let mut prob: Vec<f64> = lins
        .iter()
        .map(|lin| {
            let stride = lin
                .coeffs()
                .get(loop_var)
                .copied()
                .unwrap_or(0)
                .unsigned_abs() as f64;
            if stride == 0.0 {
                0.0
            } else if stride < ls {
                stride / ls
            } else {
                1.0
            }
        })
        .collect();
    for i in 0..refs.len() {
        for j in i + 1..refs.len() {
            let Some(rel) = constant_difference(&lins[i], &lins[j]) else {
                continue;
            };
            let diff = rel + layout.base_addr(refs[i].array()) as i64
                - layout.base_addr(refs[j].array()) as i64;
            if config
                .levels()
                .iter()
                .any(|lvl| is_severe_conflict(diff, lvl.size, lvl.line, lvl.line))
            {
                prob[i] = 1.0;
                prob[j] = 1.0;
            }
        }
    }
    est.accesses += iterations * refs.len() as f64;
    est.misses += iterations * prob.iter().sum::<f64>();
}

fn oracle_pressure(program: &Program, layout: &DataLayout, cs: u64, line: u64) -> f64 {
    let cs = cs.max(2);
    let half = (cs / 2) as f64;
    let mut pressure = 0.0;
    for group in program.ref_groups() {
        for (i, &ra) in group.refs.iter().enumerate() {
            for &rb in &group.refs[i + 1..] {
                let la = linearize(ra, layout.dims(ra.array()), layout.elem_size(ra.array()));
                let lb = linearize(rb, layout.dims(rb.array()), layout.elem_size(rb.array()));
                let Some(rel) = constant_difference(&la, &lb) else {
                    pressure += 0.5;
                    continue;
                };
                let diff =
                    rel + layout.base_addr(ra.array()) as i64 - layout.base_addr(rb.array()) as i64;
                if diff.unsigned_abs() < line {
                    continue;
                }
                let dist = circular_distance(diff, cs) as f64;
                pressure += (half - dist) / half;
            }
        }
    }
    let line = line.max(1) as i64;
    for (id, _) in program.arrays_with_ids() {
        let dims = layout.dims(id);
        let strides = layout.strides_bytes(id);
        let mut charged = false;
        for d in 1..strides.len() {
            if strides[d].rem_euclid(line) != 0 {
                let walks: i64 = dims[d..].iter().map(|m| m.size).product();
                pressure += walks as f64;
                charged = true;
                break;
            }
        }
        if !charged && (layout.base_addr(id) as i64).rem_euclid(line) != 0 {
            let walks: i64 = dims.iter().skip(1).map(|m| m.size).product();
            pressure += walks as f64;
        }
    }
    pressure
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

/// Scores `layout` both ways and requires bit equality.
fn assert_identical(
    model: &mut MissModel,
    program: &Program,
    layout: &DataLayout,
    config: &PaddingConfig,
    label: &str,
) {
    let score = model.score(layout);
    let est = oracle_estimate(program, layout, config);
    let primary = config.primary();
    let pressure = oracle_pressure(program, layout, primary.size, primary.line);
    let got = [
        score.estimate.accesses,
        score.estimate.misses,
        score.pressure,
    ];
    let want = [est.accesses, est.misses, pressure];
    assert_eq!(
        got.map(f64::to_bits),
        want.map(f64::to_bits),
        "{} [{label}]: compiled (accesses, misses, pressure) {got:?} vs interpreted {want:?}",
        program.name()
    );
}

/// Binds `nest` to `layout` and requires every group and bound reference
/// to match `Program::ref_groups` and `linearize`.
fn assert_nest_matches_linearize(
    nest: &mut Nest,
    program: &Program,
    layout: &DataLayout,
    label: &str,
) {
    nest.bind(layout);
    let groups = program.ref_groups();
    let name = program.name();
    assert_eq!(
        nest.groups().count(),
        groups.len(),
        "{name} [{label}]: groups"
    );
    for (g, group) in nest.groups().zip(&groups) {
        assert_eq!(g.slot + 1, group.loops.len(), "{name} [{label}]: depth");
        assert_eq!(g.step, group.innermost().step(), "{name} [{label}]: step");
        assert_eq!(
            g.refs.len(),
            group.refs.len(),
            "{name} [{label}]: group size"
        );
        for (r, &array_ref) in g.refs.clone().zip(&group.refs) {
            let bound = &nest.refs()[r];
            assert_eq!(bound.array, array_ref.array(), "{name} [{label}]: array");
            assert_eq!(bound.depth, group.loops.len(), "{name} [{label}]: depth");
            let lin = linearize(
                array_ref,
                layout.dims(array_ref.array()),
                layout.elem_size(array_ref.array()),
            );
            assert_eq!(
                nest.offset(r),
                lin.offset(),
                "{name} [{label}]: {array_ref}"
            );
            // Slot coefficients by name: a slot an inner loop rebinds
            // must read zero, since the name means the inner loop.
            let mut named = BTreeMap::new();
            for (slot, &c) in nest.coeffs(r).iter().enumerate() {
                let var = group.loops[slot].var();
                if group.loops[slot + 1..].iter().any(|l| l.var() == var) {
                    assert_eq!(c, 0, "{name} [{label}]: shadowed {var} in {array_ref}");
                } else if c != 0 {
                    named.insert(var.clone(), c);
                }
            }
            assert_eq!(&named, lin.coeffs(), "{name} [{label}]: {array_ref}");
        }
    }
}

/// Scores the original, PADLITE and PAD layouts plus a seeded walk of
/// search moves through one compiled model, and checks the nest bound to
/// each. Returns the layouts scored.
fn check_program(program: &Program, config: &PaddingConfig, seed: u64) -> usize {
    let mut model = MissModel::compile(program, config);
    let mut nest = Nest::compile(program);
    let seeds = [
        ("original", DataLayout::original(program)),
        (
            "padlite",
            PaddingPipeline::padlite(config.clone()).run(program).layout,
        ),
        (
            "pad",
            PaddingPipeline::pad(config.clone()).run(program).layout,
        ),
    ];
    for (label, layout) in &seeds {
        assert_identical(&mut model, program, layout, config, label);
        assert_nest_matches_linearize(&mut nest, program, layout, label);
        // The one-shot entry point is compile-then-score.
        assert_eq!(
            estimate_miss_rate(program, layout, config),
            model.score(layout).estimate,
            "{} [{label}]: estimate_miss_rate",
            program.name()
        );
    }
    let space = SearchSpace::new(program, config);
    let mut rng = SplitMix64::new(seed);
    let mut v = PadVector::from_layout(program, &seeds[2].1);
    let mut scored = seeds.len();
    for step in 0..WALK {
        if let Some(next) = space.random_step(&v, &mut rng) {
            v = next;
        }
        let layout = v.materialize(program);
        let label = format!("walk {step}");
        assert_identical(&mut model, program, &layout, config, &label);
        assert_nest_matches_linearize(&mut nest, program, &layout, &label);
        scored += 1;
    }
    scored
}

/// The padding configurations every program is checked under: the search
/// derives single-level ones from its cache, and the model also serves
/// multi-level analysis.
///
/// On real cache sizes every pressure term is a multiple of
/// `2 / cache size`, so the pressure sums exactly and the order of its
/// additions cannot show. The last configuration's 2^50-byte level makes
/// each pair term need the whole mantissa: any reordering of the
/// additions (pairs, then alignment waste) changes the bits.
fn configs() -> Vec<(&'static str, PaddingConfig)> {
    vec![
        (
            "4K direct-mapped",
            padding_config_for(&CacheConfig::direct_mapped(4096, 32)),
        ),
        (
            "8K 2-way",
            padding_config_for(&CacheConfig::set_associative(8192, 32, 2)),
        ),
        (
            "16K 64B lines",
            padding_config_for(&CacheConfig::direct_mapped(16 * 1024, 64)),
        ),
        (
            "two-level 4K/32 + 16K/64",
            PaddingConfig::multi_level(vec![
                CacheParams::new(4096, 32).expect("valid level"),
                CacheParams::new(16 * 1024, 64).expect("valid level"),
            ])
            .expect("two levels"),
        ),
        (
            "2^50-byte cache",
            PaddingConfig::new(1 << 50, 64).expect("valid level"),
        ),
    ]
}

#[test]
fn compiled_model_matches_interpreter_on_every_suite_kernel() {
    let mut scored = 0;
    for (k, kernel) in pad_kernels::suite().iter().enumerate() {
        for n in [16, 37] {
            let program = (kernel.spec)(n);
            for (c, (_, config)) in configs().iter().enumerate() {
                scored += check_program(&program, config, (k * 100 + c) as u64 ^ n as u64);
            }
        }
    }
    assert!(scored > 10_000, "only {scored} layouts scored");
}

#[test]
fn compiled_model_matches_interpreter_on_generated_programs() {
    for case in 0..common::CASES {
        let (program, cache) = common::random_case(case);
        check_program(&program, &padding_config_for(&cache), case);
    }
}

#[test]
fn compiled_model_matches_interpreter_on_hand_built_programs() {
    for program in hand_built() {
        for (c, (_, config)) in configs().iter().enumerate() {
            check_program(&program, config, c as u64);
        }
    }
}

/// Loop, subscript and element shapes the suite kernels do not all
/// reach.
fn hand_built() -> Vec<Program> {
    let v = Subscript::var;
    let vo = Subscript::var_offset;
    let mut out = Vec::new();

    // Triangular (LU-shaped), negative-step and empty-range loops.
    let mut b = Program::builder("loop-shapes");
    let a = b.add_array(ArrayBuilder::new("A", [48, 48]));
    let x = b.add_array(ArrayBuilder::new("X", [48]));
    b.push(Stmt::loop_(
        Loop::new("k", 1, 47),
        vec![Stmt::loop_(
            Loop::new("i", vo("k", 1), 48),
            vec![
                Stmt::refs(vec![a.at([v("i"), v("k")]), x.at([v("k")])]),
                Stmt::loop_(
                    Loop::new("j", vo("k", 1), 48),
                    vec![Stmt::refs(vec![
                        a.at([v("i"), v("j")]),
                        a.at([v("k"), v("j")]),
                        a.at([v("i"), v("j")]).write(),
                    ])],
                ),
            ],
        )],
    ));
    b.push(Stmt::loop_(
        Loop::with_step("i", 48, 2, -2),
        vec![Stmt::refs(vec![
            x.at([v("i")]),
            x.at([vo("i", -1)]),
            a.at([v("i"), Subscript::constant(3)]).write(),
        ])],
    ));
    b.push(Stmt::loop_(
        Loop::new("i", 9, 1),
        vec![Stmt::refs(vec![x.at([v("i")]), a.at([v("i"), v("i")])])],
    ));
    b.push(Stmt::loop_(
        Loop::with_step("j", 40, 1, -3),
        vec![Stmt::loop_(
            Loop::with_step("i", v("j"), 45, 1),
            vec![Stmt::refs(vec![a.at([v("i"), v("j")]), x.at([v("j")])])],
        )],
    ));
    out.push(b.build().expect("valid"));

    // A loop variable no subscript uses, and one variable in two
    // subscripts.
    let mut b = Program::builder("subscript-shapes");
    let a = b.add_array(ArrayBuilder::new("A", [33, 33]));
    let c = b.add_array(ArrayBuilder::new("C", [33, 33]));
    b.push(Stmt::loop_nest(
        [
            Loop::new("t", 1, 4),
            Loop::new("j", 1, 33),
            Loop::new("i", 1, 33),
        ],
        vec![Stmt::refs(vec![
            a.at([v("i"), v("i")]),
            a.at([v("i"), v("j")]),
            c.at([v("j"), v("i")]),
            c.at([v("i"), v("j")]).write(),
        ])],
    ));
    b.push(Stmt::loop_nest(
        [Loop::new("i", 2, 32), Loop::new("u", 1, 5)],
        vec![Stmt::refs(vec![
            a.at([v("i"), v("i")]),
            c.at([vo("i", -1), vo("i", 1)]),
        ])],
    ));
    out.push(b.build().expect("valid"));

    // Constant subscripts and non-default lower bounds.
    let mut b = Program::builder("bounds");
    let a = b.add_array(
        ArrayBuilder::new("A", [1]).dims([Dim::with_lower(40, 0), Dim::with_lower(40, -5)]),
    );
    let z = b.add_array(ArrayBuilder::new("Z", [1]).dims([Dim::with_lower(64, 10)]));
    b.push(Stmt::loop_nest(
        [Loop::new("j", -5, 34), Loop::new("i", 0, 39)],
        vec![Stmt::refs(vec![
            a.at([v("i"), v("j")]),
            a.at([Subscript::constant(0), v("j")]),
            a.at([v("i"), Subscript::constant(-5)]),
            z.at([vo("i", 10)]),
            z.at([Subscript::constant(73)]).write(),
        ])],
    ));
    out.push(b.build().expect("valid"));

    // 1-byte and 16-byte elements side by side.
    let mut b = Program::builder("elements");
    let bytes = b.add_array(ArrayBuilder::new("B", [256, 8]).elem_size(1));
    let wide = b.add_array(ArrayBuilder::new("W", [64, 8]).elem_size(16));
    let mid = b.add_array(ArrayBuilder::new("M", [64, 8]).elem_size(4));
    b.push(Stmt::loop_nest(
        [Loop::new("j", 1, 8), Loop::new("i", 1, 64)],
        vec![Stmt::refs(vec![
            bytes.at([v("i"), v("j")]),
            bytes.at([vo("i", 64), v("j")]),
            wide.at([v("i"), v("j")]),
            mid.at([v("i"), v("j")]),
            wide.at([v("i"), v("j")]).write(),
        ])],
    ));
    out.push(b.build().expect("valid"));
    out
}
