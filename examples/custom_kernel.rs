//! Bring your own loop nest: declare a program through the IR builder,
//! let PAD lay it out, and execute it natively under both layouts.
//!
//! ```text
//! cargo run --release --example custom_kernel
//! ```
//!
//! This is the adoption path for code outside the bundled suite: describe
//! the arrays and the reference pattern of your hot loops, get back a
//! layout (base offsets + leading-dimension sizes) to allocate with, and
//! — if you build on [`rivera_padding::kernels::Workspace`] — run the
//! computation against it directly.

use rivera_padding::cache_sim::CacheConfig;
use rivera_padding::core::{DataLayout, PaddingPipeline};
use rivera_padding::ir::{ArrayBuilder, Loop, Program, Stmt, Subscript};
use rivera_padding::kernels::Workspace;
use rivera_padding::trace::{padding_config_for, simulate_program};

/// A wave-equation leapfrog: three conforming grids ping-ponged by a
/// five-point stencil. Classic severe-conflict territory at 2^k sizes.
fn wave(n: i64) -> Program {
    let mut b = Program::builder("wave");
    let prev = b.add_array(ArrayBuilder::new("PREV", [n, n]));
    let cur = b.add_array(ArrayBuilder::new("CUR", [n, n]));
    let next = b.add_array(ArrayBuilder::new("NEXT", [n, n]));
    b.push(Stmt::loop_nest(
        [Loop::new("i", 2, n - 1), Loop::new("j", 2, n - 1)],
        vec![Stmt::refs(vec![
            cur.at([Subscript::var_offset("j", -1), Subscript::var("i")]),
            cur.at([Subscript::var_offset("j", 1), Subscript::var("i")]),
            cur.at([Subscript::var("j"), Subscript::var_offset("i", -1)]),
            cur.at([Subscript::var("j"), Subscript::var_offset("i", 1)]),
            cur.at([Subscript::var("j"), Subscript::var("i")]),
            prev.at([Subscript::var("j"), Subscript::var("i")]),
            next.at([Subscript::var("j"), Subscript::var("i")]).write(),
        ])],
    ));
    b.build().expect("wave is well-formed")
}

fn step(ws: &mut Workspace, n: i64) {
    let prev = ws.array("PREV");
    let cur = ws.array("CUR");
    let next = ws.array("NEXT");
    let (p0, c0, x0) = (ws.base_word(prev), ws.base_word(cur), ws.base_word(next));
    let (pc, cc, xc) = (ws.strides(prev)[1], ws.strides(cur)[1], ws.strides(next)[1]);
    let n = n as usize;
    let buf = ws.words_mut();
    for i in 2..n {
        for j in 2..n {
            let c = c0 + (j - 1) + (i - 1) * cc;
            let lap = buf[c - 1] + buf[c + 1] + buf[c - cc] + buf[c + cc] - 4.0 * buf[c];
            buf[x0 + (j - 1) + (i - 1) * xc] =
                2.0 * buf[c] - buf[p0 + (j - 1) + (i - 1) * pc] + 0.2 * lap;
        }
    }
}

fn main() {
    let n = 512;
    let program = wave(n);
    let cache = CacheConfig::paper_base();

    let outcome = PaddingPipeline::pad(padding_config_for(&cache)).run(&program);
    println!("layout chosen by PAD:\n{}", outcome.layout);

    for (label, layout) in [
        ("original", DataLayout::original(&program)),
        ("padded", outcome.layout),
    ] {
        // Predicted miss rate for one stencil sweep...
        let predicted = simulate_program(&program, &layout, &cache).miss_rate_percent();
        // ...and a real native execution under that layout.
        let mut ws = Workspace::new(&program, layout);
        let cur = ws.array("CUR");
        ws.set(cur, &[n / 2, n / 2], 1.0);
        let start = std::time::Instant::now();
        for _ in 0..20 {
            step(&mut ws, n);
        }
        let elapsed = start.elapsed();
        println!(
            "{label:>9}: simulated miss rate {predicted:5.1}%, 20 native steps in {elapsed:?}"
        );
    }
}
