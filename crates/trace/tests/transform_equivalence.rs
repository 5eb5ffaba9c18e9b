//! Dynamic checks of the IR loop transformations: strip-mining must
//! preserve the exact address stream (it only renames the induction
//! structure), and interchange must preserve the access *set* while
//! permuting its order.

use std::collections::HashMap;

use pad_core::DataLayout;
use pad_ir::{interchange, strip_mine, ArrayBuilder, Loop, Program, Stmt, Subscript};
use pad_trace::collect_trace;

fn copy2d(n: i64) -> Program {
    let mut b = Program::builder("copy");
    let a = b.add_array(ArrayBuilder::new("A", [n, n]));
    let c = b.add_array(ArrayBuilder::new("C", [n, n]));
    b.push(Stmt::loop_nest(
        [Loop::new("i", 1, n), Loop::new("j", 1, n)],
        vec![Stmt::refs(vec![
            a.at([Subscript::var("j"), Subscript::var("i")]),
            c.at([Subscript::var("j"), Subscript::var("i")]).write(),
        ])],
    ));
    b.build().expect("valid")
}

#[test]
fn strip_mining_preserves_the_exact_trace() {
    let p = copy2d(16);
    let layout = DataLayout::original(&p);
    let original = collect_trace(&p, &layout);
    for (var, tile) in [("j", 4), ("j", 8), ("i", 2), ("i", 16)] {
        let stripped = strip_mine(&p, var, tile).expect("tileable");
        let layout_s = DataLayout::original(&stripped);
        let transformed = collect_trace(&stripped, &layout_s);
        assert_eq!(
            original, transformed,
            "strip_mine({var}, {tile}) changed the trace"
        );
    }
}

#[test]
fn interchange_permutes_but_preserves_the_access_multiset() {
    let p = copy2d(12);
    let layout = DataLayout::original(&p);
    let original = collect_trace(&p, &layout);
    let swapped = interchange(&p, "i", "j").expect("perfect nest");
    let layout_s = DataLayout::original(&swapped);
    let transformed = collect_trace(&swapped, &layout_s);

    assert_ne!(original, transformed, "interchange should reorder accesses");
    let histogram = |trace: &[pad_cache_sim::Access]| {
        let mut h: HashMap<(u64, bool), u64> = HashMap::new();
        for a in trace {
            *h.entry((a.addr, a.is_write)).or_insert(0) += 1;
        }
        h
    };
    assert_eq!(histogram(&original), histogram(&transformed));
}

#[test]
fn full_tiling_recipe_preserves_the_access_multiset() {
    let p = copy2d(16);
    let stripped = strip_mine(&p, "j", 4).expect("tileable");
    let tiled = interchange(&stripped, "i", "j_t").expect("perfect");

    let count = |program: &Program| collect_trace(program, &DataLayout::original(program)).len();
    assert_eq!(count(&p), count(&tiled));

    // The tiled nest changes locality: on a tiny cache the column-major
    // copy walked row-wise (i outer) misses constantly, while visiting a
    // 4-column tile at a time hits within the tile.
    use pad_cache_sim::CacheConfig;
    use pad_trace::simulate_program;
    let cache = CacheConfig::direct_mapped(512, 32);
    let before = simulate_program(&p, &DataLayout::original(&p), &cache);
    let after = simulate_program(&tiled, &DataLayout::original(&tiled), &cache);
    assert!(
        after.miss_rate() <= before.miss_rate(),
        "tiling should not hurt this copy: {} -> {}",
        before.miss_rate(),
        after.miss_rate()
    );
}
