//! Where the walk memo is active: a `RunContext` runs its cells under the
//! memo installed on the calling thread or else under one of its own,
//! and pool runs nested in a cell inherit it.
//!
//! The tests that install the process-global telemetry recorder hold a
//! lock and count only the `sim` spans of programs no other test walks.

use std::sync::{Arc, Mutex, PoisonError};

use pad_bench::harness::{miss_rate_percent, RunContext, Variant};
use pad_bench::pool;
use pad_cache_sim::CacheConfig;
use pad_core::DataLayout;
use pad_ir::Program;
use pad_telemetry::Mode;
use pad_trace::WalkMemo;

static RECORDER: Mutex<()> = Mutex::new(());

const VARIANTS: [Variant; 3] = [Variant::Original, Variant::PadLite, Variant::Pad];

/// Two 256-byte vectors in a 4 KiB cache: nothing to pad.
fn dot(name: &str) -> Program {
    let text =
        format!("program {name}\narray A(32)\narray B(32)\ndo i = 1, 32\n  t = A(i) + B(i)\nend\n");
    pad_ir::parse(&text).expect("the nest parses")
}

fn cache() -> CacheConfig {
    CacheConfig::direct_mapped(4096, 32)
}

/// The original, PADLITE and PAD cells of `program` at width 2: their
/// miss rates, as text.
fn three_cells(ctx: &RunContext, program: &Program) -> Vec<String> {
    let labels: Vec<String> = VARIANTS.iter().map(|v| v.label()).collect();
    let outcomes = ctx.run(&labels, |i| {
        format!("{}", miss_rate_percent(program, VARIANTS[i], &cache()))
    });
    outcomes
        .into_iter()
        .map(|o| o.into_value().expect("the cell completes"))
        .collect()
}

fn sim_spans(events: &[pad_telemetry::Event], name: &str) -> usize {
    (events.iter())
        .filter(|e| e.category == "sim" && e.name == name)
        .count()
}

#[test]
fn a_run_context_walks_a_stream_its_cells_share_once() {
    let _recorder = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let program = dot("shared_by_three_cells");
    let original = DataLayout::original(&program);
    for v in VARIANTS {
        assert!(
            v.layout(&program, &cache()) == original,
            "the premise: {} keeps the original layout",
            v.label()
        );
    }
    let recorder = pad_telemetry::install_recorder(Mode::Events);
    let rates = three_cells(&RunContext::plain(2), &program);
    pad_telemetry::uninstall();
    assert!(rates.iter().all(|r| *r == rates[0]), "{rates:?}");
    assert_eq!(
        sim_spans(&recorder.snapshot(), "shared_by_three_cells"),
        1,
        "three cells, one walk"
    );
}

#[test]
fn each_run_context_has_a_memo_of_its_own() {
    let _recorder = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let program = dot("one_walk_per_context");
    let recorder = pad_telemetry::install_recorder(Mode::Events);
    let first = three_cells(&RunContext::plain(2), &program);
    let second = three_cells(&RunContext::plain(2), &program);
    pad_telemetry::uninstall();
    assert_eq!(first, second);
    assert_eq!(sim_spans(&recorder.snapshot(), "one_walk_per_context"), 2);
}

#[test]
fn an_installed_memo_serves_every_context_and_nested_pool_runs() {
    let memo = Arc::new(WalkMemo::new());
    let program = dot("installed");
    let is_memo = || WalkMemo::installed().is_some_and(|m| Arc::ptr_eq(&m, &memo));
    memo.run(|| {
        three_cells(&RunContext::plain(2), &program);
        assert_eq!(memo.stats().walks, 1);
        three_cells(&RunContext::plain(2), &program);
        assert_eq!(memo.stats().walks, 1, "the second context uses it too");

        let nested = pool::run_cells_on(2, 4, |_| pool::run_cells_on(2, 4, |_| is_memo()));
        assert!(nested.into_iter().flatten().all(|inherited| inherited));
    });
    assert!(WalkMemo::installed().is_none());
}

#[test]
fn pool_runs_nested_in_a_cell_inherit_the_contexts_memo() {
    let ctx = RunContext::plain(2);
    let labels: Vec<String> = (0..4).map(|i| format!("cell {i}")).collect();
    let outcomes = ctx.run(&labels, |_| {
        let outer = WalkMemo::installed().expect("a cell runs under a memo");
        let nested = pool::run_cells_on(2, 4, |_| {
            pool::run_cells_on(2, 2, |_| {
                WalkMemo::installed().is_some_and(|m| Arc::ptr_eq(&m, &outer))
            })
        });
        let inherited = nested.into_iter().flatten().all(|same| same);
        String::from(if inherited { "inherited" } else { "lost" })
    });
    for outcome in outcomes {
        assert_eq!(outcome.value().map(String::as_str), Some("inherited"));
    }
    assert!(WalkMemo::installed().is_none(), "nothing outlives the run");
}
