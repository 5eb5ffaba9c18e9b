//! The walk memo is exact: a memoized result is the result a walk gives.
//!
//! Under a [`WalkMemo`], `simulate_batch` must return what it returns
//! with no memo installed, cold or warm, for every sink kind it
//! memoizes; it must walk once, for only the sinks it lacks; its keys
//! must separate every stream and sink setting that changes a result and
//! nothing else (a program's name changes none); it must forget its
//! oldest entry first; and with no memo installed nothing is memoized.

use std::sync::{Arc, Mutex, PoisonError};

use pad_cache_sim::{CacheConfig, IndexFunction, ReplacementPolicy, WritePolicy};
use pad_core::{DataLayout, PaddingPipeline};
use pad_ir::Program;
use pad_telemetry::{Mode, Value};
use pad_trace::{
    padding_config_for, simulate_batch, BatchRequest, BatchResults, MemoStats, WalkMemo,
    WALK_MEMO_CAPACITY,
};

/// The tests that install the process-global telemetry recorder hold
/// this, and count only events named for programs no other test walks.
static RECORDER: Mutex<()> = Mutex::new(());

fn kernel(name: &str, n: i64) -> Program {
    let kernel = pad_kernels::suite()
        .into_iter()
        .find(|k| k.name == name)
        .expect("a suite kernel");
    (kernel.spec)(n)
}

/// The direct-mapped cache `every_sink` builds on.
fn dm() -> CacheConfig {
    CacheConfig::direct_mapped(2048, 32)
}

/// Every memoized sink kind, twice where a setting varies: the
/// [`EVERY_SINK`] sinks.
fn every_sink() -> BatchRequest {
    let dm = dm();
    BatchRequest::new()
        .with_plain(dm)
        .with_plain(
            CacheConfig::set_associative(4096, 32, 2).with_replacement(ReplacementPolicy::Fifo),
        )
        .with_plain(dm.with_index_function(IndexFunction::Xor))
        .with_classified(dm)
        .with_classified(CacheConfig::set_associative(2048, 64, 4))
        .with_victim(dm, 4)
        .with_hierarchy([
            CacheConfig::direct_mapped(1024, 32),
            CacheConfig::set_associative(8192, 64, 4),
        ])
        .with_reuse(32, 0)
        .with_reuse(64, 3)
}

/// Sinks in `every_sink()`: three plain, two classified, a victim, a
/// hierarchy and two reuse analyses.
const EVERY_SINK: u64 = 9;

/// `after - before`, field by field (entries as of `after`).
fn delta(before: MemoStats, after: MemoStats) -> MemoStats {
    MemoStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        walks: after.walks - before.walks,
        entries: after.entries,
    }
}

/// `simulate_batch` under `memo`, with what it did to the memo.
fn memoized(
    memo: &Arc<WalkMemo>,
    program: &Program,
    layout: &DataLayout,
    request: &BatchRequest,
) -> (BatchResults, MemoStats) {
    let before = memo.stats();
    let results = memo.run(|| simulate_batch(program, layout, request));
    (results, delta(before, memo.stats()))
}

#[test]
fn cold_and_warm_results_equal_a_walk_without_a_memo() {
    let request = every_sink();
    let sinks = EVERY_SINK;
    let memo = Arc::new(WalkMemo::new());
    for (name, n) in [
        ("JACOBI512", 24),
        ("SHAL512", 16),
        ("DGEFA256", 24),
        ("TOMCATV", 16),
    ] {
        let program = kernel(name, n);
        let original = DataLayout::original(&program);
        let pad = PaddingPipeline::pad(padding_config_for(&dm()))
            .run(&program)
            .layout;
        for layout in [original, pad] {
            let direct = simulate_batch(&program, &layout, &request);
            let (cold, c) = memoized(&memo, &program, &layout, &request);
            let (warm, w) = memoized(&memo, &program, &layout, &request);
            assert_eq!(cold, direct, "{name}: cold");
            assert_eq!(warm, direct, "{name}: warm");
            // A PAD layout equal to the original is already memoized.
            if c.hits == 0 {
                assert_eq!((c.misses, c.walks), (sinks, 1), "{name}: cold");
            } else {
                assert_eq!((c.hits, c.walks), (sinks, 0), "{name}: PAD kept it");
            }
            assert_eq!((w.hits, w.misses, w.walks), (sinks, 0, 0), "{name}: warm");
        }
    }
}

#[test]
fn heat_sinks_always_walk_and_are_never_counted() {
    let program = kernel("JACOBI512", 24);
    let layout = DataLayout::original(&program);
    let dm = CacheConfig::direct_mapped(2048, 32);
    let request = BatchRequest::new().with_plain(dm).with_heat(dm);
    let direct = simulate_batch(&program, &layout, &request);
    let memo = Arc::new(WalkMemo::new());
    for pass in ["cold", "warm"] {
        let (results, d) = memoized(&memo, &program, &layout, &request);
        assert_eq!(results, direct, "{pass}");
        assert_eq!(d.walks, 1, "{pass}: the heat sink walks");
        assert_eq!(
            d.hits + d.misses,
            1,
            "{pass}: only the plain sink is looked up"
        );
        assert_eq!(d.entries, 1, "{pass}: only the plain result is kept");
    }
}

/// `(sinks, accesses)` of each `sim` span named `name`.
fn sim_spans(events: &[pad_telemetry::Event], name: &str) -> Vec<(u64, u64)> {
    let arg = |e: &pad_telemetry::Event, key| e.arg(key).and_then(Value::as_u64).unwrap_or(0);
    events
        .iter()
        .filter(|e| e.category == "sim" && e.name == name)
        .map(|e| (arg(e, "sinks"), arg(e, "accesses")))
        .collect()
}

/// A JACOBI nest under a name no other test walks.
fn renamed_jacobi(name: &str) -> Program {
    let text = format!(
        "program {name}\narray A(24, 24)\narray B(24, 24)\n\
         do j = 2, 23\n  do i = 2, 23\n    \
         B(i, j) = A(i-1, j) + A(i+1, j) + A(i, j-1) + A(i, j+1)\n  end\nend\n"
    );
    pad_ir::parse(&text).expect("the nest parses")
}

#[test]
fn a_mixed_request_walks_once_for_its_new_sinks() {
    let _recorder = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let program = renamed_jacobi("mixed_request");
    let layout = DataLayout::original(&program);
    let (dm, two_way) = (
        CacheConfig::direct_mapped(2048, 32),
        CacheConfig::set_associative(2048, 32, 2),
    );
    let first = BatchRequest::new().with_plain(dm).with_reuse(32, 0);
    let mixed = BatchRequest::new()
        .with_classified(dm)
        .with_plain(two_way)
        .with_reuse(32, 0)
        .with_plain(dm);

    let memo = Arc::new(WalkMemo::new());
    memoized(&memo, &program, &layout, &first);
    let recorder = pad_telemetry::install_recorder(Mode::Events);
    let (results, d) = memoized(&memo, &program, &layout, &mixed);
    pad_telemetry::uninstall();

    assert_eq!(results, simulate_batch(&program, &layout, &mixed));
    assert_eq!((d.hits, d.misses, d.walks), (2, 2, 1));
    let accesses = results.plain[1].accesses;
    assert_eq!(
        sim_spans(&recorder.snapshot(), "mixed_request"),
        [(2, accesses)],
        "one walk, feeding the classified and 2-way sinks alone"
    );
}

#[test]
fn without_a_memo_identical_calls_walk_twice() {
    let _recorder = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    assert!(WalkMemo::installed().is_none());
    let program = renamed_jacobi("no_memo");
    let layout = DataLayout::original(&program);
    let request = BatchRequest::new().with_plain(CacheConfig::direct_mapped(2048, 32));
    let recorder = pad_telemetry::install_recorder(Mode::Events);
    let first = simulate_batch(&program, &layout, &request);
    let second = simulate_batch(&program, &layout, &request);
    pad_telemetry::uninstall();
    assert_eq!(first, second);
    let accesses = first.plain[0].accesses;
    assert_eq!(
        sim_spans(&recorder.snapshot(), "no_memo"),
        [(1, accesses), (1, accesses)]
    );
}

/// The memoized twin of `(program, layout, request)` must miss in a memo
/// that holds the original, and still answer like a walk.
fn assert_separate(
    label: &str,
    (program, layout, request): (&Program, &DataLayout, &BatchRequest),
    (twin, twin_layout, twin_request): (&Program, &DataLayout, &BatchRequest),
) {
    let memo = Arc::new(WalkMemo::new());
    memoized(&memo, program, layout, request);
    let (results, d) = memoized(&memo, twin, twin_layout, twin_request);
    assert_eq!(
        (d.hits, d.walks),
        (0, 1),
        "{label}: the twin must not hit the original's entry"
    );
    assert_eq!(
        results,
        simulate_batch(twin, twin_layout, twin_request),
        "{label}"
    );
}

#[test]
fn keys_separate_every_setting_that_changes_a_result() {
    let program = kernel("JACOBI512", 24);
    let original = DataLayout::original(&program);
    let (a, _) = program.arrays_with_ids().next().expect("an array");
    let (b, _) = program.arrays_with_ids().nth(1).expect("two arrays");
    let mut moved = original.clone();
    moved.set_base_addr(b, original.base_addr(b) + 64);
    let mut padded = original.clone();
    padded.pad_dim(a, 0, 1);
    padded.assign_sequential_bases();

    let dm = CacheConfig::direct_mapped(2048, 32);
    let plain = |c: CacheConfig| BatchRequest::new().with_plain(c);
    let base = (&program, &original, &plain(dm));

    assert_separate("base", base, (&program, &moved, &plain(dm)));
    assert_separate("dims", base, (&program, &padded, &plain(dm)));
    for (label, twin) in [
        ("line size", CacheConfig::direct_mapped(2048, 64)),
        ("ways", CacheConfig::set_associative(2048, 32, 2)),
        (
            "write policy",
            dm.with_write_policy(WritePolicy::WriteThroughNoAllocate),
        ),
        ("index function", dm.with_index_function(IndexFunction::Xor)),
    ] {
        assert_separate(label, base, (&program, &original, &plain(twin)));
    }
    let two_way = CacheConfig::set_associative(2048, 32, 2);
    for policy in [ReplacementPolicy::Fifo, ReplacementPolicy::Random] {
        assert_separate(
            "replacement",
            (&program, &original, &plain(two_way)),
            (
                &program,
                &original,
                &plain(two_way.with_replacement(policy)),
            ),
        );
    }
    let reuse = |k: u32| BatchRequest::new().with_reuse(32, k);
    assert_separate(
        "sample exponent",
        (&program, &original, &reuse(0)),
        (&program, &original, &reuse(2)),
    );
    let victim = |lines: usize| BatchRequest::new().with_victim(dm, lines);
    assert_separate(
        "victim lines",
        (&program, &original, &victim(4)),
        (&program, &original, &victim(8)),
    );
    // A sink kind is part of the key too: a plain cache and the main
    // cache of a classified one count the same accesses and misses.
    assert_separate(
        "sink kind",
        base,
        (
            &program,
            &original,
            &BatchRequest::new().with_classified(dm),
        ),
    );

    // Twins that differ only in one array's element size: one display
    // form, equal bases and dims at the original layout, but 8- against
    // 4-byte strides through `B`.
    let twin = |elem: &str| {
        pad_ir::parse(&format!(
            "program twin\narray A(64, 64)\narray B(64, 64){elem}\n\
             do j = 1, 64\n  do i = 1, 64\n    t = A(i, j) + B(i, j)\n  end\nend\n"
        ))
        .expect("twin parses")
    };
    let (eight, four) = (twin(""), twin(" elem 4"));
    let (at8, at4) = (DataLayout::original(&eight), DataLayout::original(&four));
    for (id, _) in eight.arrays_with_ids() {
        assert_eq!(
            (at8.base_addr(id), at8.dims(id)),
            (at4.base_addr(id), at4.dims(id))
        );
    }
    let reuse = BatchRequest::new().with_reuse(32, 0).with_plain(dm);
    assert_separate(
        "element size",
        (&eight, &at8, &reuse),
        (&four, &at4, &reuse),
    );
}

#[test]
fn identical_streams_under_different_names_share_an_entry() {
    let memo = Arc::new(WalkMemo::new());
    let request = every_sink();
    let (first, second) = (renamed_jacobi("first"), renamed_jacobi("second"));
    let layout = DataLayout::original(&first);
    let (cold, _) = memoized(&memo, &first, &layout, &request);
    let (warm, d) = memoized(&memo, &second, &DataLayout::original(&second), &request);
    assert_eq!(cold, warm);
    assert_eq!((d.hits, d.walks), (EVERY_SINK, 0));
}

#[test]
fn the_oldest_entry_walks_again_after_capacity_new_ones() {
    let memo = Arc::new(WalkMemo::new());
    let request = BatchRequest::new().with_plain(CacheConfig::direct_mapped(1024, 32));
    // One new entry per call: each nest reads a different address.
    let nest = |i: usize| {
        let text = format!(
            "program n{i}\narray A({})\ndo k = 1, 4\n  t = A(k + {i})\nend\n",
            i + 4
        );
        let program = pad_ir::parse(&text).expect("the nest parses");
        let layout = DataLayout::original(&program);
        (program, layout)
    };
    let (oldest, oldest_layout) = nest(0);
    let expected = simulate_batch(&oldest, &oldest_layout, &request);
    let ask = |memo: &Arc<WalkMemo>| memoized(memo, &oldest, &oldest_layout, &request);
    ask(&memo);
    for i in 1..WALK_MEMO_CAPACITY {
        let (program, layout) = nest(i);
        let (_, d) = memoized(&memo, &program, &layout, &request);
        assert_eq!(d.misses, 1, "nest {i} is new");
    }
    assert_eq!(memo.stats().entries, WALK_MEMO_CAPACITY);
    let (results, d) = ask(&memo);
    assert_eq!((results, d.walks), (expected.clone(), 0), "still held");

    let (program, layout) = nest(WALK_MEMO_CAPACITY);
    memoized(&memo, &program, &layout, &request);
    assert_eq!(memo.stats().entries, WALK_MEMO_CAPACITY);
    let (results, d) = ask(&memo);
    assert_eq!((results, d.walks), (expected, 1), "evicted, so walked");
}

#[test]
fn nested_installs_reinstate_the_outer_memo() {
    let (outer, inner) = (Arc::new(WalkMemo::new()), Arc::new(WalkMemo::new()));
    outer.run(|| {
        inner.run(|| {
            let installed = WalkMemo::installed().expect("installed");
            assert!(Arc::ptr_eq(&installed, &inner));
        });
        let installed = WalkMemo::installed().expect("reinstated");
        assert!(Arc::ptr_eq(&installed, &outer));
        let unwound = std::panic::catch_unwind(|| inner.run(|| panic!("inside the inner memo")));
        assert!(unwound.is_err());
        let installed = WalkMemo::installed().expect("reinstated after a panic");
        assert!(Arc::ptr_eq(&installed, &outer));
    });
    assert!(WalkMemo::installed().is_none());
}

#[test]
fn concurrent_calls_for_one_sink_walk_it_once() {
    let program = kernel("EXPL512", 32);
    let layout = DataLayout::original(&program);
    let request = every_sink();
    let direct = simulate_batch(&program, &layout, &request);
    let memo = Arc::new(WalkMemo::new());
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        let calls: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    memo.run(|| simulate_batch(&program, &layout, &request))
                })
            })
            .collect();
        for call in calls {
            assert_eq!(call.join().expect("the call returns"), direct);
        }
    });
    let stats = memo.stats();
    let sinks = EVERY_SINK;
    assert_eq!(stats.walks, 1, "the others waited for the first walk");
    assert_eq!((stats.hits, stats.misses), (3 * sinks, sinks));
}

#[test]
fn a_walk_that_panics_leaves_no_claim_behind() {
    let program = kernel("JACOBI512", 24);
    let layout = DataLayout::original(&program);
    let dm = CacheConfig::direct_mapped(2048, 32);
    // A hierarchy with no level panics when its sinks are built, after
    // the call claimed the plain sink.
    let broken = BatchRequest::new().with_plain(dm).with_hierarchy([]);
    let memo = Arc::new(WalkMemo::new());
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        memo.run(|| simulate_batch(&program, &layout, &broken))
    }));
    assert!(panicked.is_err());
    let request = BatchRequest::new().with_plain(dm);
    let (results, d) = memoized(&memo, &program, &layout, &request);
    assert_eq!(results, simulate_batch(&program, &layout, &request));
    assert_eq!((d.misses, d.walks), (1, 1), "walked, not waited on");
}
