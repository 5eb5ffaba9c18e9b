//! Integration suite for the reliability layer: seeded fault plans driven
//! through the real pool, context, and journal, proving the contracts the
//! experiment binaries depend on — no sibling-cell loss under injected
//! faults, byte-identical resume after a kill, and deterministic rendered
//! tables across thread widths and injection schedules. Everything here
//! is wall-clock-free: delays are virtual and every schedule derives from
//! a fixed seed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use pad_bench::faults::{FaultPlan, FaultSpec};
use pad_bench::harness::{cells_or_marker, pct, RunContext};
use pad_bench::journal::Journal;
use pad_report::Table;

/// A deterministic stand-in for a simulation cell: cheap, pure, and with
/// a value that depends on every bit of the index.
fn cell_value(index: usize) -> f64 {
    let mut acc = index as u64 ^ 0x9e37_79b9_7f4a_7c15;
    for _ in 0..8 {
        acc ^= acc << 13;
        acc ^= acc >> 7;
        acc ^= acc << 17;
    }
    (acc % 10_000) as f64 / 100.0
}

fn labels(count: usize) -> Vec<String> {
    (0..count)
        .map(|i| format!("fault-suite: cell {i}"))
        .collect()
}

fn temp_journal(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rivera-faults-{}-{name}.journal",
        std::process::id()
    ))
}

/// Renders outcomes the way the experiment tables do, markers included.
fn render(outcomes: &[pad_bench::pool::CellOutcome<f64>]) -> String {
    let mut t = Table::new(["cell", "value"]);
    for (i, outcome) in outcomes.iter().enumerate() {
        let mut row = vec![i.to_string()];
        row.extend(cells_or_marker(outcome, 1, |&v| vec![pct(v)]));
        t.row(row);
    }
    t.to_string()
}

#[test]
fn injected_faults_never_disturb_sibling_cells() {
    let count = 40;
    let plan = FaultPlan::from_seed(
        7,
        count,
        &FaultSpec {
            panics: 4,
            delays: 3,
            delay: Duration::from_secs(600),
        },
    );
    let deadline = Some(Duration::from_secs(30));
    let clean: Vec<f64> = (0..count).map(cell_value).collect();
    for threads in [1, 2, 8] {
        let ctx = RunContext::with("faults", threads, deadline, None);
        let outcomes = ctx.run(&labels(count), plan.wrap(cell_value));
        for (i, outcome) in outcomes.iter().enumerate() {
            if plan.faulted_cells().contains(&i) {
                assert!(!outcome.is_ok(), "cell {i} was injected");
            } else {
                // Bit-identical to the clean serial value: a faulted
                // sibling sharing the pool must not perturb this cell.
                assert_eq!(
                    outcome.value().map(|v| v.to_bits()),
                    Some(clean[i].to_bits()),
                    "cell {i} at {threads} threads"
                );
            }
        }
        let status = ctx.finish();
        assert_eq!(status.cells, count);
        assert_eq!(status.failed, plan.faulted_cells().len());
    }
}

#[test]
fn resume_after_kill_replays_bit_exactly_and_skips_execution() {
    let count = 24;
    let path = temp_journal("resume");
    std::fs::remove_file(&path).ok();
    // Pass 1: a third of the cells panic hard — the run "dies" with the
    // journal holding only the completed cells.
    let plan = FaultPlan::from_seed(
        99,
        count,
        &FaultSpec {
            panics: count / 3,
            ..FaultSpec::default()
        },
    );
    let doomed = plan.doomed_cells().clone();
    let first_exec = AtomicUsize::new(0);
    let ctx = RunContext::with(
        "resume",
        4,
        None,
        Some(Journal::create(&path).expect("create journal")),
    );
    let first = ctx.run(
        &labels(count),
        plan.wrap(|i| {
            first_exec.fetch_add(1, Ordering::Relaxed);
            cell_value(i)
        }),
    );
    let status = ctx.finish();
    assert_eq!(status.failed, doomed.len());
    assert_eq!(first_exec.load(Ordering::Relaxed), count - doomed.len());

    // Pass 2: resume with the faults gone (a transient environment
    // problem fixed, say). Journaled cells must replay without executing;
    // only the previously failed ones run.
    let second_exec = AtomicUsize::new(0);
    let ctx = RunContext::with(
        "resume",
        4,
        None,
        Some(Journal::resume(&path).expect("resume journal")),
    );
    let second = ctx.run(&labels(count), |i| {
        second_exec.fetch_add(1, Ordering::Relaxed);
        cell_value(i)
    });
    let status = ctx.finish();
    assert_eq!(second_exec.load(Ordering::Relaxed), doomed.len());
    assert_eq!(status.resumed, count - doomed.len());
    assert_eq!(status.failed, 0);
    for (i, outcome) in second.iter().enumerate() {
        let expected = cell_value(i);
        let got = outcome.value().expect("all cells complete on resume");
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "cell {i} replays bit-exactly"
        );
        if !doomed.contains(&i) {
            let original = first[i].value().expect("completed in pass 1");
            assert_eq!(got.to_bits(), original.to_bits());
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn rendered_tables_are_deterministic_across_widths_and_schedules() {
    let count = 32;
    let spec = FaultSpec {
        panics: 3,
        delays: 2,
        delay: Duration::from_secs(600),
    };
    let deadline = Some(Duration::from_secs(30));
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::from_seed(seed, count, &spec);
        let reference = {
            let ctx = RunContext::with("det", 1, deadline, None);
            let outcomes = ctx.run(&labels(count), plan.wrap(cell_value));
            ctx.finish();
            render(&outcomes)
        };
        // The same schedule renders the same table at every pool width.
        for threads in [2, 8] {
            let ctx = RunContext::with("det", threads, deadline, None);
            let outcomes = ctx.run(&labels(count), plan.wrap(cell_value));
            ctx.finish();
            assert_eq!(
                render(&outcomes),
                reference,
                "seed {seed}, {threads} threads"
            );
        }
        // Markers are where the plan says they are, values everywhere else.
        assert!(reference.contains("ERR"));
        assert!(reference.contains("TIMEOUT"));
    }
    // Different schedules differ only in which cells are marked: every
    // unfaulted cell's rendering is schedule-independent.
    let plan_a = FaultPlan::from_seed(1, count, &spec);
    let plan_b = FaultPlan::from_seed(2, count, &spec);
    let run = |plan: &FaultPlan| {
        let ctx = RunContext::with("det", 4, deadline, None);
        let outcomes = ctx.run(&labels(count), plan.wrap(cell_value));
        ctx.finish();
        outcomes
    };
    let a = run(&plan_a);
    let b = run(&plan_b);
    for i in 0..count {
        if !plan_a.faulted_cells().contains(&i) && !plan_b.faulted_cells().contains(&i) {
            assert_eq!(
                a[i].value().map(|v| v.to_bits()),
                b[i].value().map(|v| v.to_bits()),
                "cell {i} is schedule-independent"
            );
        }
    }
}

#[test]
fn a_real_table_builder_degrades_gracefully_under_injection() {
    // Drive one genuine experiment table through an injected panic by
    // running its cells under a poisoned environment: we reuse the
    // table2 builder's shape via a tiny custom sweep instead of the full
    // suite (the real builders are exercised nightly; here we pin the
    // rendering contract cheaply).
    let ctx = RunContext::with("mini", 2, None, None);
    let outcomes = ctx.run(&labels(6), |i| {
        if i == 2 {
            panic!("injected fault: cell 2 panicked");
        }
        vec![pct(cell_value(i)), "ok".to_string()]
    });
    let mut t = Table::new(["cell", "value", "state"]);
    for (i, outcome) in outcomes.iter().enumerate() {
        let mut row = vec![i.to_string()];
        row.extend(cells_or_marker(outcome, 2, Clone::clone));
        t.row(row);
    }
    let text = t.to_string();
    let err_cells: Vec<&str> = text.lines().filter(|l| l.contains("ERR")).collect();
    assert_eq!(
        err_cells.len(),
        1,
        "exactly the injected cell is marked:\n{text}"
    );
    assert!(
        err_cells[0].starts_with('2'),
        "row 2 carries the marker:\n{text}"
    );
    let status = ctx.finish();
    assert_eq!(status.failed, 1);
    assert_eq!(status.cells, 6);
}
