//! End-of-sweep aggregation of a recorded event stream.
//!
//! The harness renders the result as a human-readable table; keeping the
//! aggregation here (over plain structs) lets it be tested without any
//! rendering dependency and reused by any sink.

use crate::event::{Event, EventKind, Value};
use crate::histogram::Histogram;

/// Aggregate of one cell label's execution (every span with that label).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// The cell's label.
    pub label: String,
    /// Total wall time across the label's spans, microseconds.
    pub total_us: u64,
    /// Thread id of the last span.
    pub thread: u64,
}

/// Aggregate simulation throughput for one kernel/trace name.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelThroughput {
    /// The compiled trace's program name.
    pub name: String,
    /// Batched walks performed.
    pub walks: u64,
    /// Total simulated accesses across walks.
    pub accesses: u64,
    /// Total walk wall time, microseconds.
    pub busy_us: u64,
}

impl KernelThroughput {
    /// Simulated accesses per second over the busy time.
    pub fn accesses_per_sec(&self) -> f64 {
        if self.busy_us == 0 {
            0.0
        } else {
            self.accesses as f64 / (self.busy_us as f64 / 1e6)
        }
    }
}

/// Everything the end-of-sweep summary table reports.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySummary {
    /// Per-cell aggregates, slowest first.
    pub cells: Vec<CellSummary>,
    /// Distribution of per-span cell durations (microseconds).
    pub cell_durations_us: Histogram,
    /// `timeout` instants observed.
    pub timeouts: u64,
    /// `err` instants observed.
    pub errors: u64,
    /// Per-kernel simulation throughput, highest access count first.
    pub kernels: Vec<KernelThroughput>,
    /// Pad-decision events observed.
    pub pad_decisions: u64,
    /// Sampled cache-counter snapshots observed.
    pub cache_samples: u64,
}

/// Folds an event stream into a [`TelemetrySummary`].
pub fn summarize(events: &[Event]) -> TelemetrySummary {
    let mut summary = TelemetrySummary::default();
    let mut cells: Vec<CellSummary> = Vec::new();
    let mut kernels: Vec<KernelThroughput> = Vec::new();

    for event in events {
        match (event.category, &event.kind) {
            ("cell", EventKind::Span { dur_us }) => {
                summary.cell_durations_us.record(*dur_us);
                match cells.iter_mut().find(|c| c.label == event.name) {
                    Some(cell) => {
                        cell.total_us += dur_us;
                        cell.thread = event.tid;
                    }
                    None => cells.push(CellSummary {
                        label: event.name.clone(),
                        total_us: *dur_us,
                        thread: event.tid,
                    }),
                }
            }
            ("cell", EventKind::Instant) => match event.name.as_str() {
                "timeout" => summary.timeouts += 1,
                "err" => summary.errors += 1,
                _ => {}
            },
            ("sim", EventKind::Span { dur_us }) => {
                let accesses = event.arg("accesses").and_then(Value::as_u64).unwrap_or(0);
                match kernels.iter_mut().find(|k| k.name == event.name) {
                    Some(k) => {
                        k.walks += 1;
                        k.accesses += accesses;
                        k.busy_us += dur_us;
                    }
                    None => kernels.push(KernelThroughput {
                        name: event.name.clone(),
                        walks: 1,
                        accesses,
                        busy_us: *dur_us,
                    }),
                }
            }
            ("pad", _) => summary.pad_decisions += 1,
            ("cache", EventKind::Counter) => summary.cache_samples += 1,
            _ => {}
        }
    }

    cells.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.label.cmp(&b.label)));
    kernels.sort_by(|a, b| b.accesses.cmp(&a.accesses).then(a.name.cmp(&b.name)));
    summary.cells = cells;
    summary.kernels = kernels;
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, Value};

    fn span(cat: &'static str, name: &str, dur_us: u64, args: Vec<(&'static str, Value)>) -> Event {
        Event {
            ts_us: 0,
            tid: 1,
            category: cat,
            name: name.to_string(),
            kind: EventKind::Span { dur_us },
            args,
        }
    }

    #[test]
    fn cells_aggregate_by_label_and_sort_by_duration() {
        let events = vec![
            span("cell", "fig: fast", 10, vec![]),
            span("cell", "fig: slow", 500, vec![]),
            span("cell", "fig: slow", 700, vec![]),
        ];
        let s = summarize(&events);
        assert_eq!(s.cells.len(), 2);
        assert_eq!(s.cells[0].label, "fig: slow");
        assert_eq!(s.cells[0].total_us, 1200);
        assert_eq!(s.cells[1].total_us, 10);
        assert_eq!(s.cell_durations_us.count(), 3);
    }

    #[test]
    fn kernel_throughput_sums_walks() {
        let events = vec![
            span(
                "sim",
                "jacobi",
                1_000_000,
                vec![("accesses", Value::U64(2_000_000))],
            ),
            span(
                "sim",
                "jacobi",
                1_000_000,
                vec![("accesses", Value::U64(2_000_000))],
            ),
            span("sim", "dot", 10, vec![("accesses", Value::U64(5))]),
        ];
        let s = summarize(&events);
        assert_eq!(s.kernels.len(), 2);
        assert_eq!(s.kernels[0].name, "jacobi");
        assert_eq!(s.kernels[0].walks, 2);
        assert_eq!(s.kernels[0].accesses, 4_000_000);
        let rate = s.kernels[0].accesses_per_sec();
        assert!((rate - 2_000_000.0).abs() < 1.0, "rate = {rate}");
    }

    #[test]
    fn failures_and_decisions_are_counted() {
        let events = vec![
            Event::instant("cell", "timeout", vec![]),
            Event::instant("cell", "err", vec![]),
            Event::instant("pad", "intra/A", vec![]),
            Event::counter("cache", "jacobi/dm16k", vec![]),
            Event::instant("cell", "something-else", vec![]),
        ];
        let s = summarize(&events);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.pad_decisions, 1);
        assert_eq!(s.cache_samples, 1);
    }

    #[test]
    fn empty_stream_is_empty_summary() {
        let s = summarize(&[]);
        assert!(s.cells.is_empty());
        assert!(s.kernels.is_empty());
        assert_eq!(s.cell_durations_us.count(), 0);
    }
}
