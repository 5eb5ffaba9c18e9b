//! In-memory spans recorded around calls into each layer, and the
//! self-time arithmetic the per-layer profile is built from.
//!
//! A span is one call (or, for a sink fed chunk by chunk inside one
//! walk, the sum of its per-chunk calls): name, start, end, parent,
//! request id, the time it was busy, and the accesses it processed. A
//! span's *self time* is its busy time minus the busy time of its
//! children, so the self times of one request add up to its root spans.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `cache-sim.reuse`.
    pub name: &'static str,
    /// Request (or cell) the call served.
    pub req: u32,
    /// Index of the enclosing span in the same recorder, or [`ROOT`].
    pub parent: u32,
    /// Start, ns since the run's origin.
    pub start: u64,
    /// End, ns since the run's origin.
    pub end: u64,
    /// Time spent inside the call(s), ns. Equals `end - start` for a
    /// single call; for an aggregated sink it is the sum of its calls.
    pub busy: u64,
    /// Accesses processed (0 when not applicable).
    pub items: u64,
    /// Thread the call ran on (small dense index).
    pub thread: u32,
}

/// Records spans for one request on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    req: u32,
    thread: u32,
    /// The spans recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for request `req` on `thread`, timing from `origin`.
    pub fn new(origin: Instant, req: u32, thread: u32) -> Recorder {
        Recorder { origin, req, thread, spans: Vec::new() }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            req: self.req,
            parent,
            start,
            end: start,
            busy: 0,
            items: 0,
            thread: self.thread,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` now, crediting `items` accesses.
    pub fn close(&mut self, id: u32, items: u64) {
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end = end;
        s.busy = end - s.start;
        s.items += items;
    }

    /// Times `f` as one span under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, 0);
        out
    }

    /// Adds one aggregated span (see [`Span::busy`]).
    pub fn aggregate(&mut self, name: &'static str, parent: u32, start: u64, end: u64, busy: u64, items: u64) -> u32 {
        self.spans.push(Span { name, req: self.req, parent, start, end, busy, items, thread: self.thread });
        (self.spans.len() - 1) as u32
    }
}

/// A small dense index for the calling thread (stable for its lifetime).
pub fn thread_index() -> u32 {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static INDEX: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// Self time of every span (busy minus children's busy, floored at 0),
/// index-aligned with `spans`. Parents index into the same slice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_busy = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_busy[s.parent as usize] += s.busy;
        }
    }
    spans
        .iter()
        .zip(child_busy)
        .map(|(s, c)| s.busy.saturating_sub(c))
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of busy time, ns.
    pub busy: u64,
    /// Sum of self time, ns.
    pub self_ns: u64,
    /// Sum of accesses processed.
    pub items: u64,
}

impl Totals {
    /// Mean busy time per call in `unit_ns` units (0 with no calls).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy as f64 / self.calls as f64 / unit_ns
        }
    }

    /// Throughput in M accesses per second of busy time (0 with no time).
    pub fn busy_maps(&self) -> f64 {
        if self.busy == 0 {
            0.0
        } else {
            self.items as f64 * 1e3 / self.busy as f64
        }
    }

    /// Throughput in M accesses per second of self time.
    pub fn self_maps(&self) -> f64 {
        if self.self_ns == 0 {
            0.0
        } else {
            self.items as f64 * 1e3 / self.self_ns as f64
        }
    }
}

/// Sums spans by name. `spans` is a concatenation of per-request
/// recorders, each with its own parent indices, so self times must be
/// computed per recorder before merging.
pub fn totals(recorders: &[Vec<Span>]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for spans in recorders {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy += s.busy;
            t.self_ns += own;
            t.items += s.items;
        }
    }
    out
}

/// Writes every span as one NDJSON line (the run's trace file).
pub fn write_ndjson(path: &Path, header: &str, recorders: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for spans in recorders {
        for s in spans {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                r#"{{"name":"{}","req":{},"parent":{parent},"start_ns":{},"end_ns":{},"busy_ns":{},"items":{},"thread":{}}}"#,
                s.name, s.req, s.start, s.end, s.busy, s.items, s.thread
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64, busy: u64, items: u64) -> Span {
        Span { name, req: 0, parent, start, end, busy, items, thread: 0 }
    }

    #[test]
    fn self_time_subtracts_children_busy() {
        // walk [0, 100) with two aggregated sinks busy 30 and 50 inside it,
        // and a compile span beside it.
        let spans = vec![
            span("trace.walk", ROOT, 0, 100, 100, 1000),
            span("cache-sim.dm", 0, 5, 95, 30, 1000),
            span("cache-sim.reuse", 0, 6, 96, 50, 1000),
            span("trace.compile", ROOT, 100, 110, 10, 0),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50, 10]);
    }

    #[test]
    fn self_time_never_goes_negative_and_nests() {
        let spans = vec![
            span("a", ROOT, 0, 10, 10, 0),
            span("b", 0, 0, 10, 12, 0), // over-reported child
            span("c", 1, 0, 5, 5, 0),
        ];
        assert_eq!(self_times(&spans), vec![0, 7, 5]);
    }

    #[test]
    fn totals_merge_per_request_recorders() {
        let r1 = vec![span("trace.walk", ROOT, 0, 100, 100, 400), span("cache-sim.dm", 0, 0, 100, 60, 400)];
        let r2 = vec![span("trace.walk", ROOT, 0, 50, 50, 100), span("cache-sim.dm", 0, 0, 50, 20, 100)];
        let t = totals(&[r1, r2]);
        let walk = t["trace.walk"];
        assert_eq!((walk.calls, walk.busy, walk.self_ns, walk.items), (2, 150, 70, 500));
        // 500 accesses in 70 ns of self time = 7142.857 M/s.
        assert!((walk.self_maps() - 500.0 * 1e3 / 70.0).abs() < 1e-9);
        assert_eq!(t["cache-sim.dm"].busy_maps(), 500.0 * 1e3 / 80.0);
        assert_eq!(t["cache-sim.dm"].mean(1.0), 40.0);
    }

    #[test]
    fn recorder_times_nested_calls() {
        let mut r = Recorder::new(Instant::now(), 3, 1);
        let outer = r.open("outer", ROOT);
        let x = r.time("inner", outer, || 41 + 1);
        r.close(outer, 7);
        assert_eq!(x, 42);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[1].parent, outer);
        assert!(r.spans[0].busy >= r.spans[1].busy);
        assert_eq!((r.spans[0].req, r.spans[0].thread, r.spans[0].items), (3, 1, 7));
    }
}
