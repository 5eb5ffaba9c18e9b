//! The process-wide memo of reuse histograms behind exact answers.
//!
//! An exact answer's miss-ratio curve depends only on the program, the
//! layout and the line size: neither the cache's size and ways nor the
//! algorithm that chose the layout enter the reuse walk. The answer store
//! keys whole answers by (program, cache, algorithm), so a nest asked
//! about under several geometries or algorithms, or searched with several
//! seeds, would walk the same (program, layout, line size) for its curve
//! each time. This memo keeps each such walk's histogram once per
//! process, compactly, and evicts its oldest entry past
//! [`REUSE_MEMO_CAPACITY`].
//!
//! Trace answers never come here: the file behind a path can change
//! between requests, which is also why the store never persists them.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

use pad_bench::journal::fingerprint;
use pad_cache_sim::ReuseHistogram;
use pad_core::DataLayout;
use pad_ir::Program;
use pad_telemetry as telemetry;

/// Histograms the memo holds before each insert evicts its oldest.
pub const REUSE_MEMO_CAPACITY: usize = 4096;

/// Memoized histograms by key, each stored as its cold count followed by
/// its bucket counts up to the last nonzero one, with keys in insertion
/// order for eviction.
#[derive(Default)]
struct Memo {
    entries: HashMap<u64, Box<[u64]>>,
    order: VecDeque<u64>,
}

static MEMO: LazyLock<Mutex<Memo>> = LazyLock::new(Mutex::default);

/// The memo key of one reuse walk: an FNV fingerprint of the program's
/// display form (so kernel and inline requests for the same nest share
/// entries, as in the answer store), every array's base, element size
/// and padded dims in `layout`, and the line size. The display form
/// omits element sizes, so without them `array A(1024)` and
/// `array A(1024) elem 4` would share a key while walking different
/// addresses.
pub(crate) fn key(program_text: &str, program: &Program, layout: &DataLayout, line: u64) -> u64 {
    let mut canonical = format!("{program_text}|{line}");
    for (id, _) in program.arrays_with_ids() {
        canonical.push_str(&format!(
            "|{}*{}",
            layout.base_addr(id),
            layout.elem_size(id)
        ));
        for dim in layout.dims(id) {
            canonical.push_str(&format!(":{}@{}", dim.size, dim.lower));
        }
    }
    fingerprint("reuse-memo", &canonical)
}

/// The memoized histogram under `key`, counted as a hit or a miss.
pub(crate) fn get(key: u64) -> Option<ReuseHistogram> {
    let hist = MEMO
        .lock()
        .ok()
        .and_then(|memo| memo.entries.get(&key).map(|entry| decode(entry)));
    record(hist.is_some());
    hist
}

/// Memoizes `hist` under `key`, evicting the oldest entry when full.
pub(crate) fn insert(key: u64, hist: &ReuseHistogram) {
    let entry = encode(hist);
    let Ok(mut memo) = MEMO.lock() else { return };
    if memo.entries.insert(key, entry).is_some() {
        return; // a concurrent walk of the same triple got here first
    }
    memo.order.push_back(key);
    if memo.order.len() > REUSE_MEMO_CAPACITY {
        if let Some(oldest) = memo.order.pop_front() {
            memo.entries.remove(&oldest);
        }
    }
}

fn encode(hist: &ReuseHistogram) -> Box<[u64]> {
    std::iter::once(hist.cold())
        .chain(hist.counts().iter().copied())
        .collect()
}

fn decode(entry: &[u64]) -> ReuseHistogram {
    let mut hist = ReuseHistogram::new();
    hist.record_weighted(None, entry[0]);
    for (bucket, &count) in entry[1..].iter().enumerate() {
        // Bucket 0 is distance 0; bucket b ≥ 1 starts at 2^(b−1).
        let distance = bucket.checked_sub(1).map_or(0, |b| 1u64 << b);
        hist.record_weighted(Some(distance), count);
    }
    hist
}

/// Counts one lookup in `pad_engine_reuse_memo_total{outcome=...}`.
/// Handles are registered once and cached.
fn record(hit: bool) {
    if !telemetry::metrics_enabled() {
        return;
    }
    static COUNTERS: OnceLock<[Arc<telemetry::Counter>; 2]> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        ["hit", "miss"].map(|outcome| {
            telemetry::registry()
                .counter_with("pad_engine_reuse_memo_total", &[("outcome", outcome)])
        })
    });
    counters[usize::from(!hit)].inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_cache_sim::{Access, ReuseAnalyzer};

    #[test]
    fn entries_decode_to_the_histogram_they_encode() {
        let mut r = ReuseAnalyzer::new(1);
        for i in 0..5_000u64 {
            r.access(Access::read(i * i % 1_021));
        }
        let mut hists = vec![ReuseHistogram::new(), r.into_histogram()];
        let mut wide = ReuseHistogram::new();
        for d in [0, 1, 2, 3, 1 << 40, u64::MAX] {
            wide.record(Some(d));
        }
        hists.push(wide);
        for hist in hists {
            let entry = encode(&hist);
            assert_eq!(entry.len(), 1 + hist.counts().len());
            assert_eq!(decode(&entry), hist);
        }
    }

    #[test]
    fn keys_separate_layouts_and_line_sizes() {
        let program = pad_kernels::suite()
            .into_iter()
            .find(|k| k.name == "JACOBI512")
            .map(|k| (k.spec)(32))
            .expect("JACOBI512 is a built-in kernel");
        let text = program.to_string();
        let original = DataLayout::original(&program);
        let mut moved = original.clone();
        let (id, _) = program.arrays_with_ids().nth(1).expect("two arrays");
        moved.set_base_addr(id, original.base_addr(id) + 64);
        let k = key(&text, &program, &original, 32);
        assert_eq!(k, key(&text, &program, &original.clone(), 32), "stable");
        assert_ne!(k, key(&text, &program, &moved, 32), "layout");
        assert_ne!(k, key(&text, &program, &original, 64), "line size");

        // Twins that differ only in the last array's element size: the
        // same display form and the same bases and dims at the original
        // layout, but 8- against 4-byte strides through `B`.
        let twin = |elem: &str| {
            pad_ir::parse(&format!(
                "program twin\narray A(64, 64)\narray B(64, 64){elem}\n\
                 do j = 1, 64\n  do i = 1, 64\n    t = A(i, j) + B(i, j)\n  end\nend\n"
            ))
            .expect("twin parses")
        };
        let (eight, four) = (twin(""), twin(" elem 4"));
        let text = eight.to_string();
        assert_eq!(text, four.to_string(), "one display form");
        let (at8, at4) = (DataLayout::original(&eight), DataLayout::original(&four));
        for (id, _) in eight.arrays_with_ids() {
            assert_eq!(
                (at8.base_addr(id), at8.dims(id)),
                (at4.base_addr(id), at4.dims(id))
            );
        }
        assert_ne!(
            key(&text, &eight, &at8, 32),
            key(&text, &four, &at4, 32),
            "element size"
        );
    }
}
