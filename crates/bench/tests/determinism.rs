//! The parallel experiment runner must be invisible in the output: every
//! figure table is assembled in cell order from per-cell results, so the
//! rendered table (and therefore the CSV) is byte-identical whatever
//! thread count `RIVERA_THREADS` selects. These tests pin that down by
//! rendering the same experiments at several explicit pool widths.

use pad_bench::experiments::{mrc_kernel_table_ctx, table2_table};
use pad_bench::harness::{miss_rates, RunContext, Variant};
use pad_bench::pool::run_cells_on;
use pad_cache_sim::{Access, CacheConfig, ReuseAnalyzer, ReuseHistogram, XorShift64Star};
use pad_report::Table;

const WIDTHS: [usize; 3] = [2, 5, 16];

#[test]
fn table2_is_identical_at_any_pool_width() {
    let serial = table2_table(1).to_string();
    for threads in WIDTHS {
        assert_eq!(
            table2_table(threads).to_string(),
            serial,
            "{threads} threads"
        );
    }
}

/// A miniature figure-8-style sweep (small problem sizes so it stays fast
/// under `cargo test`): simulation cells in parallel, table assembled
/// serially — the same shape every `fig*_table` builder uses.
fn mini_fig(threads: usize) -> String {
    let cache = CacheConfig::direct_mapped(2048, 32);
    let kernels: [(&str, pad_bench::harness::SpecFn); 3] = [
        ("jacobi", pad_kernels::jacobi::spec),
        ("shal", pad_kernels::shal::spec),
        ("expl", pad_kernels::expl::spec),
    ];
    let sizes = [48i64, 64, 96];
    let cells: Vec<(usize, i64)> = (0..kernels.len())
        .flat_map(|k| sizes.iter().map(move |&n| (k, n)))
        .collect();
    let rows = run_cells_on(threads, cells.len(), |i| {
        let (k, n) = cells[i];
        let p = (kernels[k].1)(n);
        let orig = miss_rates(&p, Variant::Original, &[cache])[0];
        let pad = miss_rates(&p, Variant::Pad, &[cache])[0];
        (orig, pad)
    });
    let mut t = Table::new(["kernel", "n", "orig %", "pad %"]);
    for (&(k, n), &(orig, pad)) in cells.iter().zip(&rows) {
        t.row([
            kernels[k].0.to_string(),
            n.to_string(),
            format!("{orig:.4}"),
            format!("{pad:.4}"),
        ]);
    }
    t.to_string()
}

#[test]
fn simulated_tables_are_identical_at_any_pool_width() {
    let serial = mini_fig(1);
    assert!(serial.contains("jacobi"));
    for threads in WIDTHS {
        assert_eq!(mini_fig(threads), serial, "{threads} threads");
    }
}

/// A reuse histogram over one chunk of a synthetic trace stream. Chunks
/// are disjoint traces (each cell analyzes its own slice from scratch),
/// which is exactly the shape of per-cell histograms a pooled sweep
/// merges.
fn chunk_histogram(seed: u64) -> ReuseHistogram {
    let mut rng = XorShift64Star::new(seed);
    let mut analyzer = ReuseAnalyzer::new(32);
    for _ in 0..500 {
        analyzer.access(Access::read(rng.below(128) * 32));
    }
    analyzer.histogram().clone()
}

#[test]
fn histogram_merge_is_commutative_on_disjoint_chunks() {
    let a = chunk_histogram(1);
    let b = chunk_histogram(2);
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab, ba);
    assert_eq!(ab.accesses(), a.accesses() + b.accesses());
    assert_eq!(ab.cold(), a.cold() + b.cold());
}

#[test]
fn histogram_merge_is_associative() {
    let (a, b, c) = (chunk_histogram(3), chunk_histogram(4), chunk_histogram(5));
    // (a ∪ b) ∪ c
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    // a ∪ (b ∪ c)
    let mut bc = b.clone();
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);
    assert_eq!(left, right);
    // Every capacity query agrees, not just structural equality.
    for cap in [1u64, 2, 8, 64, 1024] {
        assert_eq!(left.misses_at(cap), right.misses_at(cap));
    }
}

/// Chunk-local histograms produced by pool workers and merged in cell
/// order must be byte-identical at every pool width (the
/// `ReuseHistogram::merge` contract).
#[test]
fn merged_histograms_are_identical_at_any_pool_width() {
    let cells = 12usize;
    let merged_at = |threads: usize| -> ReuseHistogram {
        let parts = run_cells_on(threads, cells, |i| chunk_histogram(100 + i as u64));
        let mut merged = ReuseHistogram::new();
        for part in &parts {
            merged.merge(part);
        }
        merged
    };
    let serial = merged_at(1);
    assert!(serial.accesses() > 0);
    for threads in [1usize, 2, 8] {
        let merged = merged_at(threads);
        assert_eq!(merged, serial, "{threads} threads");
        assert_eq!(
            format!("{merged:?}"),
            format!("{serial:?}"),
            "{threads} threads (byte-level)"
        );
    }
}

/// The miss-ratio-curve builder renders byte-identical tables (and so
/// CSVs) at any pool width.
fn mrc_table_at(threads: usize) -> String {
    let sizes = [256u64, 1024, 4096, 16 * 1024];
    let (t, _, _) = mrc_kernel_table_ctx(
        &RunContext::plain(threads),
        "JACOBI",
        pad_kernels::jacobi::spec,
        48,
        &sizes,
    );
    t.to_string()
}

#[test]
fn mrc_tables_are_identical_at_any_pool_width() {
    let serial = mrc_table_at(1);
    assert!(serial.contains("benefit gone at"));
    for threads in WIDTHS {
        assert_eq!(mrc_table_at(threads), serial, "{threads} threads");
    }
}
