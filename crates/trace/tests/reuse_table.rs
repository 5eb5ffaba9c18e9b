//! Every suite kernel's reuse walk keeps a paged last-use table.
//!
//! A walk whose table went to the hash map runs several times slower
//! with the same histogram, so only this check sees it. The table gives
//! up, if ever, during a kernel's first touches of its arrays, while few
//! lines are known and the span is wide; walking a prefix covers that
//! burst without a debug build analyzing every kernel's full trace.

use pad_cache_sim::ReuseAnalyzer;
use pad_core::DataLayout;
use pad_trace::CompiledTrace;

/// Accesses analyzed per kernel.
const PREFIX: u64 = 1 << 17;

#[test]
fn suite_reuse_walks_keep_a_paged_last_use_table() {
    let mut hashed = Vec::new();
    for kernel in pad_kernels::suite() {
        let program = (kernel.spec)(kernel.default_n);
        let trace = CompiledTrace::compile(&program, &DataLayout::original(&program));
        let mut analyzers = [ReuseAnalyzer::new(32), ReuseAnalyzer::new(64)];
        let mut fed = 0;
        trace.for_each(|access| {
            if fed < PREFIX {
                fed += 1;
                for r in &mut analyzers {
                    r.access(access);
                }
            }
        });
        for r in &analyzers {
            if r.is_hashed() {
                hashed.push(format!("{} ({}-byte lines)", kernel.name, r.line_size()));
            }
        }
    }
    assert!(
        hashed.is_empty(),
        "walks that went to the hash map: {hashed:?}"
    );
}
