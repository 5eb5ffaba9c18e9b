//! Live metrics for the search, on the process-global `MetricsRegistry`.
//!
//! Handles are registered once per process and cached in `OnceLock`s (the
//! same pattern the advisor engine uses), so the per-event cost with
//! metrics off is one relaxed atomic load. Exported series:
//!
//! * `pad_search_candidates_total{strategy=...}` — fast-rung evaluations;
//! * `pad_search_promoted_total{strategy=...}` — frontier candidates
//!   promoted to exact confirmation;
//! * `pad_search_discarded_total{strategy=...}` — promoted candidates
//!   whose exact confirmation panicked or was skipped;
//! * `pad_search_eval_us{rung=fast|exact}` — evaluation latency: one
//!   `fast` sample per search, its mean fast-rung evaluation time (the
//!   search reads the clock twice, not twice per candidate), and one
//!   `exact` sample per exact confirmation.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use pad_telemetry::{metrics_enabled, registry, Counter, LatencyHistogram};

/// Metric label values for the two strategies, indexed by slot.
const STRATEGIES: [&str; 2] = ["beam", "anneal"];

/// Label slot of the fast rung in [`eval_histograms`].
const RUNG_FAST: usize = 0;
/// Label slot of the exact rung in [`eval_histograms`].
pub(crate) const RUNG_EXACT: usize = 1;
const RUNGS: [&str; 2] = ["fast", "exact"];

fn strategy_slot(strategy: &str) -> usize {
    usize::from(strategy != STRATEGIES[0])
}

fn counters(name: &'static str) -> [Arc<Counter>; 2] {
    STRATEGIES.map(|s| registry().counter_with(name, &[("strategy", s)]))
}

fn eval_histograms() -> &'static [Arc<LatencyHistogram>; 2] {
    static H: OnceLock<[Arc<LatencyHistogram>; 2]> = OnceLock::new();
    H.get_or_init(|| RUNGS.map(|r| registry().histogram_with("pad_search_eval_us", &[("rung", r)])))
}

/// Records one evaluation's latency on the given rung slot.
pub(crate) fn record_eval_us(rung: usize, us: u64) {
    if !metrics_enabled() {
        return;
    }
    eval_histograms()[rung].record(us);
}

/// Records one search's mean fast-rung evaluation time: `spent` over
/// its `evals` evaluations, rounded to the microsecond.
pub(crate) fn record_fast_mean(spent: Duration, evals: u64) {
    if evals > 0 {
        record_eval_us(
            RUNG_FAST,
            (spent.as_secs_f64() * 1e6 / evals as f64).round() as u64,
        );
    }
}

/// Records a finished search run's candidate/promotion/discard totals.
pub(crate) fn record_run(strategy: &str, candidates: u64, promoted: u64, discarded: u64) {
    if !metrics_enabled() {
        return;
    }
    struct Handles {
        candidates: [Arc<Counter>; 2],
        promoted: [Arc<Counter>; 2],
        discarded: [Arc<Counter>; 2],
    }
    static H: OnceLock<Handles> = OnceLock::new();
    let h = H.get_or_init(|| Handles {
        candidates: counters("pad_search_candidates_total"),
        promoted: counters("pad_search_promoted_total"),
        discarded: counters("pad_search_discarded_total"),
    });
    let slot = strategy_slot(strategy);
    h.candidates[slot].add(candidates);
    h.promoted[slot].add(promoted);
    h.discarded[slot].add(discarded);
}
