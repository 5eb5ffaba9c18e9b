//! Search-based global pad optimizer.
//!
//! Rivera & Tseng's `PADLITE`/`PAD` heuristics pad one variable at a
//! time. Following Chen & Kandemir's constraint-network observation that
//! joint optimization finds layouts greedy passes miss, this crate
//! searches the *joint* space of inter gaps and intra pads over all
//! variables at once:
//!
//! * [`space`] — the bounded [`PadVector`] representation, with ranges
//!   derived from `pad_core`'s conflict analysis ([`pad_core::search_bounds`])
//!   and FNV fingerprints collapsing candidates that are equivalent
//!   modulo cache-set placement;
//! * `objective` — the two-rung evaluator: the analytic fast rung for
//!   every candidate, exact `simulate_batch` confirmation for promoted
//!   frontier candidates only, fanned through `pad_bench::pool`
//!   isolation cells (a panicking candidate is discarded, not fatal);
//! * `beam` — deterministic beam search with constraint-propagation
//!   pruning; `anneal` — seeded, byte-reproducible simulated
//!   annealing; [`search_with`] runs the one [`StrategyKind`] names;
//! * [`experiment`] — the `fig_search` experiment charting
//!   miss-reduction vs analysis-cost frontiers against PADLITE/PAD.
//!
//! **Never worse than the paper, by construction:** every search starts
//! from three seeds — the original layout, PADLITE's, and PAD's — and
//! the final answer is the exact-confirmed minimum over all promoted
//! candidates, so the result can only tie or beat both heuristics (the
//! property suite asserts this over hundreds of random kernels).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod beam;
pub mod experiment;
mod metrics;
mod objective;
pub mod space;

use std::collections::BTreeSet;
use std::time::Instant;

use pad_bench::faults::FaultPlan;
use pad_cache_sim::CacheConfig;
use pad_core::{DataLayout, PaddingPipeline};
use pad_ir::Program;
use pad_telemetry::metrics_enabled;
use pad_trace::padding_config_for;

use objective::Objective;
pub use space::{cmp_candidates, set_signature, Candidate, Move, PadVector, SearchSpace};

/// Which search strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Deterministic beam search.
    Beam,
    /// Seeded simulated annealing.
    Anneal,
}

impl StrategyKind {
    /// The metric/CSV label of the strategy.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Beam => "beam",
            StrategyKind::Anneal => "anneal",
        }
    }
}

/// A complete search parameterization. Nothing reads it from the
/// environment: each entry point (CLI, bins, advisor) builds its own and
/// passes it down.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Strategy to run.
    pub strategy: StrategyKind,
    /// Fast-evaluation candidate budget.
    pub budget: u64,
    /// Annealer seed (ignored by the beam).
    pub seed: u64,
    /// Beam width (ignored by the annealer).
    pub beam_width: usize,
    /// Thread width for the exact-confirmation fan-out.
    pub threads: usize,
    /// Promote the frontier to exact confirmation (`false` = fast-rung
    /// only, for the advisor's degraded fast mode).
    pub confirm_exact: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            strategy: StrategyKind::Beam,
            budget: 800,
            seed: 0x5EED,
            beam_width: 6,
            threads: 1,
            confirm_exact: true,
        }
    }
}

/// One promoted frontier candidate, as recorded in [`SearchResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct Promotion {
    /// Fast-rung (analytic) miss score.
    pub fast: f64,
    /// Exact miss count; `None` when the confirmation panicked or was
    /// skipped (the candidate is discarded).
    pub exact: Option<u64>,
    /// Fast evaluations consumed when the candidate was discovered.
    pub cost: u64,
    /// Cache-set-equivalence fingerprint.
    pub signature: u64,
}

/// The outcome of one search run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Strategy label (`"beam"` or `"anneal"`).
    pub strategy: &'static str,
    /// The winning candidate (exact-confirmed minimum when
    /// `confirm_exact`, fast-rung minimum otherwise), with its layout.
    pub best: Candidate<DataLayout>,
    /// The winner's exact miss count (`None` in fast-only mode).
    pub best_exact: Option<u64>,
    /// Every promoted candidate in promotion order: seeds first, and the
    /// first seed is the original layout (the zero vector).
    pub promotions: Vec<Promotion>,
    /// Improvement points of the exact-confirmed frontier:
    /// `(analysis cost in fast evaluations, exact misses)`.
    pub frontier: Vec<(u64, u64)>,
    /// Fast evaluations consumed.
    pub fast_evals: u64,
    /// Exact evaluations sequenced.
    pub exact_evals: u64,
    /// Promoted candidates discarded by faults or skips.
    pub discarded: u64,
}

/// Deterministic test/diagnostic hooks threaded into a search run.
#[derive(Debug)]
pub struct SearchHooks {
    /// Fault plan injected into exact confirmations (indices are exact
    /// sequence numbers).
    pub faults: FaultPlan,
    /// Exact sequence numbers to skip: those confirmations are discarded
    /// unrun but still consume their numbers, so a faulted run can be
    /// compared with a clean run minus the same candidates.
    pub skip: BTreeSet<u64>,
    /// Scramble the move list with this seed before searching; results
    /// must be unchanged (order-independence hook).
    pub permute_moves: Option<u64>,
}

impl Default for SearchHooks {
    fn default() -> Self {
        SearchHooks {
            faults: FaultPlan::none(),
            skip: BTreeSet::new(),
            permute_moves: None,
        }
    }
}

/// Runs the configured search over `program`'s layout space for `cache`.
pub fn search(program: &Program, cache: &CacheConfig, cfg: &SearchConfig) -> SearchResult {
    search_with(program, cache, cfg, SearchHooks::default())
}

/// [`search`] with explicit [`SearchHooks`].
///
/// The strategy explores with *fast* scores only and returns its
/// promotion chain: the candidates that improved the best fast score, in
/// discovery order (strictly decreasing `fast`). The seeds and the chain
/// are confirmed on the exact rung only afterwards, so no strategy
/// decision can depend on an exact result — the invariant behind both
/// thread-width independence and fault equivalence.
pub fn search_with(
    program: &Program,
    cache: &CacheConfig,
    cfg: &SearchConfig,
    hooks: SearchHooks,
) -> SearchResult {
    let pad_config = padding_config_for(cache);
    let mut space = SearchSpace::new(program, &pad_config);
    if let Some(seed) = hooks.permute_moves {
        space.permute_moves_for_test(seed);
    }
    let mut objective =
        Objective::new(program, *cache, pad_config.clone(), cfg.threads, cfg.budget)
            .with_faults(hooks.faults)
            .with_skip(hooks.skip);

    // Seeds: the original layout plus both heuristic answers, deduped
    // modulo set equivalence. Seeds bypass the budget — they must always
    // be promoted for the never-worse guarantee to hold.
    let seed_vectors = [
        PadVector::zero(program),
        PadVector::from_layout(
            program,
            &PaddingPipeline::padlite(pad_config.clone())
                .run(program)
                .layout,
        ),
        PadVector::from_layout(
            program,
            &PaddingPipeline::pad(pad_config).run(program).layout,
        ),
    ];
    // The fast rung's clock: read twice per search, its mean recorded.
    let clock = metrics_enabled().then(Instant::now);
    let mut seeds: Vec<Candidate> = Vec::with_capacity(seed_vectors.len());
    for vector in seed_vectors {
        let cand = objective.force_evaluate(vector);
        if !seeds.iter().any(|s| s.signature == cand.signature) {
            seeds.push(cand);
        }
    }

    let chain = match cfg.strategy {
        StrategyKind::Beam => beam::run(&space, &mut objective, &seeds, cfg.beam_width),
        StrategyKind::Anneal => anneal::run(&space, &mut objective, &seeds, cfg.seed),
    };
    if let Some(t0) = clock {
        metrics::record_fast_mean(t0.elapsed(), objective.fast_evals());
    }

    let mut promoted = seeds;
    promoted.extend(chain);
    let mut promotions: Vec<Promotion> = promoted
        .iter()
        .map(|c| Promotion {
            fast: c.fast,
            exact: None,
            cost: c.found_at,
            signature: c.signature,
        })
        .collect();

    // Only promoted candidates get a layout: every one when the exact
    // rung confirms them, else the fast-rung winner alone.
    let (best, best_exact) = if cfg.confirm_exact {
        let mut confirmed: Vec<Candidate<DataLayout>> =
            promoted.into_iter().map(|c| c.promote(program)).collect();
        let exacts = objective.confirm_batch(&confirmed);
        for (p, &exact) in promotions.iter_mut().zip(&exacts) {
            p.exact = exact;
        }
        // Every promotion discarded (pathological fault plan): fall back
        // to the fast order so the search still answers.
        let i = best_confirmed(&confirmed, &exacts).unwrap_or_else(|| best_fast_index(&confirmed));
        (confirmed.swap_remove(i), exacts[i])
    } else {
        let i = best_fast_index(&promoted);
        (promoted.swap_remove(i).promote(program), None)
    };

    let mut frontier = Vec::new();
    let mut best_so_far = u64::MAX;
    for p in &promotions {
        if let Some(exact) = p.exact {
            if exact < best_so_far {
                best_so_far = exact;
                frontier.push((p.cost, exact));
            }
        }
    }

    let result = SearchResult {
        strategy: cfg.strategy.name(),
        best,
        best_exact,
        promotions,
        frontier,
        fast_evals: objective.fast_evals(),
        exact_evals: objective.exact_evals(),
        discarded: objective.discarded(),
    };
    metrics::record_run(
        result.strategy,
        result.fast_evals,
        result.promotions.len() as u64,
        result.discarded,
    );
    result
}

/// The exact-confirmed minimum, ties broken by the total candidate order;
/// `None` when every confirmation was discarded.
fn best_confirmed<L>(promoted: &[Candidate<L>], exacts: &[Option<u64>]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, exact) in exacts.iter().enumerate() {
        let Some(exact) = exact else { continue };
        let better = match best {
            None => true,
            Some(j) => {
                let prev = exacts[j].expect("best always confirmed");
                exact
                    .cmp(&prev)
                    .then_with(|| cmp_candidates(&promoted[i], &promoted[j]))
                    .is_lt()
            }
        };
        if better {
            best = Some(i);
        }
    }
    best
}

fn best_fast_index<L>(promoted: &[Candidate<L>]) -> usize {
    let mut best = 0;
    for i in 1..promoted.len() {
        if cmp_candidates(&promoted[i], &promoted[best]).is_lt() {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_bench::harness::exact_misses;

    #[test]
    fn search_never_worse_than_either_heuristic() {
        let program = pad_kernels::jacobi::spec(24);
        let cache = CacheConfig::direct_mapped(2048, 32);
        let cfg = SearchConfig {
            budget: 120,
            threads: 1,
            ..SearchConfig::default()
        };
        let result = search(&program, &cache, &cfg);
        let pc = padding_config_for(&cache);
        let padlite = PaddingPipeline::padlite(pc.clone()).run(&program).layout;
        let pad = PaddingPipeline::pad(pc).run(&program).layout;
        let best = result.best_exact.expect("exact-confirmed");
        assert!(best <= exact_misses(&program, &padlite, &cache));
        assert!(best <= exact_misses(&program, &pad, &cache));
        assert_eq!(best, exact_misses(&program, &result.best.layout, &cache));
        assert!(result.fast_evals >= 3);
        assert!(!result.promotions.is_empty());
        assert!(!result.frontier.is_empty());
    }

    #[test]
    fn degenerate_program_without_arrays_terminates() {
        // ORA's proxy has no arrays at all; the space is empty and both
        // strategies must return the trivial answer without spinning.
        let program = pad_kernels::ora_proxy::spec(8);
        let cache = CacheConfig::direct_mapped(1024, 32);
        for strategy in [StrategyKind::Beam, StrategyKind::Anneal] {
            let cfg = SearchConfig {
                strategy,
                budget: 50,
                threads: 1,
                ..SearchConfig::default()
            };
            let result = search(&program, &cache, &cfg);
            let exact = result.best_exact.expect("exact-confirmed");
            assert_eq!(exact, exact_misses(&program, &result.best.layout, &cache));
            assert_eq!(result.discarded, 0);
        }
    }

    #[test]
    fn env_config_round_trips() {
        let cfg = SearchConfig::default();
        assert_eq!(cfg.strategy.name(), "beam");
        assert!(cfg.confirm_exact);
        assert_eq!(StrategyKind::Anneal.name(), "anneal");
    }
}
