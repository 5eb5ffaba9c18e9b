//! Seeded simulated annealing over the joint pad space.
//!
//! A single sequential Metropolis chain: start from the best seed, draw
//! one random move per step from the canonical move list, accept
//! downhill moves always and uphill moves with probability
//! `exp(-Δ/T)` under a linearly cooling temperature. All randomness
//! comes from one [`SplitMix64`] stream ([`crate::SearchConfig::seed`]),
//! and [`SearchSpace::random_step`] consumes a fixed number of draws per
//! step, so the whole chain — and therefore the promoted frontier — is a
//! pure function of the seed and budget: byte-reproducible across runs
//! and completely independent of `RIVERA_THREADS` (exact confirmation
//! happens afterwards, fanned in submission order).
//!
//! [`SplitMix64`]: pad_cache_sim::SplitMix64
//! [`SearchSpace::random_step`]: crate::space::SearchSpace::random_step

use pad_cache_sim::SplitMix64;

use crate::objective::Objective;
use crate::space::{cmp_candidates, Candidate, SearchSpace};

/// Consecutive draw-only steps (no legal neighbor produced) before the
/// chain gives up — a liveness bound for degenerate spaces; real spaces
/// always have a legal direction from any point.
const MAX_FRUITLESS: u32 = 4096;

/// Runs the chain from the best of `seeds` and returns the promotion
/// chain. Equal `seed`s give byte-identical searches.
pub(crate) fn run(
    space: &SearchSpace,
    objective: &mut Objective<'_>,
    seeds: &[Candidate],
    seed: u64,
) -> Vec<Candidate> {
    if space.moves().is_empty() {
        return Vec::new();
    }
    let Some(start) = seeds.iter().min_by(|a, b| cmp_candidates(a, b)) else {
        return Vec::new();
    };
    let mut current = start.clone();
    let mut best_fast = current.fast;
    let mut chain = Vec::new();
    let mut rng = SplitMix64::new(seed);

    // Initial temperature at 5% of the starting score: large enough
    // to cross small conflict barriers, small enough that the chain
    // still prefers descent from the heuristic seeds.
    let t0 = (current.fast * 0.05).max(1.0);
    let total = objective.remaining_budget().max(1);
    let mut step = 0u64;
    let mut fruitless = 0u32;

    while objective.budget_left() && fruitless < MAX_FRUITLESS {
        let progress = step as f64 / total as f64;
        let temp = t0 * (1.0 - progress).max(0.01);
        let Some(vector) = space.random_step(&current.vector, &mut rng) else {
            fruitless += 1;
            continue;
        };
        fruitless = 0;
        step += 1;
        let Some(cand) = objective.evaluate(vector) else {
            break;
        };
        let delta = cand.fast - current.fast;
        if cand.fast.total_cmp(&best_fast).is_lt() {
            best_fast = cand.fast;
            chain.push(cand.clone());
        }
        if delta <= 0.0 || rng.unit_f64() < (-delta / temp).exp() {
            current = cand;
        }
    }
    chain
}
