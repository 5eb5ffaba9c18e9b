//! Deterministic beam search with constraint-propagation pruning.
//!
//! Each round expands every beam member by every legal move, scores the
//! expansions on the fast rung, and keeps the best `width` novel
//! candidates. Three pruning rules keep the frontier small:
//!
//! * **set-equivalence collapse** — expansions are merged into a
//!   `BTreeMap` keyed by [`set_signature`] fingerprint, so candidates
//!   whose layouts are equivalent modulo cache-set placement survive as
//!   one representative (the least by [`cmp_candidates`]);
//! * **dominance** — merging the old beam with the novel set and
//!   truncating to `width` drops any candidate dominated on the
//!   (score, footprint) order; and
//! * **revisit suppression** — fingerprints ever selected are never
//!   re-expanded, which is what propagates "this set placement is
//!   settled" through later rounds.
//!
//! The returned promotion list is the strictly-improving chain plus the
//! surviving beam (deduped by fingerprint): the final beam holds the
//! `width` best mutually-distinct placements, and when the fast rung can
//! no longer separate them the exact rung is the judge that can.
//!
//! Determinism and order-independence: the move list is canonical, every
//! round is all-or-nothing against the budget (a round never starts
//! unless the worst-case cost fits, so no partial rounds), per-round
//! discovery costs are assigned at the round boundary, and all selection
//! uses the total candidate order. Permuting the move list therefore
//! cannot change any result — the property suite shuffles it and asserts
//! bit-equality.
//!
//! [`set_signature`]: crate::space::set_signature
//! [`cmp_candidates`]: crate::space::cmp_candidates

use std::collections::{btree_map::Entry, BTreeMap, BTreeSet};

use crate::objective::Objective;
use crate::space::{cmp_candidates, Candidate, SearchSpace};

/// Rounds without a new best fast score before the search stops.
const STALL_ROUNDS: u32 = 3;

/// Runs the beam from `seeds` with `width` candidates kept per round
/// (clamped to at least 1) and returns the promotion chain.
pub(crate) fn run(
    space: &SearchSpace,
    objective: &mut Objective<'_>,
    seeds: &[Candidate],
    width: usize,
) -> Vec<Candidate> {
    let width = width.max(1);
    let mut beam: Vec<Candidate> = seeds.to_vec();
    beam.sort_by(cmp_candidates);
    beam.truncate(width);
    let mut seen: BTreeSet<u64> = seeds.iter().map(|c| c.signature).collect();
    let Some(first) = beam.first() else {
        return Vec::new();
    };
    let mut best_fast = first.fast;
    let mut chain = Vec::new();
    let mut stall = 0u32;

    while stall < STALL_ROUNDS {
        // All-or-nothing rounds: starting a round the budget cannot
        // cover would make results depend on enumeration order.
        let round_cost = beam.len() as u64 * space.moves().len() as u64;
        if round_cost == 0 || objective.remaining_budget() < round_cost {
            break;
        }

        let mut round: BTreeMap<u64, Candidate> = BTreeMap::new();
        for member in &beam {
            for &m in space.moves() {
                let Some(vector) = space.apply(&member.vector, m) else {
                    continue;
                };
                let Some(scored) = objective.evaluate_unseen(vector, &seen) else {
                    break;
                };
                let Some(cand) = scored else {
                    continue;
                };
                match round.entry(cand.signature) {
                    Entry::Vacant(slot) => {
                        slot.insert(cand);
                    }
                    Entry::Occupied(mut slot) => {
                        if cmp_candidates(&cand, slot.get()).is_lt() {
                            slot.insert(cand);
                        }
                    }
                }
            }
        }

        // Discovery cost is the round boundary, not the (order-
        // dependent) position within the round.
        let round_end = objective.fast_evals();
        let mut novel: Vec<Candidate> = round.into_values().collect();
        for c in &mut novel {
            c.found_at = round_end;
        }
        novel.sort_by(cmp_candidates);
        if novel.is_empty() {
            break;
        }

        if novel[0].fast.total_cmp(&best_fast).is_lt() {
            best_fast = novel[0].fast;
            chain.push(novel[0].clone());
            stall = 0;
        } else {
            stall += 1;
        }
        for c in &novel {
            seen.insert(c.signature);
        }
        novel.truncate(width);
        beam.extend(novel);
        beam.sort_by(cmp_candidates);
        beam.truncate(width);
    }

    // Promote the surviving beam alongside the improving chain: its
    // members are the `width` best severe-free placements found,
    // diverse by set-signature construction, and only the exact rung
    // can separate them once the fast landscape goes flat.
    let mut promoted: BTreeSet<u64> = seeds.iter().map(|c| c.signature).collect();
    promoted.extend(chain.iter().map(|c| c.signature));
    for member in beam {
        if promoted.insert(member.signature) {
            chain.push(member);
        }
    }
    chain
}
