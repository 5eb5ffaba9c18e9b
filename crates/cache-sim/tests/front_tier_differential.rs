//! `ReuseStack` against `NaiveStack`, access by access, on seeded streams
//! built to cross the front tier's edge.
//!
//! The engine keeps the 16 most recent distinct lines in a move-to-front
//! array and ranks every older line by the tick it got when it left the
//! array. Lines drawn from pools of 15, 16, 17, 32 and 64 put reuses at
//! depths 15, 16 and 17, either side of that edge, and deeper; bursts of
//! more than 16 first touches push the whole array into the deep tier at
//! once. Each pool is also offset across the top of the `u64` range
//! (wrapped line ids) and spread 2^30 lines apart, which sends the
//! last-use table to its hash map. Every distance must equal the naive
//! stack's.

use pad_cache_sim::reference::NaiveStack;
use pad_cache_sim::{ReuseStack, SplitMix64};

/// Distinct lines the front tier holds.
const FRONT: u64 = 16;

/// How a stream maps a pool index to a line id.
#[derive(Debug, Clone, Copy)]
enum Ids {
    /// Consecutive lines from a small base.
    Dense,
    /// Consecutive lines straddling `u64::MAX` and 0.
    Wrapped,
    /// Lines 2^30 apart: the last-use table cannot page them.
    Sparse,
}

impl Ids {
    fn line(self, index: u64) -> u64 {
        match self {
            Ids::Dense => 1_000 + index,
            Ids::Wrapped => index.wrapping_sub(1 << 12),
            Ids::Sparse => index << 30,
        }
    }
}

/// A stream of `len` accesses: reuses drawn uniformly from `pool` lines,
/// and, when `bursts` is set, now and then a run of 17–48 lines never
/// touched before (each burst's lines join the pool's tail, so later
/// draws can reach them).
fn stream(rng: &mut SplitMix64, pool: u64, bursts: bool, ids: Ids, len: usize) -> Vec<u64> {
    let mut next_new = pool;
    let mut lines = Vec::with_capacity(len);
    while lines.len() < len {
        if bursts && rng.below(64) == 0 {
            let burst = FRONT + 1 + rng.below(32);
            for _ in 0..burst {
                lines.push(ids.line(next_new));
                next_new += 1;
            }
            continue;
        }
        // Mostly the pool; now and then a line from an earlier burst.
        let index = if next_new > pool && rng.below(8) == 0 {
            pool + rng.below(next_new - pool)
        } else {
            rng.below(pool)
        };
        lines.push(ids.line(index));
    }
    lines.truncate(len);
    lines
}

/// Feeds `lines` to both stacks; returns the engine after checking every
/// distance.
fn assert_matches_naive(lines: &[u64], case: &str) -> ReuseStack {
    let mut fast = ReuseStack::new();
    let mut naive = NaiveStack::new();
    for (i, &line) in lines.iter().enumerate() {
        assert_eq!(
            fast.access(line),
            naive.access(line),
            "{case}: access {i} (line {line:#x})"
        );
    }
    fast
}

#[test]
fn reuses_either_side_of_the_front_tier_match_naive() {
    let mut rng = SplitMix64::new(0x5eed_f407);
    for pool in [15, 16, 17, 32, 64] {
        for bursts in [false, true] {
            for ids in [Ids::Dense, Ids::Wrapped, Ids::Sparse] {
                let lines = stream(&mut rng, pool, bursts, ids, 12_000);
                let case = format!("pool {pool}, bursts {bursts}, {ids:?}");
                let stack = assert_matches_naive(&lines, &case);
                assert_eq!(
                    stack.is_hashed(),
                    matches!(ids, Ids::Sparse),
                    "{case}: only lines 2^30 apart leave the paged table"
                );
                if pool >= 2 * FRONT && !bursts {
                    // Most accesses demote one of a few dozen lines:
                    // ticks pass the compaction threshold.
                    assert!(stack.compactions() > 0, "{case}: compaction never ran");
                }
            }
        }
    }
}

#[test]
fn distances_at_the_front_tier_edge_are_exact() {
    // Cycles of FRONT - 1, FRONT and FRONT + 1 lines reuse every line at
    // distance 14, 15 and 16: the last in the array, the first outside
    // it. Mixing two cycles moves lines across the edge both ways.
    for cycle in [FRONT - 1, FRONT, FRONT + 1] {
        let lines: Vec<u64> = (0..4 * 4096).map(|i| i % cycle).collect();
        let stack = assert_matches_naive(&lines, &format!("cycle {cycle}"));
        assert_eq!(stack.compactions() > 0, cycle > FRONT, "cycle {cycle}");
    }
    let mut rng = SplitMix64::new(41);
    let lines: Vec<u64> = (0..8_000)
        .map(|_| {
            let cycle = if rng.below(2) == 0 { FRONT } else { FRONT + 1 };
            rng.below(cycle)
        })
        .collect();
    assert_matches_naive(&lines, "mixed cycles");
}

#[test]
fn first_touch_bursts_push_the_whole_array_deep() {
    // 16 lines fill the array; a burst of 40 new lines demotes all of
    // them, then each is reused from the deep tier, newest first and
    // oldest first.
    let mut lines: Vec<u64> = (0..FRONT).collect();
    lines.extend(100..140);
    lines.extend((0..FRONT).rev());
    lines.extend(200..240);
    lines.extend(0..FRONT);
    lines.extend(100..140);
    assert_matches_naive(&lines, "bursts");
}
