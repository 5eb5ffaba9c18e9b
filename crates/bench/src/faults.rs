//! Deterministic fault injection for the experiment pool.
//!
//! A [`FaultPlan`] describes which cells fail and how: hard panics, and
//! virtual delays (which trip the deadline watchdog without any real
//! sleeping). Plans are either built explicitly (`panic_at`, `delay_at`)
//! or drawn from the workspace's seeded xorshift generator
//! ([`FaultPlan::from_seed`]), so every injection schedule is
//! reproducible: no wall clock, no OS randomness, no sleeps.
//!
//! The integration suite (`tests/fault_injection.rs`) uses these plans to
//! prove the reliability layer's contracts: a faulted cell never disturbs
//! a sibling cell's bytes, and a journaled sweep resumed after a kill
//! renders byte-identical tables.
//!
//! The advisor server's fault suite builds on the same plans: cell
//! faults are raised per *request* through [`FaultPlan::inject`], and
//! [`FrameFault`]s describe wire-level corruption (garbage, torn, and
//! oversized NDJSON frames) that the test harness applies to the request
//! stream itself.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use pad_cache_sim::XorShift64Star;

use crate::pool;

/// How many cells of each fault kind [`FaultPlan::from_seed`] injects.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultSpec {
    /// Cells that panic hard.
    pub panics: usize,
    /// Cells charged a virtual delay.
    pub delays: usize,
    /// The virtual delay charged to each delayed cell.
    pub delay: Duration,
}

/// How a fault plan corrupts one *frame* of a wire-protocol stream
/// (the advisor server's NDJSON requests). Frame faults are applied by
/// the test harness when it renders a request stream — the server under
/// test sees the corrupted bytes exactly as a broken client would send
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Replace the frame with non-JSON garbage.
    Garbage,
    /// Cut the frame mid-token (a torn write on the wire).
    Truncated,
    /// Inflate the frame past any sane size limit.
    Oversized,
}

/// A deterministic schedule of injected faults, keyed by cell index.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    panics: BTreeSet<usize>,
    delays: BTreeMap<usize, Duration>,
    frames: BTreeMap<usize, FrameFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Injects an unconditional panic into cell `index`.
    pub fn panic_at(mut self, index: usize) -> Self {
        self.panics.insert(index);
        self
    }

    /// Charges `delay` of virtual time to cell `index` (trips a
    /// configured deadline without sleeping).
    pub fn delay_at(mut self, index: usize, delay: Duration) -> Self {
        self.delays.insert(index, delay);
        self
    }

    /// Corrupts frame `index` of a protocol stream with `fault` (applied
    /// by the harness rendering the stream, not by [`FaultPlan::inject`]).
    pub fn frame_at(mut self, index: usize, fault: FrameFault) -> Self {
        self.frames.insert(index, fault);
        self
    }

    /// The corruption scheduled for frame `index`, if any.
    pub fn frame_fault(&self, index: usize) -> Option<FrameFault> {
        self.frames.get(&index).copied()
    }

    /// True when cell `index` is scheduled to panic hard.
    pub fn panics_at(&self, index: usize) -> bool {
        self.panics.contains(&index)
    }

    /// The virtual delay charged to cell `index`, if any.
    pub fn delay_for(&self, index: usize) -> Option<Duration> {
        self.delays.get(&index).copied()
    }

    /// Raises this plan's cell faults for cell `index`: charges any
    /// virtual delay, then panics for hard-faulted cells.
    ///
    /// [`FaultPlan::wrap`] delegates here with the pool's own cell index;
    /// executors whose unit of work is *not* a pool cell — the advisor
    /// server injects faults per *request*, keyed by frame index — call
    /// this directly with an index they key however they like.
    pub fn inject(&self, index: usize) {
        if let Some(delay) = self.delays.get(&index) {
            pool::charge_virtual(*delay);
        }
        if self.panics.contains(&index) {
            panic!("injected fault: cell {index} panicked");
        }
    }

    /// Draws a random (but fully seed-determined) plan over `count`
    /// cells: distinct cells are picked for each fault kind from one
    /// xorshift stream, so the same seed always yields the same
    /// schedule.
    pub fn from_seed(seed: u64, count: usize, spec: &FaultSpec) -> Self {
        let mut rng = XorShift64Star::new(seed);
        let mut plan = FaultPlan::none();
        if count == 0 {
            return plan;
        }
        let mut taken = BTreeSet::new();
        let draw = |rng: &mut XorShift64Star, taken: &mut BTreeSet<usize>| {
            if taken.len() >= count {
                return None;
            }
            loop {
                let index = rng.below(count as u64) as usize;
                if taken.insert(index) {
                    return Some(index);
                }
            }
        };
        for _ in 0..spec.panics {
            let Some(index) = draw(&mut rng, &mut taken) else {
                break;
            };
            plan.panics.insert(index);
        }
        for _ in 0..spec.delays {
            let Some(index) = draw(&mut rng, &mut taken) else {
                break;
            };
            plan.delays.insert(index, spec.delay);
        }
        plan
    }

    /// Cell indices this plan makes fail (hard panics, and — under a
    /// deadline shorter than the injected delay — delayed cells).
    pub fn faulted_cells(&self) -> BTreeSet<usize> {
        self.panics
            .iter()
            .chain(self.delays.keys())
            .copied()
            .collect()
    }

    /// Cell indices that never produce a value under this plan (hard
    /// panics only; delayed cells succeed under a long enough deadline).
    pub fn doomed_cells(&self) -> &BTreeSet<usize> {
        &self.panics
    }

    /// Wraps a cell function with this plan's injections: the returned
    /// closure charges delays and raises injected panics before
    /// delegating to `f`.
    pub fn wrap<'a, T>(
        &'a self,
        f: impl Fn(usize) -> T + Sync + 'a,
    ) -> impl Fn(usize) -> T + Sync + 'a {
        move |index| {
            self.inject(index);
            f(index)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_cells_outcome_on;

    #[test]
    fn seeded_plans_are_reproducible_and_disjoint() {
        let spec = FaultSpec {
            panics: 3,
            delays: 2,
            delay: Duration::from_secs(100),
        };
        let a = FaultPlan::from_seed(42, 50, &spec);
        let b = FaultPlan::from_seed(42, 50, &spec);
        assert_eq!(a.panics, b.panics);
        assert_eq!(a.delays, b.delays);
        assert_eq!(
            a.faulted_cells().len(),
            5,
            "fault kinds target distinct cells"
        );
        let c = FaultPlan::from_seed(43, 50, &spec);
        assert_ne!(a.faulted_cells(), c.faulted_cells(), "seeds diverge");
    }

    #[test]
    fn accessors_report_the_schedule_and_frames_stay_out_of_cell_faults() {
        let plan = FaultPlan::none()
            .panic_at(1)
            .delay_at(3, Duration::from_secs(5))
            .frame_at(4, FrameFault::Garbage)
            .frame_at(5, FrameFault::Oversized);
        assert!(plan.panics_at(1) && !plan.panics_at(0));
        assert_eq!(plan.delay_for(3), Some(Duration::from_secs(5)));
        assert_eq!(plan.frame_fault(4), Some(FrameFault::Garbage));
        assert_eq!(plan.frame_fault(5), Some(FrameFault::Oversized));
        assert_eq!(plan.frame_fault(1), None);
        // Frame corruption never reaches a handler, so it is not a cell
        // fault.
        assert!(!plan.faulted_cells().contains(&4));
    }

    #[test]
    fn inject_is_callable_outside_the_pool() {
        let plan = FaultPlan::none().panic_at(7);
        plan.inject(0); // clean cell: no-op
        let caught = std::panic::catch_unwind(|| plan.inject(7));
        assert!(caught.is_err(), "hard fault must raise");
    }

    #[test]
    fn wrapped_injections_reach_the_pool() {
        let plan = FaultPlan::none()
            .panic_at(1)
            .delay_at(3, Duration::from_secs(100));
        let deadline = Some(Duration::from_secs(10));
        let outcomes = run_cells_outcome_on(1, 4, deadline, plan.wrap(|i| i as u64));
        assert_eq!(outcomes[0].value(), Some(&0));
        assert_eq!(outcomes[1].marker(), Some("ERR"));
        assert_eq!(outcomes[2].value(), Some(&2));
        assert_eq!(outcomes[3].marker(), Some("TIMEOUT"));
    }
}
