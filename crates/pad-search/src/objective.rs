//! The two-rung objective ladder.
//!
//! Every candidate is scored on the **fast rung** — the paper's analytic
//! miss model (spatial misses plus severe-conflict penalties) plus a
//! graded [near-conflict pressure](pad_core::ModelScore::pressure)
//! tie-breaker — and only frontier candidates are **promoted** to the
//! exact rung, a full `simulate_batch` trace walk. The analytic model is
//! compiled once per search ([`pad_core::MissModel`]) and a fast
//! evaluation builds no layout: it places the arrays from the pad vector
//! ([`PadVector::place`]), fingerprints the placement, binds the model
//! to the vector's shapes (relinearizing only the arrays whose intra
//! pads changed) and scores it at the vector's bases — a microsecond or
//! two, against milliseconds for an exact walk. A candidate's layout is
//! materialized only when it is promoted ([`Candidate::promote`]), and
//! only a promoted candidate can be confirmed. Search *decisions*
//! consume only fast scores; exact counts confirm and rank the promoted
//! frontier afterwards. That split is what makes fault injection benign:
//! a panicking exact evaluation can discard one candidate but can never
//! steer the search.
//!
//! Exact confirmations fan out through `pad_bench::pool` isolation cells,
//! each run once and without a deadline (results must not depend on the
//! wall clock), so one poisoned candidate ends as a counted discard, not
//! a crashed search or a hung pool. Each exact evaluation
//! consumes one monotone sequence number whether it runs, panics, or is
//! skipped — a faulted run and a clean run minus the same candidates
//! therefore follow identical sequences (the fault-equivalence property
//! the test suite pins).

use std::collections::BTreeSet;
use std::time::Instant;

use pad_bench::faults::FaultPlan;
use pad_bench::harness::exact_misses;
use pad_bench::pool;
use pad_cache_sim::CacheConfig;
use pad_core::{DataLayout, MissModel, PaddingConfig};
use pad_ir::Program;
use pad_telemetry::metrics_enabled;

use crate::metrics::{record_eval_us, RUNG_EXACT};
use crate::space::{Candidate, PadVector, Signer};

/// The budgeted evaluator shared by every strategy.
pub struct Objective<'p> {
    program: &'p Program,
    cache: CacheConfig,
    model: MissModel,
    /// The scored vector's base addresses (scratch).
    bases: Vec<u64>,
    signer: Signer,
    /// The original layout's footprint, below which no materialized
    /// layout's total falls.
    original_bytes: u64,
    threads: usize,
    faults: FaultPlan,
    skip: BTreeSet<u64>,
    budget: u64,
    fast_evals: u64,
    exact_evals: u64,
    discarded: u64,
}

impl<'p> Objective<'p> {
    /// A fresh evaluator with `budget` fast evaluations available and
    /// exact confirmations fanned over `threads` isolation cells. Compiles
    /// the analytic model for `program` under `pad_config` once, here.
    pub fn new(
        program: &'p Program,
        cache: CacheConfig,
        pad_config: PaddingConfig,
        threads: usize,
        budget: u64,
    ) -> Self {
        Objective {
            program,
            cache,
            model: MissModel::compile(program, &pad_config),
            bases: Vec::with_capacity(program.arrays().len()),
            signer: Signer::new(program, cache.size()),
            original_bytes: PadVector::zero(program).place(program, &mut Vec::new()),
            threads: threads.max(1),
            faults: FaultPlan::none(),
            skip: BTreeSet::new(),
            budget,
            fast_evals: 0,
            exact_evals: 0,
            discarded: 0,
        }
    }

    /// Injects a deterministic fault plan into the exact rung; cell
    /// indices are exact-evaluation sequence numbers.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Skips the exact evaluations with these sequence numbers (they
    /// still consume their numbers). The fault-equivalence tests use this
    /// to express "a clean run minus those candidates".
    pub fn with_skip(mut self, skip: BTreeSet<u64>) -> Self {
        self.skip = skip;
        self
    }

    /// Fast evaluations still available.
    pub fn remaining_budget(&self) -> u64 {
        self.budget.saturating_sub(self.fast_evals)
    }

    /// True while the fast-evaluation budget lasts.
    pub fn budget_left(&self) -> bool {
        self.fast_evals < self.budget
    }

    /// Fast evaluations consumed so far.
    pub fn fast_evals(&self) -> u64 {
        self.fast_evals
    }

    /// Exact evaluations sequenced so far (run, panicked, or skipped).
    pub fn exact_evals(&self) -> u64 {
        self.exact_evals
    }

    /// Promoted candidates whose confirmation panicked or was skipped.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Scores `vector` on the fast rung, consuming one unit of budget;
    /// `None` once the budget is exhausted.
    pub fn evaluate(&mut self, vector: PadVector) -> Option<Candidate> {
        if !self.budget_left() {
            return None;
        }
        Some(self.force_evaluate(vector))
    }

    /// [`Objective::evaluate`] for a vector whose set signature may be in
    /// `seen`: such a vector consumes its unit of budget but is not
    /// graded (`Some(None)`), since its score could not be used.
    pub fn evaluate_unseen(
        &mut self,
        vector: PadVector,
        seen: &BTreeSet<u64>,
    ) -> Option<Option<Candidate>> {
        if !self.budget_left() {
            return None;
        }
        Some(self.score(vector, Some(seen)))
    }

    /// Scores `vector` on the fast rung regardless of budget (used for
    /// the PADLITE/PAD/original seeds, which must always be present for
    /// the never-worse-than-the-heuristics guarantee).
    pub fn force_evaluate(&mut self, vector: PadVector) -> Candidate {
        self.score(vector, None)
            .expect("a vector is only left ungraded when its signature was seen")
    }

    /// Places `vector`, fingerprints it, and unless `seen` holds the
    /// fingerprint, binds the model to its shapes and grades it.
    fn score(&mut self, vector: PadVector, seen: Option<&BTreeSet<u64>>) -> Option<Candidate> {
        self.fast_evals += 1;
        let end = vector.place(self.program, &mut self.bases);
        let signature = self.signer.sign(self.program, &vector, &self.bases);
        if seen.is_some_and(|seen| seen.contains(&signature)) {
            return None;
        }
        self.model.bind_pads(&vector.intra);
        let score = self.model.score_at(&self.bases);
        Some(Candidate {
            fast: score.estimate.misses + score.pressure,
            signature,
            total_bytes: end.max(self.original_bytes),
            found_at: self.fast_evals,
            vector,
            layout: (),
        })
    }

    /// Confirms promoted `candidates` on the exact rung in one fanned
    /// batch. Returns the exact plain-cache miss count per candidate in
    /// input order, `None` for candidates whose cell panicked (fault
    /// injection) or whose sequence number was in the skip set — both are
    /// counted as discards. Results are in submission order at any thread
    /// width.
    pub fn confirm_batch(&mut self, candidates: &[Candidate<DataLayout>]) -> Vec<Option<u64>> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let start = self.exact_evals;
        let program = self.program;
        let cache = self.cache;
        let faults = &self.faults;
        let skip = &self.skip;
        let outcomes = pool::run_cells_outcome_on(self.threads, candidates.len(), None, |i| {
            let seq = start + i as u64;
            if skip.contains(&seq) {
                return None;
            }
            faults.inject(seq as usize);
            let t0 = metrics_enabled().then(Instant::now);
            let misses = exact_misses(program, &candidates[i].layout, &cache);
            if let Some(t0) = t0 {
                record_eval_us(RUNG_EXACT, t0.elapsed().as_micros() as u64);
            }
            Some(misses)
        });
        self.exact_evals += candidates.len() as u64;
        outcomes
            .into_iter()
            .map(|o| match o.into_value() {
                Some(Some(misses)) => Some(misses),
                _ => {
                    self.discarded += 1;
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_trace::padding_config_for;

    fn objective(program: &Program, budget: u64) -> Objective<'_> {
        let cache = CacheConfig::direct_mapped(2048, 32);
        let cfg = padding_config_for(&cache);
        Objective::new(program, cache, cfg, 1, budget)
    }

    #[test]
    fn budget_is_enforced_but_seeds_bypass_it() {
        let p = pad_kernels::jacobi::spec(16);
        let mut obj = objective(&p, 2);
        let v = PadVector::zero(&p);
        assert!(obj.evaluate(v.clone()).is_some());
        assert!(obj.evaluate(v.clone()).is_some());
        assert!(obj.evaluate(v.clone()).is_none());
        let c = obj.force_evaluate(v);
        assert_eq!(obj.fast_evals(), 3);
        assert_eq!(c.found_at, 3);
    }

    #[test]
    fn confirm_matches_direct_simulation_and_faults_discard() {
        let p = pad_kernels::jacobi::spec(16);
        let cache = CacheConfig::direct_mapped(2048, 32);
        let mut obj = objective(&p, 10);
        let c = obj.force_evaluate(PadVector::zero(&p)).promote(&p);
        let direct = exact_misses(&p, &c.layout, &cache);
        assert_eq!(obj.confirm_batch(&[c]), vec![Some(direct)]);

        // Sequence numbers advance across batches; a fault at the next
        // sequence number discards exactly that evaluation.
        let mut faulted = objective(&p, 10).with_faults(FaultPlan::none().panic_at(1));
        let c2 = faulted.force_evaluate(PadVector::zero(&p)).promote(&p);
        assert_eq!(
            faulted.confirm_batch(&[c2.clone(), c2]),
            vec![Some(direct), None]
        );
        assert_eq!(faulted.discarded(), 1);

        // Skipping the same sequence number gives the same observable
        // result as the fault.
        let mut skipped =
            objective(&p, 10).with_skip([1u64].into_iter().collect::<BTreeSet<u64>>());
        let c3 = skipped.force_evaluate(PadVector::zero(&p)).promote(&p);
        assert_eq!(
            skipped.confirm_batch(&[c3.clone(), c3]),
            vec![Some(direct), None]
        );
        assert_eq!(skipped.discarded(), 1);
    }

    #[test]
    fn vector_scores_equal_materialized_layout_scores() {
        let p = pad_kernels::shal::spec(24);
        let cache = CacheConfig::direct_mapped(2048, 32);
        let space = crate::SearchSpace::new(&p, &padding_config_for(&cache));
        let mut obj = objective(&p, 1000);
        let mut model = MissModel::compile(&p, &padding_config_for(&cache));
        let mut rng = pad_cache_sim::SplitMix64::new(7);
        let mut v = PadVector::zero(&p);
        let mut seen = BTreeSet::new();
        for _ in 0..60 {
            if let Some(next) = space.random_step(&v, &mut rng) {
                v = next;
            }
            let layout = v.materialize(&p);
            let score = model.score(&layout);
            let c = obj.force_evaluate(v.clone());
            assert_eq!(
                c.fast.to_bits(),
                (score.estimate.misses + score.pressure).to_bits()
            );
            assert_eq!(c.signature, crate::set_signature(&layout, cache.size()));
            assert_eq!(c.total_bytes, layout.total_bytes());
            // A seen signature consumes budget without a grade.
            seen.insert(c.signature);
            let before = obj.fast_evals();
            assert!(matches!(obj.evaluate_unseen(v.clone(), &seen), Some(None)));
            assert_eq!(obj.fast_evals(), before + 1);
        }
    }
}
