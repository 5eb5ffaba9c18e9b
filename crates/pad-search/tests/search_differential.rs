//! Differential test: the fast rung is pinned to ground truth.
//!
//! The search trusts the analytic miss estimate plus the graded
//! [conflict pressure] term to steer, and only promotes frontier
//! candidates to exact simulation. That division of labor is sound only
//! while the fast score actually ranks layouts the way the simulator
//! does, so this suite measures rank concordance between the two rungs
//! over every promoted candidate of real searches and fails if the
//! analytic model drifts out of agreement:
//!
//! * across the **severe-conflict scale** (original vs heuristic seeds)
//!   the rank order must agree exactly — this is the regime the paper's
//!   model is built for;
//! * across **all promoted candidates** (where differences are often
//!   sub-severe and the pressure term is the only signal) the pairwise
//!   concordance must stay above a floor on every kernel, and well
//!   above it in aggregate.
//!
//! [conflict pressure]: pad_core::ModelScore::pressure

use pad_cache_sim::CacheConfig;
use pad_ir::Program;
use pad_search::{search, Promotion, SearchConfig, StrategyKind};

/// Kernels exercised, at a size where layouts genuinely differ.
fn kernels() -> Vec<(&'static str, Program)> {
    let n = 40;
    vec![
        ("JACOBI", pad_kernels::jacobi::spec(n)),
        ("EXPL", pad_kernels::expl::spec(n)),
        ("SHAL", pad_kernels::shal::spec(n)),
        ("ADI", pad_kernels::adi::spec(n)),
    ]
}

fn config(strategy: StrategyKind) -> SearchConfig {
    SearchConfig {
        strategy,
        budget: 300,
        seed: 0xD1FF,
        beam_width: 4,
        threads: 1,
        confirm_exact: true,
    }
}

/// Pairwise rank concordance between fast scores and exact misses:
/// `(agreeing pairs, comparable pairs)` over pairs whose scores differ
/// on both rungs (ties carry no ordering information on either side).
fn concordance(promotions: &[Promotion]) -> (u64, u64) {
    let confirmed: Vec<(f64, u64)> = promotions
        .iter()
        .filter_map(|p| p.exact.map(|e| (p.fast, e)))
        .collect();
    let mut agree = 0;
    let mut total = 0;
    for (i, &(fa, ea)) in confirmed.iter().enumerate() {
        for &(fb, eb) in confirmed.iter().skip(i + 1) {
            if fa == fb || ea == eb {
                continue;
            }
            total += 1;
            if (fa < fb) == (ea < eb) {
                agree += 1;
            }
        }
    }
    (agree, total)
}

#[test]
fn fast_and_exact_rungs_agree_in_rank_order() {
    let cache = CacheConfig::direct_mapped(2048, 32);
    let mut agree = 0;
    let mut total = 0;
    for (name, program) in kernels() {
        for strategy in [StrategyKind::Beam, StrategyKind::Anneal] {
            let result = search(&program, &cache, &config(strategy));
            let (a, t) = concordance(&result.promotions);
            assert!(
                t >= 3,
                "{name}/{}: too few comparable promoted pairs ({t}) to pin anything",
                result.strategy
            );
            let frac = a as f64 / t as f64;
            assert!(
                frac >= 0.4,
                "{name}/{}: fast/exact concordance {frac:.2} ({a}/{t}) under the floor",
                result.strategy
            );
            eprintln!(
                "{name}/{}: concordance {a}/{t} = {frac:.2}",
                result.strategy
            );
            agree += a;
            total += t;
        }
    }
    let overall = agree as f64 / total as f64;
    eprintln!("overall concordance {agree}/{total} = {overall:.2}");
    assert!(
        overall >= 0.6,
        "aggregate fast/exact concordance {overall:.2} ({agree}/{total}) degraded"
    );
}

#[test]
fn seed_ordering_matches_ground_truth_on_the_severe_scale() {
    // The first three promotions of every run are the original, PADLITE,
    // and PAD seeds (deduped). On that scale — severe conflicts present
    // vs cleared — the analytic model must rank exactly like the
    // simulator, not merely correlate.
    let cache = CacheConfig::direct_mapped(2048, 32);
    for (name, program) in kernels() {
        let result = search(&program, &cache, &config(StrategyKind::Beam));
        let seeds: Vec<&Promotion> = result.promotions.iter().take(3).collect();
        assert!(seeds.len() >= 2, "{name}: heuristic seeds collapsed");
        let (a, t) = concordance(
            &seeds
                .iter()
                .map(|p| (*p).clone())
                .collect::<Vec<Promotion>>(),
        );
        assert_eq!(
            a, t,
            "{name}: seed fast ranking disagrees with exact simulation"
        );
    }
}
