//! Every combination of the three padding phases (Sections 2.4–2.6).
//!
//! PADLITE and PAD are two fixed settings of the intra-variable,
//! linear-algebra and inter-variable phase choices. Here all 36 settings
//! run on JACOBI, DGEFA, EXPL and SHAL at 16 KiB and 2 KiB with 32-byte
//! lines, and each outcome must describe its own layout: every shape
//! keeps its rank, no two arrays overlap, and the events name exactly the
//! arrays that grew (with their per-dimension growth) and the bases that
//! moved (with the gap in bytes). PADLITE and PAD must equal their
//! settings spelled out, on every suite kernel.

use rivera_padding::core::{
    DataLayout, InterHeuristic, IntraHeuristic, LinAlgHeuristic, PadEvent, PaddingConfig,
    PaddingOutcome, PaddingPipeline,
};
use rivera_padding::ir::Program;
use rivera_padding::kernels::suite;

const INTRA: [IntraHeuristic; 3] = [
    IntraHeuristic::None,
    IntraHeuristic::Lite,
    IntraHeuristic::Analyzed,
];
const LINALG: [LinAlgHeuristic; 4] = [
    LinAlgHeuristic::None,
    LinAlgHeuristic::LinPad1,
    LinAlgHeuristic::LinPad2,
    LinAlgHeuristic::GatedLinPad2,
];
const INTER: [InterHeuristic; 3] = [
    InterHeuristic::None,
    InterHeuristic::Lite,
    InterHeuristic::Analyzed,
];

fn configs() -> [PaddingConfig; 2] {
    [16 * 1024, 2 * 1024].map(|size| PaddingConfig::new(size, 32).expect("valid"))
}

/// Checks that `outcome`'s events describe its layout exactly, and
/// returns how many arrays grew and how many bases moved.
fn check_events(program: &Program, outcome: &PaddingOutcome, what: &str) -> (usize, usize) {
    let layout = &outcome.layout;
    assert!(layout.check_no_overlap(), "{what}: overlap");
    let (mut grew, mut moved) = (0, 0);
    let mut end = 0u64;
    for (id, spec) in program.arrays_with_ids() {
        let (dims, orig) = (layout.dims(id), layout.original_dims(id));
        assert_eq!(dims.len(), spec.rank(), "{what}: rank of {}", spec.name());
        let deltas: Vec<i64> = dims
            .iter()
            .zip(orig)
            .map(|(d, o)| d.size - o.size)
            .collect();
        let grown: Vec<&Vec<i64>> = outcome
            .events
            .iter()
            .filter_map(|e| match e {
                PadEvent::IntraPad {
                    array,
                    elements_by_dim,
                    ..
                } if *array == id => Some(elements_by_dim),
                _ => None,
            })
            .collect();
        if deltas.iter().any(|&d| d != 0) {
            grew += 1;
            assert_eq!(deltas.last(), Some(&0), "{what}: top dimension grew");
            assert_eq!(
                grown,
                [&deltas[..deltas.len() - 1].to_vec()],
                "{what}: {}",
                spec.name()
            );
        } else {
            assert!(grown.is_empty(), "{what}: {} did not grow", spec.name());
        }

        let natural = end.next_multiple_of(u64::from(spec.elem_size()));
        let base = layout.base_addr(id);
        assert!(base >= natural, "{what}: {} overlaps", spec.name());
        let gaps: Vec<u64> = outcome
            .events
            .iter()
            .filter_map(|e| match e {
                PadEvent::InterGap { array, bytes, .. } if *array == id => Some(*bytes),
                _ => None,
            })
            .collect();
        let expected: &[u64] = if base > natural {
            moved += 1;
            &[base - natural]
        } else {
            &[]
        };
        assert_eq!(gaps, expected, "{what}: gap before {}", spec.name());
        end = base + layout.array_bytes(id);
    }
    (grew, moved)
}

#[test]
fn every_phase_combination_describes_its_layout() {
    let kernels = suite();
    let (mut grew, mut moved) = (0, 0);
    for name in ["JACOBI512", "DGEFA256", "EXPL512", "SHAL512"] {
        let kernel = kernels
            .iter()
            .find(|k| k.name == name)
            .expect("suite kernel");
        let program = (kernel.spec)(kernel.default_n);
        for config in configs() {
            for intra in INTRA {
                for linalg in LINALG {
                    for inter in INTER {
                        let outcome = PaddingPipeline::custom(intra, linalg, inter, config.clone())
                            .run(&program);
                        let what = format!(
                            "{name} Cs={} {intra:?}/{linalg:?}/{inter:?}",
                            config.primary().size
                        );
                        let (g, m) = check_events(&program, &outcome, &what);
                        grew += g;
                        moved += m;
                    }
                }
            }
        }
    }
    // The settings do grow arrays and move bases here.
    assert!(grew > 0 && moved > 0, "grew {grew}, moved {moved}");
}

#[test]
fn padlite_and_pad_are_their_phase_settings() {
    let same = |a: &PaddingOutcome, b: &PaddingOutcome, what: &str| {
        assert_eq!(a.layout, b.layout, "{what}: layout");
        assert_eq!(a.events, b.events, "{what}: events");
        assert_eq!(a.stats, b.stats, "{what}: stats");
    };
    for kernel in suite() {
        let program = (kernel.spec)(kernel.default_n);
        for config in configs() {
            let what = format!("{} Cs={}", kernel.name, config.primary().size);
            same(
                &PaddingPipeline::padlite(config.clone()).run(&program),
                &PaddingPipeline::custom(
                    IntraHeuristic::Lite,
                    LinAlgHeuristic::LinPad1,
                    InterHeuristic::Lite,
                    config.clone(),
                )
                .run(&program),
                &format!("{what} PADLITE"),
            );
            same(
                &PaddingPipeline::pad(config.clone()).run(&program),
                &PaddingPipeline::custom(
                    IntraHeuristic::Analyzed,
                    LinAlgHeuristic::GatedLinPad2,
                    InterHeuristic::Analyzed,
                    config.clone(),
                )
                .run(&program),
                &format!("{what} PAD"),
            );
            // The identity setting changes nothing.
            let none = PaddingPipeline::custom(
                IntraHeuristic::None,
                LinAlgHeuristic::None,
                InterHeuristic::None,
                config,
            )
            .run(&program);
            assert_eq!(none.layout, DataLayout::original(&program), "{what}");
            assert!(none.events.is_empty(), "{what}");
        }
    }
}
