//! The combined PADLITE and PAD algorithms (Sections 2.4–2.6).
//!
//! Both algorithms run intra-variable padding first (it changes array
//! sizes and therefore base addresses), then inter-variable padding:
//!
//! * **PADLITE** = (`INTRAPADLITE` + `LINPAD1`) then `INTERPADLITE`.
//!   It cannot recognize linear-algebra codes, so it uses the less
//!   aggressive `LINPAD1` indiscriminately.
//! * **PAD** = (`INTRAPAD` + `LINPAD2` gated to linear-algebra arrays)
//!   then `INTERPAD`.
//!
//! [`PaddingPipeline::custom`] exposes each phase independently, which the
//! experiment harness uses for the paper's ablation figures (inter-only
//! padding in Figure 12, `LINPAD1` vs `LINPAD2` in Figure 17, varying `M`
//! in Figure 13).

use std::fmt;

use pad_ir::{ArrayId, Program};

use crate::config::PaddingConfig;
use crate::inter::assign_bases;
use crate::intra::pad_intra;
use crate::layout::DataLayout;
use crate::nest::Nest;
use crate::stats::PaddingStats;

/// Intra-variable (stencil) heuristic selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraHeuristic {
    /// No stencil-oriented intra-variable padding.
    None,
    /// `INTRAPADLITE`: dimension sizes only.
    Lite,
    /// `INTRAPAD`: subscript analysis.
    Analyzed,
}

/// Linear-algebra (column-size) heuristic selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinAlgHeuristic {
    /// No linear-algebra padding.
    None,
    /// `LINPAD1` on every (rank ≥ 2) array, as PADLITE does.
    LinPad1,
    /// `LINPAD2` on every array (used in the Figure 17 comparison).
    LinPad2,
    /// `LINPAD2` only on arrays detected in linear-algebra computations,
    /// as PAD does.
    GatedLinPad2,
}

/// Inter-variable heuristic selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterHeuristic {
    /// Leave base addresses densely packed.
    None,
    /// `INTERPADLITE`: separate equal-size variables by `M`.
    Lite,
    /// `INTERPAD`: clear conflicts between uniformly generated references.
    Analyzed,
}

/// One padding decision, recorded for diagnostics and Table 2 statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PadEvent {
    /// Intra-variable padding grew an array.
    IntraPad {
        /// The padded array.
        array: ArrayId,
        /// Its name.
        name: String,
        /// Elements added per dimension (lower dimensions only).
        elements_by_dim: Vec<i64>,
    },
    /// The intra heuristic exhausted its budget and reverted the array.
    IntraFailed {
        /// The reverted array.
        array: ArrayId,
        /// Its name.
        name: String,
    },
    /// Inter-variable padding left a gap before an array.
    InterGap {
        /// The array placed after the gap.
        array: ArrayId,
        /// Its name.
        name: String,
        /// Gap size in bytes.
        bytes: u64,
    },
    /// No satisfactory base address was found within one cache size; the
    /// array stayed at its natural address.
    InterFailed {
        /// The affected array.
        array: ArrayId,
        /// Its name.
        name: String,
    },
}

impl fmt::Display for PadEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PadEvent::IntraPad {
                name,
                elements_by_dim,
                ..
            } => {
                write!(f, "intra-pad {name} by {elements_by_dim:?} elements")
            }
            PadEvent::IntraFailed { name, .. } => {
                write!(f, "intra-pad of {name} failed; reverted")
            }
            PadEvent::InterGap { name, bytes, .. } => {
                write!(f, "inter-pad: {bytes} bytes before {name}")
            }
            PadEvent::InterFailed { name, .. } => {
                write!(f, "inter-pad of {name} failed; natural address kept")
            }
        }
    }
}

/// The result of running a padding pipeline.
#[derive(Debug, Clone)]
pub struct PaddingOutcome {
    /// The transformed data layout.
    pub layout: DataLayout,
    /// Table 2-style compile-time statistics.
    pub stats: PaddingStats,
    /// Every individual padding decision, in order.
    pub events: Vec<PadEvent>,
}

/// A configurable padding pipeline; see the module docs above.
///
/// # Example
///
/// ```
/// use pad_core::{PaddingConfig, PaddingPipeline};
/// use pad_ir::{ArrayBuilder, Loop, Program, Stmt, Subscript};
///
/// let n = 512;
/// let mut b = Program::builder("copy");
/// let x = b.add_array(ArrayBuilder::new("X", [n, n]));
/// let y = b.add_array(ArrayBuilder::new("Y", [n, n]));
/// b.push(Stmt::loop_nest(
///     [Loop::new("i", 1, n), Loop::new("j", 1, n)],
///     vec![Stmt::refs(vec![
///         x.at([Subscript::var("j"), Subscript::var("i")]),
///         y.at([Subscript::var("j"), Subscript::var("i")]).write(),
///     ])],
/// ));
/// let program = b.build()?;
///
/// let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&program);
/// assert!(outcome.layout.check_no_overlap());
/// # Ok::<(), pad_ir::IrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PaddingPipeline {
    intra: IntraHeuristic,
    linalg: LinAlgHeuristic,
    inter: InterHeuristic,
    config: PaddingConfig,
}

impl PaddingPipeline {
    /// The PADLITE algorithm (Section 2.5).
    pub fn padlite(config: PaddingConfig) -> Self {
        PaddingPipeline {
            intra: IntraHeuristic::Lite,
            linalg: LinAlgHeuristic::LinPad1,
            inter: InterHeuristic::Lite,
            config,
        }
    }

    /// The PAD algorithm (Section 2.6).
    pub fn pad(config: PaddingConfig) -> Self {
        PaddingPipeline {
            intra: IntraHeuristic::Analyzed,
            linalg: LinAlgHeuristic::GatedLinPad2,
            inter: InterHeuristic::Analyzed,
            config,
        }
    }

    /// An arbitrary combination of phases, for ablation experiments.
    pub fn custom(
        intra: IntraHeuristic,
        linalg: LinAlgHeuristic,
        inter: InterHeuristic,
        config: PaddingConfig,
    ) -> Self {
        PaddingPipeline {
            intra,
            linalg,
            inter,
            config,
        }
    }

    /// Runs the pipeline: intra-variable padding first, then
    /// inter-variable placement. Never fails — heuristics that cannot
    /// satisfy their pad condition fall back to the natural layout for the
    /// affected array and record a failure event.
    pub fn run(&self, program: &Program) -> PaddingOutcome {
        let mut layout = DataLayout::original(program);
        let mut nest = Nest::compile(program);
        let mut events = Vec::new();
        pad_intra(
            program,
            &mut layout,
            &self.config,
            self.intra,
            self.linalg,
            &mut nest,
            &mut events,
        );
        assign_bases(
            program,
            &mut layout,
            &self.config,
            self.inter,
            &mut nest,
            &mut events,
        );
        let stats = PaddingStats::compute(program, &layout, &events);
        PaddingOutcome {
            layout,
            stats,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::find_severe_conflicts;
    use pad_ir::{ArrayBuilder, Loop, Stmt, Subscript};

    /// Full JACOBI (both nests of Figure 7), 1-byte elements.
    fn jacobi(n: i64) -> (Program, ArrayId, ArrayId) {
        let mut b = Program::builder("jacobi");
        let a = b.add_array(ArrayBuilder::new("A", [n, n]).elem_size(1));
        let bb = b.add_array(ArrayBuilder::new("B", [n, n]).elem_size(1));
        b.push(Stmt::loop_nest(
            [Loop::new("i", 2, n - 1), Loop::new("j", 2, n - 1)],
            vec![Stmt::refs(vec![
                a.at([Subscript::var_offset("j", -1), Subscript::var("i")]),
                a.at([Subscript::var("j"), Subscript::var_offset("i", -1)]),
                a.at([Subscript::var_offset("j", 1), Subscript::var("i")]),
                a.at([Subscript::var("j"), Subscript::var_offset("i", 1)]),
                bb.at([Subscript::var("j"), Subscript::var("i")]).write(),
            ])],
        ));
        b.push(Stmt::loop_nest(
            [Loop::new("i", 2, n - 1), Loop::new("j", 2, n - 1)],
            vec![Stmt::refs(vec![
                bb.at([Subscript::var("j"), Subscript::var("i")]),
                a.at([Subscript::var("j"), Subscript::var("i")]).write(),
            ])],
        ));
        (b.build().expect("valid"), a, bb)
    }

    #[test]
    fn pad_clears_all_severe_conflicts_in_jacobi() {
        for (n, cs) in [(512i64, 2048u64), (512, 1024), (934, 1024), (256, 2048)] {
            let (p, _, _) = jacobi(n);
            let config = PaddingConfig::new(cs, 4).unwrap();
            let outcome = PaddingPipeline::pad(config.clone()).run(&p);
            let remaining = find_severe_conflicts(&p, &outcome.layout, &config);
            assert!(
                remaining.is_empty(),
                "N={n} Cs={cs}: conflicts remain: {remaining:?}"
            );
            assert!(outcome.layout.check_no_overlap());
        }
    }

    #[test]
    fn paper_walkthrough_n512_cs2048() {
        // PAD: no intra padding; B padded by 5 (INTERPAD).
        let (p, a, bb) = jacobi(512);
        let config = PaddingConfig::new(2048, 4).unwrap();
        let outcome = PaddingPipeline::pad(config).run(&p);
        assert_eq!(outcome.layout.column_size(a), 512);
        assert_eq!(outcome.layout.base_addr(bb), 512 * 512 + 5);
    }

    #[test]
    fn paper_walkthrough_n512_cs1024() {
        // PAD: A's column padded to 514; B placed immediately after A.
        let (p, a, bb) = jacobi(512);
        let config = PaddingConfig::new(1024, 4).unwrap();
        let outcome = PaddingPipeline::pad(config).run(&p);
        assert_eq!(outcome.layout.column_size(a), 514);
        assert_eq!(outcome.layout.column_size(bb), 512);
        assert_eq!(outcome.layout.base_addr(bb), 514 * 512);
    }

    #[test]
    fn paper_walkthrough_n934_cs1024() {
        // PADLITE applies no padding at all (and misses the conflict);
        // PAD pads B by 6.
        let (p, a, bb) = jacobi(934);
        let config = PaddingConfig::new(1024, 4).unwrap();

        let lite = PaddingPipeline::custom(
            IntraHeuristic::Lite,
            LinAlgHeuristic::None, // paper's walkthrough ignores LINPAD1
            InterHeuristic::Lite,
            config.clone(),
        )
        .run(&p);
        assert_eq!(lite.layout.column_size(a), 934);
        assert_eq!(lite.layout.base_addr(bb), 934 * 934);
        let missed = find_severe_conflicts(&p, &lite.layout, &config);
        assert!(
            !missed.is_empty(),
            "PADLITE leaves the severe conflict in place"
        );

        let pad = PaddingPipeline::pad(config.clone()).run(&p);
        assert_eq!(pad.layout.base_addr(bb), 934 * 934 + 6);
        assert!(find_severe_conflicts(&p, &pad.layout, &config).is_empty());
    }

    #[test]
    fn outcome_stats_reflect_events() {
        let (p, _, _) = jacobi(512);
        let config = PaddingConfig::new(1024, 4).unwrap();
        let outcome = PaddingPipeline::pad(config).run(&p);
        assert_eq!(outcome.stats.global_arrays, 2);
        assert_eq!(outcome.stats.arrays_intra_padded, 1);
        assert_eq!(outcome.stats.max_intra_increment, 2);
        assert!(outcome.stats.uniform_ref_percent > 99.0);
        assert!(outcome.stats.size_increase_percent < 1.0);
    }

    #[test]
    fn inter_only_pipeline_keeps_shapes() {
        let (p, a, _) = jacobi(512);
        let config = PaddingConfig::new(1024, 4).unwrap();
        let outcome = PaddingPipeline::custom(
            IntraHeuristic::None,
            LinAlgHeuristic::None,
            InterHeuristic::Analyzed,
            config,
        )
        .run(&p);
        assert_eq!(outcome.layout.column_size(a), 512);
    }

    #[test]
    fn empty_program_is_a_noop() {
        let p = Program::builder("empty").build().expect("valid");
        let outcome = PaddingPipeline::pad(PaddingConfig::paper_base()).run(&p);
        assert_eq!(outcome.layout.len(), 0);
        assert!(outcome.events.is_empty());
    }
}
