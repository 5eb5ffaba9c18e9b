//! Intra-variable padding: `INTRAPADLITE`, `INTRAPAD` (Section 2.2), and
//! the linear-algebra heuristics `LINPAD1` / `LINPAD2` (Section 2.3),
//! combined per Figure 6 of the paper.
//!
//! For each safely-paddable array the driver evaluates the active *stencil*
//! condition and the active *linear-algebra* condition; while either holds
//! it grows a lower dimension by one element, bounded per dimension so the
//! search terminates (the paper notes pads of ≤ 3 elements sufficed on a
//! 16 KB cache). A pad that would break the IR's address limits
//! ([`AddressLimits`]) runs the budget out too. If the budget runs out
//! the array reverts to its original shape.

use pad_ir::{AddressLimits, ArrayId, Program};
use pad_telemetry::{Event, Value};

use crate::combined::{IntraHeuristic, LinAlgHeuristic, PadEvent};
use crate::config::PaddingConfig;
use crate::conflict::{is_severe_conflict, pair_distance};
use crate::euclid::{first_conflict, j_star};
use crate::layout::DataLayout;
use crate::linalg::is_linear_algebra_array;
use crate::nest::Nest;

/// Elements the driver may add to any one dimension before it gives up
/// on an array: enough to guarantee termination, where Section 2.2.2
/// notes pads of at most 3 elements sufficed on a 16 KB cache.
pub(crate) const MAX_INTRA_PAD_PER_DIM: i64 = 16;

/// Pads every eligible array in place, then reassigns sequential base
/// addresses (intra-variable padding changes sizes, so bases must be
/// recomputed before inter-variable placement runs).
pub(crate) fn pad_intra(
    program: &Program,
    layout: &mut DataLayout,
    config: &PaddingConfig,
    stencil: IntraHeuristic,
    linalg: LinAlgHeuristic,
    nest: &mut Nest,
    events: &mut Vec<PadEvent>,
) {
    if stencil == IntraHeuristic::None && linalg == LinAlgHeuristic::None {
        return;
    }
    // Read the first time an array would grow.
    let mut limits: Option<AddressLimits> = None;
    // Every array's bytes at its current shape.
    let mut footprint: i128 = program
        .arrays_with_ids()
        .map(|(id, _)| i128::from(layout.array_bytes(id)))
        .sum();
    // The shape a pad would give the array being padded.
    let mut sizes: Vec<i64> = Vec::new();
    for (id, spec) in program.arrays_with_ids() {
        if !spec.safety().can_pad_intra() || spec.rank() < 2 {
            continue;
        }
        let linalg_applies = match linalg {
            LinAlgHeuristic::None => false,
            LinAlgHeuristic::LinPad1 | LinAlgHeuristic::LinPad2 => true,
            LinAlgHeuristic::GatedLinPad2 => is_linear_algebra_array(program, id),
        };

        let lower_dims = spec.rank() - 1;
        let mut pads = vec![0i64; lower_dims];
        sizes.clear();
        sizes.extend(layout.dims(id).iter().map(|d| d.size));
        let others = footprint - i128::from(layout.array_bytes(id));
        let mut failed = false;
        loop {
            let stencil_dim = match stencil {
                IntraHeuristic::None => None,
                IntraHeuristic::Lite => lite_violated_dim(id, layout, config),
                IntraHeuristic::Analyzed => analyzed_violated(nest, id, layout, config),
            };
            let linalg_dim = if linalg_applies {
                linalg_violated(id, layout, config, linalg)
            } else {
                None
            };
            let Some(dim) = min_opt(stencil_dim, linalg_dim) else {
                break;
            };
            // Pad the lowest dimension at or above the violated one that
            // still has budget.
            let Some(target) = (dim..lower_dims).find(|&d| pads[d] < MAX_INTRA_PAD_PER_DIM) else {
                failed = true;
                break;
            };
            sizes[target] += 1;
            let limits = limits.get_or_insert_with(|| AddressLimits::new(program));
            if !limits.admits(id, &sizes, others) {
                failed = true;
                break;
            }
            layout.pad_dim(id, target, 1);
            pads[target] += 1;
        }

        if failed {
            layout.restore_original_dims(id);
        }
        footprint = others + i128::from(layout.array_bytes(id));
        pad_telemetry::emit(|| {
            let stencil_label = match stencil {
                IntraHeuristic::None => None,
                IntraHeuristic::Lite => Some("INTRAPADLITE"),
                IntraHeuristic::Analyzed => Some("INTRAPAD"),
            };
            let linalg_label = match linalg {
                LinAlgHeuristic::None => None,
                _ if !linalg_applies => None,
                LinAlgHeuristic::LinPad1 => Some("LINPAD1"),
                LinAlgHeuristic::LinPad2 | LinAlgHeuristic::GatedLinPad2 => Some("LINPAD2"),
            };
            let heuristic = [stencil_label, linalg_label]
                .into_iter()
                .flatten()
                .collect::<Vec<_>>()
                .join("+");
            let outcome = if failed {
                "failed"
            } else if pads.iter().any(|&p| p > 0) {
                "padded"
            } else {
                "unchanged"
            };
            let col_bytes = layout.column_size(id) as u64 * u64::from(layout.elem_size(id));
            let level = config.levels()[0];
            // How far the (final) column lands from a cache-size multiple:
            // the separation the stencil conditions demand stays >= M.
            let conflict = crate::conflict::circular_distance(col_bytes as i64, level.size);
            Event::instant(
                "pad",
                format!("intra/{}", spec.name()),
                vec![
                    ("variable", Value::Str(spec.name().to_string())),
                    ("heuristic", Value::Str(heuristic)),
                    ("conflict_distance", Value::U64(conflict)),
                    (
                        "pad_elems",
                        Value::U64(pads.iter().map(|&p| p as u64).sum()),
                    ),
                    ("column_size", Value::U64(layout.column_size(id) as u64)),
                    ("outcome", Value::Str(outcome.to_string())),
                ],
            )
        });
        if failed {
            events.push(PadEvent::IntraFailed {
                array: id,
                name: spec.name().to_string(),
            });
        } else if pads.iter().any(|&p| p > 0) {
            events.push(PadEvent::IntraPad {
                array: id,
                name: spec.name().to_string(),
                elements_by_dim: pads,
            });
        }
    }
    layout.assign_sequential_bases();
}

fn min_opt(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// `INTRAPADLITE`: returns the lowest dimension `d` whose subarray size
/// (or twice it) is within `M` of a multiple of `C_s` on some level.
/// Subarray `d` spans dimensions `0..=d`; the last dimension's product is
/// the whole array, whose spacing inter-variable padding owns.
fn lite_violated_dim(id: ArrayId, layout: &DataLayout, config: &PaddingConfig) -> Option<usize> {
    let dims = layout.dims(id);
    let mut sub_bytes = i128::from(layout.elem_size(id));
    for (d, dim) in dims[..dims.len() - 1].iter().enumerate() {
        sub_bytes *= i128::from(dim.size);
        for level in config.levels() {
            let m = config.m_bytes(*level);
            for k in 1..=2i128 {
                let dist = crate::conflict::circular_distance(k * sub_bytes, level.size);
                if dist < m {
                    return Some(d);
                }
            }
        }
    }
    None
}

/// `INTRAPAD`: true (as dimension 0) when any two constant-distance
/// references to this array in the same loop conflict severely on some
/// level. The nest is re-bound to the *current* padded shape each round,
/// so each pad is re-evaluated.
fn analyzed_violated(
    nest: &mut Nest,
    id: ArrayId,
    layout: &DataLayout,
    config: &PaddingConfig,
) -> Option<usize> {
    nest.bind(layout);
    let nest = &*nest;
    let mine = |r: &usize| nest.refs()[*r].array == id;
    for g in nest.groups() {
        for a in g.refs.clone().filter(mine) {
            for b in (a + 1..g.refs.end).filter(mine) {
                if nest.coeffs(a) != nest.coeffs(b) {
                    continue;
                }
                let diff = pair_distance(0, nest.offset(a), 0, nest.offset(b));
                if config
                    .levels()
                    .iter()
                    .any(|lvl| is_severe_conflict(diff, lvl.size, lvl.line, lvl.line))
                {
                    return Some(0);
                }
            }
        }
    }
    None
}

/// `LINPAD1` / `LINPAD2` column-size conditions (always dimension 0).
fn linalg_violated(
    id: ArrayId,
    layout: &DataLayout,
    config: &PaddingConfig,
    mode: LinAlgHeuristic,
) -> Option<usize> {
    let col_bytes = layout.column_size(id) as u64 * u64::from(layout.elem_size(id));
    let row_size = layout.dims(id).get(1).map_or(1, |d| d.size) as u64;
    for level in config.levels() {
        let violated = match mode {
            LinAlgHeuristic::None => false,
            LinAlgHeuristic::LinPad1 => col_bytes.is_multiple_of(2 * level.line),
            LinAlgHeuristic::LinPad2 | LinAlgHeuristic::GatedLinPad2 => {
                let j = first_conflict(level.size, col_bytes, level.line);
                j < j_star(config.linpad2_j_cap, row_size, level.size, level.line)
            }
        };
        if violated {
            return Some(0);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_ir::{ArrayBuilder, Loop, Program, Stmt, Subscript};

    /// JACOBI's first nest with 1-byte elements so paper units apply.
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
        (b.build().expect("valid"), a, bb)
    }

    fn run(
        p: &Program,
        config: &PaddingConfig,
        stencil: IntraHeuristic,
        linalg: LinAlgHeuristic,
    ) -> (DataLayout, Vec<PadEvent>) {
        let mut layout = DataLayout::original(p);
        let mut events = Vec::new();
        let mut nest = Nest::compile(p);
        pad_intra(
            p,
            &mut layout,
            config,
            stencil,
            linalg,
            &mut nest,
            &mut events,
        );
        (layout, events)
    }

    #[test]
    fn paper_example_intrapadlite_pads_to_520() {
        // N=512, Cs=1024, Ls=4 (element units): INTRAPADLITE pads the
        // column to 520 because 2N mod Cs = 0 and M = 16.
        let (p, a, bb) = jacobi(512);
        let config = PaddingConfig::new(1024, 4).unwrap();
        let (layout, _) = run(&p, &config, IntraHeuristic::Lite, LinAlgHeuristic::None);
        assert_eq!(layout.column_size(a), 520);
        assert_eq!(
            layout.column_size(bb),
            520,
            "B's dimensions match, so B pads too"
        );
    }

    #[test]
    fn paper_example_intrapad_pads_to_514() {
        // Same parameters: INTRAPAD sees A(j,i-1)/A(j,i+1) at conflict
        // distance 0 and pads A's column by 2; B has a single reference
        // and is untouched.
        let (p, a, bb) = jacobi(512);
        let config = PaddingConfig::new(1024, 4).unwrap();
        let (layout, events) = run(&p, &config, IntraHeuristic::Analyzed, LinAlgHeuristic::None);
        assert_eq!(layout.column_size(a), 514);
        assert_eq!(layout.column_size(bb), 512);
        assert_eq!(events.len(), 1);
        match &events[0] {
            PadEvent::IntraPad {
                name,
                elements_by_dim,
                ..
            } => {
                assert_eq!(name, "A");
                assert_eq!(elements_by_dim, &vec![2]);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn paper_example_large_cache_needs_no_intra_padding() {
        // N=512, Cs=2048: neither heuristic pads.
        let (p, a, _) = jacobi(512);
        let config = PaddingConfig::new(2048, 4).unwrap();
        for mode in [IntraHeuristic::Lite, IntraHeuristic::Analyzed] {
            let (layout, events) = run(&p, &config, mode, LinAlgHeuristic::None);
            assert_eq!(layout.column_size(a), 512, "{mode:?}");
            assert!(events.is_empty());
        }
    }

    #[test]
    fn paper_example_n934_needs_no_intra_padding() {
        let (p, a, _) = jacobi(934);
        let config = PaddingConfig::new(1024, 4).unwrap();
        for mode in [IntraHeuristic::Lite, IntraHeuristic::Analyzed] {
            let (layout, _) = run(&p, &config, mode, LinAlgHeuristic::None);
            assert_eq!(layout.column_size(a), 934, "{mode:?}");
        }
    }

    #[test]
    fn linpad1_avoids_multiples_of_two_lines() {
        let (p, a, _) = jacobi(512);
        let config = PaddingConfig::new(1024, 4).unwrap();
        let (layout, _) = run(&p, &config, IntraHeuristic::None, LinAlgHeuristic::LinPad1);
        // 512 % 8 == 0 is rejected; 513 is the first acceptable size.
        assert_eq!(layout.column_size(a), 513);
    }

    #[test]
    fn linpad2_finds_non_conflicting_column() {
        let (p, a, _) = jacobi(512);
        let config = PaddingConfig::new(1024, 4).unwrap();
        let (layout, _) = run(&p, &config, IntraHeuristic::None, LinAlgHeuristic::LinPad2);
        let col = layout.column_size(a) as u64;
        let js = j_star(129, layout.dims(a)[1].size as u64, 1024, 4);
        assert!(
            first_conflict(1024, col, 4) >= js,
            "column {col} still conflicts"
        );
        // The paper proves 2*Ls consecutive sizes always contain a good one.
        assert!(col - 512 <= 8);
    }

    #[test]
    fn gated_linpad2_skips_stencil_arrays() {
        let (p, a, _) = jacobi(512);
        let config = PaddingConfig::new(1024, 4).unwrap();
        let (layout, _) = run(
            &p,
            &config,
            IntraHeuristic::None,
            LinAlgHeuristic::GatedLinPad2,
        );
        assert_eq!(layout.column_size(a), 512, "JACOBI is not linear algebra");
    }

    #[test]
    fn gated_linpad2_pads_linear_algebra_arrays() {
        let mut b = Program::builder("mm");
        let a = b.add_array(ArrayBuilder::new("A", [256, 256]).elem_size(1));
        b.push(Stmt::loop_nest(
            [
                Loop::new("k", 1, 256),
                Loop::new("j", 1, 256),
                Loop::new("i", 1, 256),
            ],
            vec![Stmt::refs(vec![
                a.at([Subscript::var("i"), Subscript::var("j")]),
                a.at([Subscript::var("i"), Subscript::var("k")]),
            ])],
        ));
        let p = b.build().expect("valid");
        let config = PaddingConfig::new(1024, 4).unwrap();
        let (layout, _) = run(
            &p,
            &config,
            IntraHeuristic::None,
            LinAlgHeuristic::GatedLinPad2,
        );
        assert!(layout.column_size(a) > 256, "256 = Cs/4 conflicts at j = 4");
    }

    #[test]
    fn unsafe_arrays_are_never_padded() {
        let mut b = Program::builder("p");
        let n = 512;
        let a = b.add_array(
            ArrayBuilder::new("A", [n, n])
                .elem_size(1)
                .passed_as_parameter(true),
        );
        b.push(Stmt::loop_nest(
            [Loop::new("i", 2, n - 1), Loop::new("j", 2, n - 1)],
            vec![Stmt::refs(vec![
                a.at([Subscript::var("j"), Subscript::var_offset("i", -1)]),
                a.at([Subscript::var("j"), Subscript::var_offset("i", 1)]),
            ])],
        ));
        let p = b.build().expect("valid");
        let config = PaddingConfig::new(1024, 4).unwrap();
        let (layout, events) = run(&p, &config, IntraHeuristic::Analyzed, LinAlgHeuristic::None);
        assert_eq!(layout.column_size(a), 512);
        assert!(events.is_empty());
    }

    #[test]
    fn one_dimensional_arrays_are_skipped() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [1024]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 1024),
            vec![Stmt::refs(vec![a.at([Subscript::var("i")])])],
        ));
        let p = b.build().expect("valid");
        let config = PaddingConfig::new(1024, 4).unwrap();
        let (layout, _) = run(&p, &config, IntraHeuristic::Lite, LinAlgHeuristic::LinPad1);
        assert_eq!(layout.dims(a)[0].size, 1024);
    }

    #[test]
    fn three_dimensional_subarray_condition() {
        // Column fine, but plane size (col * mid) is a multiple of Cs:
        // the violated dimension is 1 and only dimension 1 is padded.
        let mut b = Program::builder("p3");
        let a = b.add_array(ArrayBuilder::new("A", [100, 256, 4]).elem_size(1));
        b.push(Stmt::loop_nest(
            [
                Loop::new("k", 1, 4),
                Loop::new("j", 1, 256),
                Loop::new("i", 1, 100),
            ],
            vec![Stmt::refs(vec![a.at([
                Subscript::var("i"),
                Subscript::var("j"),
                Subscript::var("k"),
            ])])],
        ));
        let p = b.build().expect("valid");
        // Cs = 1024; plane = 100*256 = 25600 = 25 * 1024 -> violated.
        let config = PaddingConfig::new(1024, 4).unwrap();
        let (layout, _) = run(&p, &config, IntraHeuristic::Lite, LinAlgHeuristic::None);
        assert_eq!(layout.dims(a)[0].size, 100, "column untouched");
        assert!(layout.dims(a)[1].size > 256, "middle dimension padded");
        let plane = (layout.dims(a)[0].size * layout.dims(a)[1].size) as u64;
        for k in 1..=2u64 {
            assert!(crate::conflict::circular_distance((k * plane) as i64, 1024) >= 16);
        }
    }

    #[test]
    fn budget_exhaustion_reverts_the_array() {
        // An impossible demand: column of a 2-D array with Cs = 32 and
        // M = 4 lines * 4 bytes = 16 = Cs/2: every size is within M of a
        // multiple of 32, so LITE can never succeed and must revert.
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [32, 8]).elem_size(1));
        b.push(Stmt::loop_nest(
            [Loop::new("j", 1, 8), Loop::new("i", 1, 32)],
            vec![Stmt::refs(vec![
                a.at([Subscript::var("i"), Subscript::var("j")])
            ])],
        ));
        let p = b.build().expect("valid");
        let config = PaddingConfig::new(32, 4).unwrap();
        let (layout, events) = run(&p, &config, IntraHeuristic::Lite, LinAlgHeuristic::None);
        assert_eq!(layout.column_size(a), 32, "reverted to original");
        assert!(matches!(events.as_slice(), [PadEvent::IntraFailed { .. }]));
    }
}
