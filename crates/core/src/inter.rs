//! Inter-variable padding: `INTERPADLITE` and `INTERPAD` (Sections 2.1.1
//! and 2.1.2, Figure 5 of the paper).
//!
//! Both heuristics place variables greedily, one at a time, starting each
//! variable at the next available address and incrementing ("padding")
//! that tentative address while a pad condition holds against any
//! already-placed variable:
//!
//! * `INTERPADLITE` pads while the tentative base address is within `M`
//!   (cache lines) of an *equally-sized* placed variable's base, modulo
//!   the cache size.
//! * `INTERPAD` pads while any constant-distance (uniformly generated)
//!   reference pair between the new variable and a placed variable has a
//!   conflict distance below the line size in some loop.
//!
//! If a variable's tentative address travels more than a cache size from
//! its starting point, no satisfactory address exists and the heuristic
//! falls back to the original tentative location — exactly the paper's
//! failure rule.

use pad_ir::{ArrayId, Program};
use pad_telemetry::{Event, Value};

use crate::combined::PadEvent;
use crate::config::PaddingConfig;
use crate::conflict::{increment_to_clear, pair_distance};
use crate::layout::{align_up, DataLayout};
use crate::nest::Nest;

/// Which inter-variable pad condition to apply during placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InterMode {
    /// `INTERPADLITE`: equal-size variables, base-address distance < `M`.
    Lite,
    /// `INTERPAD`: constant-distance reference pairs, distance < `L_s`.
    Analyzed,
}

/// Places all arrays, mutating the layout's base addresses in declaration
/// order. Records gap/failure events.
pub(crate) fn assign_bases(
    program: &Program,
    layout: &mut DataLayout,
    config: &PaddingConfig,
    mode: InterMode,
    nest: &mut Nest,
    events: &mut Vec<PadEvent>,
) {
    // Reference offsets from their arrays' bases depend only on the
    // (already intra-padded) shapes, so one binding serves every
    // tentative address.
    if mode == InterMode::Analyzed {
        nest.bind(layout);
    }

    let max_travel: u64 = config
        .levels()
        .iter()
        .map(|l| l.size)
        .max()
        .expect("levels nonempty");
    let mut placed: Vec<ArrayId> = Vec::new();
    let mut next_free = 0u64;

    for (id, spec) in program.arrays_with_ids() {
        let align = u64::from(spec.elem_size());
        next_free = align_up(next_free, align);

        if !spec.safety().can_pad_inter() {
            layout.set_base_addr(id, next_free);
            next_free += layout.array_bytes(id);
            placed.push(id);
            continue;
        }

        let original_tentative = next_free;
        let mut addr = next_free;
        let mut failed = false;
        // The pad required at the natural address — the conflict pressure
        // the heuristic is relieving; recorded by telemetry below.
        let mut initial_need = 0u64;
        let mut first_round = true;
        loop {
            let pad = match mode {
                InterMode::Lite => needed_pad_lite(id, addr, layout, config, &placed),
                InterMode::Analyzed => needed_pad_analyzed(id, addr, layout, config, &placed, nest),
            };
            if first_round {
                initial_need = pad;
                first_round = false;
            }
            if pad == 0 {
                break;
            }
            addr += align_up(pad, align);
            if addr - original_tentative > max_travel {
                addr = original_tentative;
                failed = true;
                break;
            }
        }

        layout.set_base_addr(id, addr);
        pad_telemetry::emit(|| {
            let heuristic = match mode {
                InterMode::Lite => "INTERPADLITE",
                InterMode::Analyzed => "INTERPAD",
            };
            let outcome = if failed {
                "failed"
            } else if addr > original_tentative {
                "padded"
            } else {
                "unchanged"
            };
            Event::instant(
                "pad",
                format!("inter/{}", spec.name()),
                vec![
                    ("variable", Value::Str(spec.name().to_string())),
                    ("heuristic", Value::Str(heuristic.to_string())),
                    ("conflict_distance", Value::U64(initial_need)),
                    ("pad_bytes", Value::U64(addr - original_tentative)),
                    ("base_addr", Value::U64(addr)),
                    ("outcome", Value::Str(outcome.to_string())),
                ],
            )
        });
        if failed {
            events.push(PadEvent::InterFailed {
                array: id,
                name: spec.name().to_string(),
            });
        } else if addr > original_tentative {
            events.push(PadEvent::InterGap {
                array: id,
                name: spec.name().to_string(),
                bytes: addr - original_tentative,
            });
        }
        next_free = addr + layout.array_bytes(id);
        placed.push(id);
    }
    layout.set_total_bytes(next_free);
}

/// `INTERPADLITE`'s `neededPad`: the largest increment required to move
/// `addr` at least `M` (circularly) from every placed equal-size
/// variable's base, on every cache level.
fn needed_pad_lite(
    id: ArrayId,
    addr: u64,
    layout: &DataLayout,
    config: &PaddingConfig,
    placed: &[ArrayId],
) -> u64 {
    let my_size = layout.array_bytes(id);
    let mut pad = 0u64;
    for &b in placed {
        if b == id || layout.array_bytes(b) != my_size {
            continue;
        }
        let diff = pair_distance(addr, 0, layout.base_addr(b), 0);
        for level in config.levels() {
            let m = config.m_bytes(*level);
            if 2 * m > level.size {
                continue; // degenerate configuration: separation impossible
            }
            pad = pad.max(increment_to_clear(diff, level.size, m));
        }
    }
    pad
}

/// `INTERPAD`'s `neededPad`: the largest increment required to clear every
/// constant-distance reference pair between `id` (at tentative `addr`) and
/// any placed variable, in every loop, on every cache level.
fn needed_pad_analyzed(
    id: ArrayId,
    addr: u64,
    layout: &DataLayout,
    config: &PaddingConfig,
    placed: &[ArrayId],
    nest: &Nest,
) -> u64 {
    let array = |r: usize| nest.refs()[r].array;
    let mut pad = 0u64;
    for g in nest.groups() {
        for ra in g.refs.clone().filter(|&r| array(r) == id) {
            for rb in g
                .refs
                .clone()
                .filter(|&r| array(r) != id && placed.contains(&array(r)))
            {
                if nest.coeffs(ra) != nest.coeffs(rb) {
                    continue; // distance varies per iteration: no severe conflict
                }
                let diff = pair_distance(
                    addr,
                    nest.offset(ra),
                    layout.base_addr(array(rb)),
                    nest.offset(rb),
                );
                for level in config.levels() {
                    if diff.unsigned_abs() < u128::from(level.line) {
                        continue; // same or adjacent line: spatial reuse, not conflict
                    }
                    pad = pad.max(increment_to_clear(diff, level.size, level.line));
                }
            }
        }
    }
    pad
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_ir::{ArrayBuilder, Loop, Stmt, Subscript};

    /// Figure 1 of the paper: 1-D dot-product arrays exactly a cache size
    /// apart, 1-byte elements so paper units apply directly.
    fn dot_program(n: i64) -> Program {
        let mut b = Program::builder("dot");
        let a = b.add_array(ArrayBuilder::new("A", [n]).elem_size(1));
        let bb = b.add_array(ArrayBuilder::new("B", [n]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::new("i", 1, n),
            vec![Stmt::refs(vec![
                a.at([Subscript::var("i")]),
                bb.at([Subscript::var("i")]),
            ])],
        ));
        b.build().expect("valid")
    }

    fn config_1k() -> PaddingConfig {
        PaddingConfig::new(1024, 4).expect("valid")
    }

    #[test]
    fn lite_separates_equal_size_variables() {
        let p = dot_program(1024);
        let mut layout = DataLayout::original(&p);
        let mut events = Vec::new();
        assign_bases(
            &p,
            &mut layout,
            &config_1k(),
            InterMode::Lite,
            &mut Nest::compile(&p),
            &mut events,
        );
        let ids: Vec<ArrayId> = p.arrays_with_ids().map(|(id, _)| id).collect();
        let d = layout.base_addr(ids[1]) as i64 - layout.base_addr(ids[0]) as i64;
        assert!(
            crate::conflict::circular_distance(d, 1024) >= 16,
            "M = 4 lines = 16 bytes"
        );
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn lite_ignores_differently_sized_variables() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [1024]).elem_size(1));
        let c = b.add_array(ArrayBuilder::new("C", [2048]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 1024),
            vec![Stmt::refs(vec![
                a.at([Subscript::var("i")]),
                c.at([Subscript::var("i")]),
            ])],
        ));
        let p = b.build().expect("valid");
        let mut layout = DataLayout::original(&p);
        let mut events = Vec::new();
        assign_bases(
            &p,
            &mut layout,
            &config_1k(),
            InterMode::Lite,
            &mut Nest::compile(&p),
            &mut events,
        );
        // Sizes differ, so LITE leaves the packing dense even though the
        // bases collide mod the cache size.
        assert_eq!(layout.base_addr(c), 1024);
        assert!(events.is_empty());
    }

    #[test]
    fn analyzed_separates_conflicting_refs_regardless_of_size() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [1024]).elem_size(1));
        let c = b.add_array(ArrayBuilder::new("C", [2048]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 1024),
            vec![Stmt::refs(vec![
                a.at([Subscript::var("i")]),
                c.at([Subscript::var("i")]),
            ])],
        ));
        let p = b.build().expect("valid");
        let mut layout = DataLayout::original(&p);
        let mut events = Vec::new();
        assign_bases(
            &p,
            &mut layout,
            &config_1k(),
            InterMode::Analyzed,
            &mut Nest::compile(&p),
            &mut events,
        );
        let d = layout.base_addr(c) as i64 - layout.base_addr(a) as i64;
        assert!(crate::conflict::circular_distance(d, 1024) >= 4);
    }

    #[test]
    fn analyzed_respects_subscript_offsets() {
        // A(i) vs B(i-2): bases separated by a line is NOT enough; the
        // subscript offset shifts the conflict.
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [1024]).elem_size(1));
        let bb = b.add_array(ArrayBuilder::new("B", [1024]).elem_size(1));
        b.push(Stmt::loop_(
            Loop::new("i", 3, 1024),
            vec![Stmt::refs(vec![
                a.at([Subscript::var("i")]),
                bb.at([Subscript::var_offset("i", -2)]),
            ])],
        ));
        let p = b.build().expect("valid");
        let mut layout = DataLayout::original(&p);
        let mut events = Vec::new();
        assign_bases(
            &p,
            &mut layout,
            &config_1k(),
            InterMode::Analyzed,
            &mut Nest::compile(&p),
            &mut events,
        );
        // Reference distance, not base distance, must clear a line.
        let diff = layout.base_addr(bb) as i64 - 2 - layout.base_addr(a) as i64;
        assert!(crate::conflict::circular_distance(diff, 1024) >= 4);
    }

    #[test]
    fn fixed_common_block_variables_are_not_moved() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [1024]).elem_size(1));
        let bb = b.add_array(
            ArrayBuilder::new("B", [1024])
                .elem_size(1)
                .fixed_common_block(true),
        );
        b.push(Stmt::loop_(
            Loop::new("i", 1, 1024),
            vec![Stmt::refs(vec![
                a.at([Subscript::var("i")]),
                bb.at([Subscript::var("i")]),
            ])],
        ));
        let p = b.build().expect("valid");
        let mut layout = DataLayout::original(&p);
        let mut events = Vec::new();
        assign_bases(
            &p,
            &mut layout,
            &config_1k(),
            InterMode::Analyzed,
            &mut Nest::compile(&p),
            &mut events,
        );
        assert_eq!(layout.base_addr(bb), 1024, "B stays at its natural address");
        assert!(events.is_empty());
    }

    #[test]
    fn first_variable_is_never_padded() {
        let p = dot_program(1024);
        let mut layout = DataLayout::original(&p);
        let mut events = Vec::new();
        assign_bases(
            &p,
            &mut layout,
            &config_1k(),
            InterMode::Analyzed,
            &mut Nest::compile(&p),
            &mut events,
        );
        let first = p.arrays_with_ids().next().expect("nonempty").0;
        assert_eq!(layout.base_addr(first), 0);
    }

    #[test]
    fn bases_respect_element_alignment() {
        let mut b = Program::builder("p");
        let a = b.add_array(ArrayBuilder::new("A", [1021]).elem_size(1));
        let c = b.add_array(ArrayBuilder::new("C", [128]).elem_size(8));
        b.push(Stmt::loop_(
            Loop::new("i", 1, 128),
            vec![Stmt::refs(vec![
                a.at([Subscript::var("i")]),
                c.at([Subscript::var("i")]),
            ])],
        ));
        let p = b.build().expect("valid");
        let mut layout = DataLayout::original(&p);
        let mut events = Vec::new();
        assign_bases(
            &p,
            &mut layout,
            &config_1k(),
            InterMode::Analyzed,
            &mut Nest::compile(&p),
            &mut events,
        );
        assert_eq!(layout.base_addr(c) % 8, 0);
        assert!(layout.check_no_overlap());
    }

    #[test]
    fn impossible_demands_fall_back_to_the_natural_address() {
        // Paper: "In the event that the location is incremented beyond its
        // original position by a distance larger than the cache size, no
        // satisfactory base address is possible and the initial tentative
        // location is assigned."
        //
        // Engineer that case: a 64-byte cache with 32-byte lines means the
        // INTERPAD threshold (one line) covers half the cache; two placed
        // variables 32 bytes apart (mod 64) leave no clear slot for a
        // third that conflicts with both.
        let mut b = Program::builder("impossible");
        let ids: Vec<ArrayId> = (0..3)
            .map(|k| b.add_array(ArrayBuilder::new(format!("V{k}"), [96]).elem_size(1)))
            .collect();
        b.push(Stmt::loop_(
            Loop::new("i", 1, 96),
            vec![Stmt::refs(
                ids.iter().map(|id| id.at([Subscript::var("i")])).collect(),
            )],
        ));
        let p = b.build().expect("valid");
        let config = PaddingConfig::new(64, 32).expect("valid");
        let mut layout = DataLayout::original(&p);
        let mut events = Vec::new();
        assign_bases(
            &p,
            &mut layout,
            &config,
            InterMode::Analyzed,
            &mut Nest::compile(&p),
            &mut events,
        );
        // 96-byte variables: natural bases 0, 96 (= 32 mod 64), 192
        // (= 0 mod 64). V1 clears V0 (distance 32). V2 conflicts with V0
        // at every offset that clears V1 and vice versa -> failure event,
        // natural address kept.
        let failed: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, PadEvent::InterFailed { .. }))
            .collect();
        assert_eq!(failed.len(), 1, "events: {events:?}");
        assert_eq!(layout.base_addr(ids[2]), 192);
        assert!(layout.check_no_overlap());
    }

    #[test]
    fn many_equal_variables_still_place() {
        // 1 KiB cache, M = 16 bytes: up to Cs/(2M) = 32 equal-size
        // variables are guaranteed to place (Section 2.1.1).
        let mut b = Program::builder("many");
        let n = 1024i64;
        let ids: Vec<ArrayId> = (0..32)
            .map(|k| b.add_array(ArrayBuilder::new(format!("V{k}"), [n]).elem_size(1)))
            .collect();
        b.push(Stmt::loop_(
            Loop::new("i", 1, n),
            vec![Stmt::refs(
                ids.iter().map(|id| id.at([Subscript::var("i")])).collect(),
            )],
        ));
        let p = b.build().expect("valid");
        let mut layout = DataLayout::original(&p);
        let mut events = Vec::new();
        assign_bases(
            &p,
            &mut layout,
            &config_1k(),
            InterMode::Lite,
            &mut Nest::compile(&p),
            &mut events,
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, PadEvent::InterFailed { .. })),
            "all 32 variables should find separated bases"
        );
        for (i, &x) in ids.iter().enumerate() {
            for &y in &ids[i + 1..] {
                let d = layout.base_addr(x) as i64 - layout.base_addr(y) as i64;
                assert!(
                    crate::conflict::circular_distance(d, 1024) >= 16,
                    "{} vs {}",
                    layout.name(x),
                    layout.name(y)
                );
            }
        }
        assert!(layout.check_no_overlap());
    }
}
