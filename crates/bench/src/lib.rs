//! Experiment harness regenerating the paper's evaluation.
//!
//! One binary per table/figure (run with `--release`; the traces are
//! large):
//!
//! | Binary   | Reproduces | Content |
//! |----------|------------|---------|
//! | `table2` | Table 2    | compile-time statistics for PAD |
//! | `fig08`  | Figure 8   | miss rates, original vs PAD, 16 K direct-mapped |
//! | `fig09`  | Figure 9   | PAD on direct-mapped vs original on 2/4/16-way |
//! | `fig10`  | Figure 10  | padding benefit as associativity increases |
//! | `fig11`  | Figure 11  | padding benefit across cache sizes |
//! | `fig12`  | Figure 12  | intra-variable padding contribution across cache sizes |
//! | `fig13`  | Figure 13  | PADLITE's minimum separation M sweep |
//! | `fig14`  | Figure 14  | precision of analysis: PAD − PADLITE across cache sizes |
//! | `fig15`  | Figure 15  | native execution time, original vs PAD |
//! | `fig16`  | Figure 16  | miss rate vs problem size for EXPL/SHAL/DGEFA/CHOL |
//! | `fig17`  | Figure 17  | LINPAD1 vs LINPAD2 vs problem size |
//! | `fig_mrc` | (new artifact) | miss-ratio curves, original vs PAD, every power-of-two capacity from one reuse-distance walk |
//! | `ablation_jstar` | §2.3.2 | LINPAD2 `j*` threshold sweep (the "129" claim) |
//! | `ablation_hardware` | §5 | padding vs victim cache vs XOR placement |
//! | `ablation_tiling` | §5 | padding vs Coleman-McKinley tiling on MULT |
//! | `ablation_multilevel` | §2.1.2 | padding for one cache level vs two |
//! | `all`    | everything | runs the full set in order |
//!
//! Timing benches (no figure of their own) live alongside them:
//! `bench_simulator` (engine throughput + `BENCH_simulator.json`),
//! `bench_heuristics` (PAD/PADLITE analysis cost), `bench_ablations`
//! (replacement and write-policy design checks). Figure 15's native
//! kernel timings are `fig15`'s.
//!
//! Each figure binary prints aligned text and writes a CSV under
//! `results/`. Simulation cells execute on the deterministic
//! work-stealing pool in [`pool`] — `RIVERA_THREADS=N` overrides the
//! worker count without changing any output byte. Set `PAD_QUICK=1` to
//! shrink the problem-size sweeps for a fast smoke run.
//!
//! # Reliability
//!
//! Sweeps run under fault isolation (see `EXPERIMENTS.md`, "Reliability"):
//! every cell runs once, a panicking cell renders as `ERR` instead of
//! aborting its siblings, `RIVERA_CELL_TIMEOUT=secs` marks over-deadline
//! cells `TIMEOUT`, and every completed cell is checkpointed to
//! `results/<experiment>.journal` so a killed sweep rerun with
//! `RIVERA_RESUME=1` replays finished cells bit-exactly. The
//! [`faults`] module provides the seeded fault-injection plans the
//! integration suite uses to prove those contracts.

// `forbid`: the experiment pool runs on scoped threads, whose borrows
// the compiler checks, so nothing here needs `unsafe`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod faults;
pub mod harness;
pub mod journal;
pub mod pool;
