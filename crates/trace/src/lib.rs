//! Address-trace generation and trace-driven simulation.
//!
//! This crate connects the other halves of the reproduction: it executes a
//! [`pad_ir::Program`]'s loop nests under a [`pad_core::DataLayout`],
//! emitting the byte-accurate column-major address stream the program
//! would issue, and feeds that stream to [`pad_cache_sim`]. The paper did
//! the same with real binaries under Sun SHADE; simulating the array
//! reference stream of the optimized loop nests preserves the quantity
//! every figure reports — the *relative* effect of padding.
//!
//! # Example
//!
//! ```
//! use pad_ir::{ArrayBuilder, Loop, Program, Stmt, Subscript};
//! use pad_core::DataLayout;
//! use pad_cache_sim::CacheConfig;
//! use pad_trace::simulate_program;
//!
//! // Figure 1 of the paper: A and B collide in a direct-mapped cache.
//! let n = 2048;
//! let mut b = Program::builder("dot");
//! let a = b.add_array(ArrayBuilder::new("A", [n]));
//! let bb = b.add_array(ArrayBuilder::new("B", [n]));
//! b.push(Stmt::loop_(
//!     Loop::new("i", 1, n),
//!     vec![Stmt::refs(vec![
//!         a.at([Subscript::var("i")]),
//!         bb.at([Subscript::var("i")]),
//!     ])],
//! ));
//! let program = b.build()?;
//!
//! let stats = simulate_program(
//!     &program,
//!     &DataLayout::original(&program),
//!     &CacheConfig::paper_base(),
//! );
//! // Every access misses: the two streams evict each other's lines.
//! assert!(stats.miss_rate() > 0.99);
//! # Ok::<(), pad_ir::IrError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod compiled;
mod generate;
mod memo;
mod record;
#[cfg(test)]
mod reference;
mod run;

pub use batch::{simulate_batch, BatchRequest, BatchResults, Sinks, BATCH_CHUNK};
pub use compiled::CompiledTrace;
pub use generate::{count_accesses, for_each_access};
pub use memo::{MemoStats, WalkMemo, WALK_MEMO_CAPACITY};
pub use record::collect_trace;
pub use run::{
    padding_config_for, simulate_classified, simulate_hierarchy, simulate_program, simulate_victim,
};
