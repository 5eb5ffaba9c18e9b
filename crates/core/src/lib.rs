//! Compile-time padding transformations for eliminating cache conflict
//! misses.
//!
//! This crate implements the primary contribution of Rivera & Tseng, *Data
//! Transformations for Eliminating Conflict Misses* (PLDI 1998):
//! heuristics that choose **inter-variable padding** (adjusting variable
//! base addresses) and **intra-variable padding** (adjusting array
//! dimension sizes) to eliminate *severe* conflict misses — misses that
//! recur on every iteration of some loop.
//!
//! Two precision levels are provided, exactly as in the paper:
//!
//! * [`PaddingPipeline::padlite`] — **PADLITE** needs only variable and
//!   dimension sizes. It combines `INTRAPADLITE` and `LINPAD1` for
//!   intra-variable padding, then applies `INTERPADLITE`.
//! * [`PaddingPipeline::pad`] — **PAD** analyzes array subscripts. It
//!   detects conflicts by linearizing references ([`Nest`]) and computing
//!   *conflict distances* between uniformly generated references
//!   (`INTRAPAD` / `INTERPAD`), and pads linear-algebra arrays using the
//!   Euclidean `FirstConflict` algorithm (`LINPAD2`).
//!
//! The transformations never rewrite the program: they produce a new
//! [`DataLayout`] — base addresses plus (possibly padded) dimension sizes —
//! which downstream crates use for address generation.
//!
//! # Example
//!
//! The motivating example from Figure 1 of the paper: two 1-D arrays a
//! multiple of the cache size apart thrash a direct-mapped cache; padding
//! separates their base addresses.
//!
//! ```
//! use pad_ir::{ArrayBuilder, Loop, Program, Stmt, Subscript};
//! use pad_core::{DataLayout, PaddingConfig, PaddingPipeline};
//!
//! let n = 2048; // 2048 doubles = exactly one 16 KiB cache
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
//! let config = PaddingConfig::new(16 * 1024, 32)?;
//! let outcome = PaddingPipeline::pad(config).run(&program);
//!
//! let original = DataLayout::original(&program);
//! // Originally the base addresses collide modulo the cache size...
//! assert_eq!((original.base_addr(bb) - original.base_addr(a)) % (16 * 1024), 0);
//! // ...and PAD moves B off the conflicting alignment.
//! let d = (outcome.layout.base_addr(bb) - outcome.layout.base_addr(a)) % (16 * 1024);
//! assert!(d >= 32);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod combined;
mod config;
mod conflict;
mod estimate;
mod euclid;
mod inter;
mod intra;
mod layout;
mod linalg;
mod nest;
pub mod reference;
mod stats;
mod tiling;
mod uniform;

pub use bounds::{search_bounds, SearchBounds};
pub use combined::{InterHeuristic, IntraHeuristic, LinAlgHeuristic};
pub use combined::{PadEvent, PaddingOutcome, PaddingPipeline};
pub use config::{CacheParams, ConfigError, PaddingConfig};
pub use conflict::{
    circular_distance, find_severe_conflicts, increment_to_clear, is_severe_conflict,
    ConflictReport,
};
pub use estimate::{estimate_miss_rate, MissEstimate, MissModel, ModelScore};
pub use euclid::{first_conflict, j_star};
pub use layout::DataLayout;
pub use linalg::is_linear_algebra_array;
pub use nest::{Nest, NestItem, NestLoop, NestRef, SlotExpr};
pub use stats::PaddingStats;
pub use tiling::{select_tile, width_bound, TileSize};
pub use uniform::uniform_ref_fraction;
