//! Reproduction of Rivera & Tseng, *Data Transformations for Eliminating
//! Conflict Misses* (PLDI 1998).
//!
//! This facade crate re-exports the workspace's component crates under one
//! roof and hosts the runnable examples (`examples/`) and cross-crate
//! integration tests (`tests/`).
//!
//! | Module        | Crate           | Role |
//! |---------------|-----------------|------|
//! | [`ir`]        | `pad-ir`        | loop-nest program representation |
//! | [`cache_sim`] | `pad-cache-sim` | set-associative cache simulator |
//! | [`core`]      | `pad-core`      | the padding heuristics (PADLITE / PAD / LINPAD1/2) |
//! | [`trace`]     | `pad-trace`     | address-trace generation and trace-driven simulation |
//! | [`kernels`]   | `pad-kernels`   | the benchmark kernel suite |
//! | [`report`]    | `pad-report`    | plain-text tables / CSV for the harness |
//!
//! # Quickstart
//!
//! ```
//! use rivera_padding::core::{DataLayout, PaddingPipeline};
//! use rivera_padding::kernels;
//! use rivera_padding::trace::{padding_config_for, simulate_program};
//! use rivera_padding::cache_sim::CacheConfig;
//!
//! // The JACOBI kernel at a pathological (power-of-two) problem size.
//! let program = kernels::jacobi::spec(512);
//! let cache = CacheConfig::paper_base();
//!
//! // Original layout vs the PAD-optimized layout.
//! let original = DataLayout::original(&program);
//! let padded = PaddingPipeline::pad(padding_config_for(&cache)).run(&program).layout;
//!
//! let before = simulate_program(&program, &original, &cache);
//! let after = simulate_program(&program, &padded, &cache);
//! assert!(after.miss_rate() < before.miss_rate());
//! ```

pub use pad_cache_sim as cache_sim;
pub use pad_core as core;
pub use pad_ir as ir;
pub use pad_kernels as kernels;
pub use pad_report as report;
pub use pad_trace as trace;
