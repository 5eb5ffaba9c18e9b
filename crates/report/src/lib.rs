//! Plain-text tables, series plots, and CSV output for the experiment
//! harness.
//!
//! The paper reports its evaluation as one table (compile-time
//! statistics) and ten figures (bar charts and problem-size sweeps). The
//! harness renders each as an aligned text table plus a CSV file; for the
//! sweep figures a coarse ASCII chart makes the crossover shapes visible
//! directly in the terminal.
//!
//! Under fault-isolated execution (see `pad-bench`), failed cells degrade
//! gracefully: tables and CSVs carry explicit [`ERR_MARKER`] /
//! [`TIMEOUT_MARKER`] cells and a trailing [`FailureSummary`] lists every
//! failure instead of the run aborting.
//!
//! When telemetry is enabled (`RIVERA_TELEMETRY=events`), the recorded
//! event stream is exported here too: [`write_chrome_trace`] emits a
//! Perfetto-loadable `trace.json` and [`write_ndjson`] the matching
//! line-delimited stream. Neither touches stdout, so result tables stay
//! byte-identical in every telemetry mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ascii_chart;
mod chrome_trace;
mod csv;
mod failure;
mod pareto;
mod table;

pub use ascii_chart::AsciiChart;
pub use chrome_trace::{chrome_trace_json, ndjson, write_chrome_trace, write_ndjson};
pub use csv::{csv_string, write_csv};
pub use failure::{CellFailure, FailureSummary, ERR_MARKER, TIMEOUT_MARKER};
pub use pareto::pareto_indices;
pub use table::Table;
