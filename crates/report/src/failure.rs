//! Failure markers and the trailing failure summary.
//!
//! When the experiment harness runs under fault isolation, cells that
//! panic or exceed their deadline no longer abort the binary: the table
//! renders an explicit marker in their place ([`ERR_MARKER`],
//! [`TIMEOUT_MARKER`]) and a [`FailureSummary`] is printed after the
//! tables so nothing fails silently. Each entry carries the wall time the
//! cell spent, so an `ERR` or `TIMEOUT` row is diagnosable from the
//! summary alone.

use std::fmt;
use std::time::Duration;

/// Table/CSV marker for a cell that panicked.
pub const ERR_MARKER: &str = "ERR";

/// Table/CSV marker for a cell that exceeded its deadline.
pub const TIMEOUT_MARKER: &str = "TIMEOUT";

/// One failed cell: which cell, what kind of failure, the detail line
/// (panic message or deadline numbers), and how long the cell ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell's progress label (e.g. `fig16: EXPL n=256`).
    pub label: String,
    /// The marker rendered in the table (`ERR` or `TIMEOUT`).
    pub marker: String,
    /// Human-readable failure detail.
    pub detail: String,
    /// Wall time spent on the cell (zero when unknown).
    pub elapsed: Duration,
}

/// The trailing report of every failed cell in a run.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use pad_report::{CellFailure, FailureSummary};
///
/// let mut summary = FailureSummary::new();
/// assert!(summary.is_empty());
/// summary.push(CellFailure {
///     label: "fig08: JACOBI512".into(),
///     marker: "ERR".into(),
///     detail: "panicked: injected fault".into(),
///     elapsed: Duration::from_millis(42),
/// });
/// let text = summary.to_string();
/// assert!(text.contains("1 cell(s) failed"));
/// assert!(text.contains("JACOBI512"));
/// assert!(text.contains("[42.0 ms]"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FailureSummary {
    failures: Vec<CellFailure>,
}

impl FailureSummary {
    /// An empty summary.
    pub fn new() -> Self {
        FailureSummary::default()
    }

    /// Records one failed cell.
    pub fn push(&mut self, failure: CellFailure) {
        self.failures.push(failure);
    }

    /// Number of failed cells.
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// True when no cell failed.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// The recorded failures, in the order they were pushed.
    pub fn failures(&self) -> &[CellFailure] {
        &self.failures
    }
}

impl fmt::Display for FailureSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.failures.is_empty() {
            return writeln!(f, "failure summary: all cells completed");
        }
        writeln!(
            f,
            "failure summary: {} cell(s) failed (marked {}/{} above)",
            self.failures.len(),
            ERR_MARKER,
            TIMEOUT_MARKER
        )?;
        for failure in &self.failures {
            write!(
                f,
                "  {:7} {}: {}",
                failure.marker, failure.label, failure.detail
            )?;
            if !failure.elapsed.is_zero() {
                write!(f, " [{:.1} ms]", failure.elapsed.as_secs_f64() * 1e3)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_summary_says_so() {
        let summary = FailureSummary::new();
        assert!(summary.is_empty());
        assert_eq!(summary.len(), 0);
        assert!(summary.to_string().contains("all cells completed"));
    }

    #[test]
    fn failures_are_listed_in_order() {
        let mut summary = FailureSummary::new();
        summary.push(CellFailure {
            label: "a".into(),
            marker: TIMEOUT_MARKER.into(),
            detail: "ran 9s against a 1s deadline".into(),
            elapsed: Duration::from_secs(9),
        });
        summary.push(CellFailure {
            label: "b".into(),
            marker: ERR_MARKER.into(),
            detail: "panicked: boom".into(),
            elapsed: Duration::from_millis(5),
        });
        let text = summary.to_string();
        assert!(text.contains("2 cell(s) failed"));
        let a = text.find("a: ran").expect("first failure listed");
        let b = text.find("b: panicked").expect("second failure listed");
        assert!(a < b, "order preserved");
        assert_eq!(summary.failures().len(), 2);
    }

    #[test]
    fn span_info_is_rendered_when_known() {
        let mut summary = FailureSummary::new();
        summary.push(CellFailure {
            label: "slow".into(),
            marker: TIMEOUT_MARKER.into(),
            detail: "deadline exceeded".into(),
            elapsed: Duration::from_millis(1500),
        });
        let text = summary.to_string();
        assert!(
            text.contains("deadline exceeded [1500.0 ms]"),
            "got: {text}"
        );
    }

    #[test]
    fn unknown_span_is_omitted() {
        let mut summary = FailureSummary::new();
        summary.push(CellFailure {
            label: "legacy".into(),
            marker: ERR_MARKER.into(),
            detail: "panicked: boom".into(),
            elapsed: Duration::ZERO,
        });
        let text = summary.to_string();
        assert!(!text.contains(" ms]"), "got: {text}");
    }
}
