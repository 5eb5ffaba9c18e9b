//! `RunPolicy::from_env` against real environment values. This binary
//! holds one test, so setting the process environment races nothing.

use std::time::Duration;

use pad_bench::pool::{RunPolicy, TIMEOUT_ENV};

#[test]
fn cell_timeout_beyond_duration_range_is_ignored_not_fatal() {
    // 1e30 seconds parses as a finite positive number but overflows
    // `Duration`; it must fall back to no deadline with a warning.
    std::env::set_var(TIMEOUT_ENV, "1e30");
    assert_eq!(RunPolicy::from_env().deadline, None);

    std::env::set_var(TIMEOUT_ENV, "1.5");
    assert_eq!(
        RunPolicy::from_env().deadline,
        Some(Duration::from_millis(1500))
    );
}
