//! The structured event model shared by every instrumented layer.

use crate::{now_us, thread_id};

/// A typed argument value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, byte sizes, indices).
    U64(u64),
    /// Signed integer (distances, deltas).
    I64(i64),
    /// Floating point (rates, percentages).
    F64(f64),
    /// Free text (labels, causes, serialized histograms).
    Str(String),
}

impl Value {
    /// The value rendered as a bare JSON token (numbers unquoted, strings
    /// *not* escaped — exporters own escaping).
    pub fn is_numeric(&self) -> bool {
        !matches!(self, Value::Str(_))
    }

    /// The value as `f64` when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// The value as `u64` when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload when the value is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The temporal shape of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: work that started `dur_us` microseconds before
    /// `ts_us + dur_us`. Maps to a Chrome "complete" (`ph:"X"`) event.
    Span {
        /// Duration in microseconds.
        dur_us: u64,
    },
    /// A point in time (a cell timing out, a pad decision). Maps to a
    /// Chrome instant (`ph:"i"`) event.
    Instant,
    /// A sampled counter snapshot (cache hit/miss counts). Maps to a
    /// Chrome counter (`ph:"C"`) event.
    Counter,
}

/// One structured telemetry event.
///
/// Events are plain data: the recorder receives them fully built, and
/// exporters (`pad-report`) render them to NDJSON or Chrome trace format
/// without needing this crate's globals.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the process telemetry epoch ([`now_us`]). For
    /// spans this is the *start* of the span.
    pub ts_us: u64,
    /// Emitting thread ([`thread_id`]).
    pub tid: u64,
    /// Coarse subsystem category: `cell` (pool/harness), `sim` (batched
    /// trace engine), `cache` (simulator counters), `pad` (heuristic
    /// decisions), `sweep` (experiment lifecycle).
    pub category: &'static str,
    /// Event name — a cell label, kernel name, or decision site.
    pub name: String,
    /// Temporal shape.
    pub kind: EventKind,
    /// Structured arguments. Keys are static so argument tables never
    /// allocate per key.
    pub args: Vec<(&'static str, Value)>,
}

impl Event {
    /// A span that started at `start_us` (from [`now_us`]) and ends now.
    pub fn span(
        start_us: u64,
        category: &'static str,
        name: impl Into<String>,
        args: Vec<(&'static str, Value)>,
    ) -> Event {
        let end = now_us();
        Event {
            ts_us: start_us,
            tid: thread_id(),
            category,
            name: name.into(),
            kind: EventKind::Span {
                dur_us: end.saturating_sub(start_us),
            },
            args,
        }
    }

    /// An instantaneous event stamped now.
    pub fn instant(
        category: &'static str,
        name: impl Into<String>,
        args: Vec<(&'static str, Value)>,
    ) -> Event {
        Event {
            ts_us: now_us(),
            tid: thread_id(),
            category,
            name: name.into(),
            kind: EventKind::Instant,
            args,
        }
    }

    /// A counter snapshot stamped now.
    pub fn counter(
        category: &'static str,
        name: impl Into<String>,
        args: Vec<(&'static str, Value)>,
    ) -> Event {
        Event {
            ts_us: now_us(),
            tid: thread_id(),
            category,
            name: name.into(),
            kind: EventKind::Counter,
            args,
        }
    }

    /// The span duration, if this is a span.
    pub fn dur_us(&self) -> Option<u64> {
        match self.kind {
            EventKind::Span { dur_us } => Some(dur_us),
            _ => None,
        }
    }

    /// Looks up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&Value> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_measures_forward_from_start() {
        let start = now_us();
        let e = Event::span(start, "cell", "c0", vec![("index", Value::U64(0))]);
        assert_eq!(e.ts_us, start);
        assert!(e.dur_us().is_some());
        assert_eq!(e.arg("index").and_then(Value::as_u64), Some(0));
        assert!(e.arg("missing").is_none());
    }

    #[test]
    fn instants_and_counters_have_no_duration() {
        let i = Event::instant("pad", "inter/A", vec![]);
        let c = Event::counter("cache", "dm16k", vec![("misses", Value::U64(9))]);
        assert_eq!(i.dur_us(), None);
        assert_eq!(c.dur_us(), None);
        assert_eq!(i.kind, EventKind::Instant);
        assert_eq!(c.kind, EventKind::Counter);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::U64(3).as_f64(), Some(3.0));
        assert_eq!(Value::I64(-2).as_f64(), Some(-2.0));
        assert_eq!(Value::F64(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert!(Value::U64(1).is_numeric());
        assert!(!Value::Str(String::new()).is_numeric());
    }
}
