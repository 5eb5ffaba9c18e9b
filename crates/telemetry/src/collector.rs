//! The in-memory event recorder.

use std::sync::Mutex;

use crate::event::Event;

/// The one event sink: an append-only in-memory event buffer. Everything
/// [`crate::emit`] records lands here; `pad-report` exports it and
/// [`crate::summarize`] folds it.
///
/// One mutex push per event is deliberate — events are emitted at cell /
/// chunk / decision granularity (tens to thousands per sweep), never per
/// simulated access, so contention is negligible and the buffer keeps
/// completion-order semantics simple.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Number of events recorded so far. Used as a watermark: a sweep
    /// notes `len()` at start and summarizes `snapshot()[watermark..]`.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every event recorded so far, in emission order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }

    /// Appends one event. Never panics: recording runs inside worker
    /// threads of the experiment pool, in the same `catch_unwind` scope
    /// as the science.
    pub fn record(&self, event: Event) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Value};

    #[test]
    fn recorder_accumulates_in_order() {
        let r = Recorder::new();
        assert!(r.is_empty());
        r.record(Event::instant("cell", "a", vec![]));
        r.record(Event::instant("cell", "b", vec![("n", Value::U64(1))]));
        let events = r.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
        r.clear();
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn recorder_is_thread_safe() {
        let r = std::sync::Arc::new(Recorder::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        r.record(Event::instant(
                            "cell",
                            format!("t{t}"),
                            vec![("i", Value::U64(i))],
                        ));
                    }
                });
            }
        });
        assert_eq!(r.len(), 400);
    }
}
