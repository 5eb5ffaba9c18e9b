//! Telemetry event export: Chrome trace-event JSON and NDJSON.
//!
//! The Chrome trace format (the `{"traceEvents": [...]}` flavor) loads
//! directly into Perfetto (`ui.perfetto.dev`) and `chrome://tracing`:
//! spans become `ph:"X"` complete events, instants `ph:"i"`, counters
//! `ph:"C"`. The NDJSON stream carries the same events one JSON object
//! per line for `jq`-style ad-hoc analysis. Both are hand-rolled — the
//! workspace takes no serialization dependency.

use std::fs;
use std::io;
use std::path::Path;

use pad_telemetry::{Event, EventKind, Value};

/// Escapes a string for a JSON string literal (quotes not included).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one value as a JSON token. Non-finite floats have no JSON
/// representation, so they are emitted as quoted strings (`"NaN"`,
/// `"inf"`, `"-inf"`) rather than producing an unparseable file.
fn json_value(value: &Value) -> String {
    match value {
        Value::U64(v) => v.to_string(),
        Value::I64(v) => v.to_string(),
        Value::F64(v) if v.is_finite() => {
            // `{:?}` keeps a trailing `.0` so the token stays a number.
            format!("{v:?}")
        }
        Value::F64(v) => format!("\"{v}\""),
        Value::Str(s) => format!("\"{}\"", json_escape(s)),
    }
}

fn json_args(args: &[(&'static str, Value)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", json_escape(key), json_value(value)));
    }
    out.push('}');
    out
}

fn chrome_record(event: &Event) -> String {
    let common = format!(
        "\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
        json_escape(&event.name),
        json_escape(event.category),
        event.tid,
        event.ts_us,
    );
    match event.kind {
        EventKind::Span { dur_us } => format!(
            "{{{common},\"ph\":\"X\",\"dur\":{dur_us},\"args\":{}}}",
            json_args(&event.args)
        ),
        EventKind::Instant => format!(
            "{{{common},\"ph\":\"i\",\"s\":\"t\",\"args\":{}}}",
            json_args(&event.args)
        ),
        EventKind::Counter => {
            // Counter events plot their args as series; only numeric
            // values make sense there, so text args are dropped.
            let numeric: Vec<(&'static str, Value)> = event
                .args
                .iter()
                .filter(|(_, v)| v.is_numeric())
                .cloned()
                .collect();
            format!("{{{common},\"ph\":\"C\",\"args\":{}}}", json_args(&numeric))
        }
    }
}

/// Renders an event stream as a Chrome trace-event JSON document
/// (Perfetto-loadable).
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&chrome_record(event));
    }
    out.push_str("\n]}\n");
    out
}

/// Renders an event stream as NDJSON: one self-contained JSON object per
/// line, carrying every field including string-valued args.
pub fn ndjson(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        let kind = match event.kind {
            EventKind::Span { .. } => "span",
            EventKind::Instant => "instant",
            EventKind::Counter => "counter",
        };
        out.push_str(&format!(
            "{{\"ts_us\":{},\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\",\"kind\":\"{kind}\"",
            event.ts_us,
            event.tid,
            json_escape(event.category),
            json_escape(&event.name),
        ));
        if let EventKind::Span { dur_us } = event.kind {
            out.push_str(&format!(",\"dur_us\":{dur_us}"));
        }
        out.push_str(&format!(",\"args\":{}}}\n", json_args(&event.args)));
    }
    out
}

/// Writes the Chrome trace document to `path`, creating parent
/// directories as needed.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_chrome_trace(events: &[Event], path: impl AsRef<Path>) -> io::Result<()> {
    write_creating_parents(path.as_ref(), chrome_trace_json(events))
}

/// Writes the NDJSON stream to `path`, creating parent directories as
/// needed.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_ndjson(events: &[Event], path: impl AsRef<Path>) -> io::Result<()> {
    write_creating_parents(path.as_ref(), ndjson(events))
}

fn write_creating_parents(path: &Path, contents: String) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_telemetry::EventKind;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                ts_us: 100,
                tid: 2,
                category: "cell",
                name: "fig08: \"JACOBI\"\n512".into(),
                kind: EventKind::Span { dur_us: 250 },
                args: vec![
                    ("index", Value::U64(3)),
                    ("rate", Value::F64(1.5)),
                    ("bad", Value::F64(f64::NAN)),
                ],
            },
            Event {
                ts_us: 400,
                tid: 2,
                category: "cell",
                name: "err".into(),
                kind: EventKind::Instant,
                args: vec![("detail", Value::Str("panicked: boom".into()))],
            },
            Event {
                ts_us: 500,
                tid: 1,
                category: "cache",
                name: "jacobi/dm16k".into(),
                kind: EventKind::Counter,
                args: vec![
                    ("misses", Value::U64(42)),
                    ("occupancy", Value::Str("1/2/3".into())),
                ],
            },
        ]
    }

    /// A tiny structural JSON validator: checks balanced nesting and
    /// quote/escape integrity — enough to catch malformed emission
    /// without a parser dependency.
    fn assert_balanced_json(text: &str) {
        let mut depth: i64 = 0;
        let mut in_string = false;
        let mut escaped = false;
        for c in text.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced nesting in {text:?}");
        }
        assert_eq!(depth, 0, "unbalanced document");
        assert!(!in_string, "unterminated string");
    }

    #[test]
    fn chrome_trace_is_balanced_and_typed() {
        let text = chrome_trace_json(&sample_events());
        assert_balanced_json(&text);
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"dur\":250"));
        // Newline and quotes in the cell name are escaped.
        assert!(text.contains("fig08: \\\"JACOBI\\\"\\n512"));
        // NaN never appears as a bare (unparseable) token.
        assert!(!text.contains(":NaN"));
        assert!(text.contains("\"bad\":\"NaN\""));
    }

    #[test]
    fn counters_export_only_numeric_args() {
        let text = chrome_trace_json(&sample_events());
        let counter_line = text
            .lines()
            .find(|l| l.contains("\"ph\":\"C\""))
            .expect("counter present");
        assert!(counter_line.contains("\"misses\":42"));
        assert!(
            !counter_line.contains("occupancy"),
            "text args dropped from counters"
        );
    }

    #[test]
    fn ndjson_is_one_object_per_line() {
        let events = sample_events();
        let text = ndjson(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_balanced_json(line);
        }
        assert!(lines[0].contains("\"kind\":\"span\""));
        assert!(lines[0].contains("\"dur_us\":250"));
        assert!(lines[1].contains("\"kind\":\"instant\""));
        // NDJSON keeps text args (the occupancy histogram).
        assert!(lines[2].contains("\"occupancy\":\"1/2/3\""));
    }

    #[test]
    fn writers_create_parents() {
        let dir = std::env::temp_dir().join(format!("pad-report-trace-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let trace = dir.join("nested/trace.json");
        let stream = dir.join("nested/trace.ndjson");
        write_chrome_trace(&sample_events(), &trace).expect("trace written");
        write_ndjson(&sample_events(), &stream).expect("ndjson written");
        assert!(fs::read_to_string(&trace)
            .expect("readable")
            .contains("traceEvents"));
        assert_eq!(
            fs::read_to_string(&stream)
                .expect("readable")
                .lines()
                .count(),
            3
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(json_escape("tab\there"), "tab\\there");
    }
}
