//! NDJSON address traces: one `{"addr": N, "write": B}` object per line.
//!
//! The text format exists for interop and debuggability — anything that
//! can print JSON (a Pin tool, a DynamoRIO client, an awk one-liner over
//! another simulator's log) can produce it, and a trace is greppable by
//! eye. Parsing reuses the same hand-rolled [`crate::json`] layer the
//! advisor protocol speaks, so both NDJSON surfaces of the workspace
//! share one grammar, one depth limit, and one adversarial test suite.
//!
//! Per line: `addr` is required and must be a non-negative integer
//! (floats are rejected — a fractional address is a producer bug, not a
//! rounding choice this crate should make); `write` is optional and
//! defaults to `false`; unknown keys are ignored so producers can carry
//! extra fields. Blank lines are skipped. Any other shape fails with
//! [`IngestError::Line`] carrying the 1-based line number, because a
//! garbage line in the middle of a trace means every count derived from
//! it is suspect.
//!
//! Lines in the exact shape [`write_ndjson`] emits take a byte-level
//! fast path that builds no [`Json`] tree. Every other line goes through
//! the general JSON decode, so a line yields the same access, or the
//! same error, on either path.

use std::io::{BufRead, Write};

use pad_cache_sim::Access;

use crate::binary::CHUNK_RECORDS;
use crate::json::{self, Json};
use crate::IngestError;

/// Longest accepted trace line. Real records are ~40 bytes; anything
/// kilobytes long is a corrupt or adversarial input, and bounding it
/// keeps the line buffer's memory bounded too.
pub const MAX_LINE_BYTES: usize = 4096;

/// Serializes one access as its NDJSON line (no trailing newline).
pub fn line_for(access: Access) -> String {
    let obj = Json::Obj(vec![
        ("addr".to_string(), Json::Int(access.addr as i64)),
        ("write".to_string(), Json::Bool(access.is_write)),
    ]);
    let mut out = String::new();
    obj.write(&mut out);
    out
}

/// Writes `trace` as NDJSON, one object per line.
///
/// Addresses above `i64::MAX` are unrepresentable in the advisor's JSON
/// integer model and rejected rather than silently wrapped.
pub fn write_ndjson<W: Write>(out: &mut W, trace: &[Access]) -> Result<(), IngestError> {
    let mut buf = String::new();
    for (i, &access) in trace.iter().enumerate() {
        if i64::try_from(access.addr).is_err() {
            return Err(IngestError::Line {
                line: i as u64 + 1,
                message: format!("address {} exceeds the JSON integer range", access.addr),
            });
        }
        buf.clear();
        let obj = Json::Obj(vec![
            ("addr".to_string(), Json::Int(access.addr as i64)),
            ("write".to_string(), Json::Bool(access.is_write)),
        ]);
        obj.write(&mut buf);
        buf.push('\n');
        out.write_all(buf.as_bytes()).map_err(IngestError::Io)?;
    }
    out.flush().map_err(IngestError::Io)
}

/// Parses one non-blank trace line.
fn parse_line(line: &str, line_no: u64) -> Result<Access, IngestError> {
    match parse_canonical(line.as_bytes()) {
        Some(access) => Ok(access),
        None => parse_line_tree(line, line_no),
    }
}

/// Decodes the canonical record [`write_ndjson`] emits,
/// `{"addr":<digits>,"write":true|false}` with 1–18 digits, without
/// building a [`Json`] tree; `None` for any other line. Eighteen digits
/// stay below `i64::MAX`, so every address accepted here is one the
/// general decode accepts too, and leading zeros read the same in both.
fn parse_canonical(line: &[u8]) -> Option<Access> {
    let rest = line.strip_prefix(b"{\"addr\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    if !(1..=18).contains(&digits) {
        return None;
    }
    let (number, rest) = rest.split_at(digits);
    let is_write = match rest {
        b",\"write\":true}" => true,
        b",\"write\":false}" => false,
        _ => return None,
    };
    let addr = number
        .iter()
        .fold(0u64, |acc, &d| acc * 10 + u64::from(d - b'0'));
    Some(Access { addr, is_write })
}

/// Parses one non-blank trace line through a full [`Json`] tree: the
/// fallback for every line [`parse_canonical`] declines, and the oracle
/// its tests compare against.
fn parse_line_tree(line: &str, line_no: u64) -> Result<Access, IngestError> {
    let fail = |message: String| IngestError::Line {
        line: line_no,
        message,
    };
    let value = json::parse(line).map_err(|e| fail(e.to_string()))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(fail("expected a JSON object".to_string()));
    }
    let addr = match value.get("addr") {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| fail("\"addr\" must be a non-negative integer".to_string()))?,
        None => return Err(fail("missing required key \"addr\"".to_string())),
    };
    let is_write = match value.get("write") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| fail("\"write\" must be a boolean".to_string()))?,
    };
    Ok(Access { addr, is_write })
}

/// Streams an NDJSON trace from `input`, invoking `sink` with decoded
/// chunks of at most [`CHUNK_RECORDS`] accesses. Returns the record
/// count. Memory use is one line buffer plus one chunk buffer.
pub fn read_ndjson<R, F>(input: &mut R, mut sink: F) -> Result<u64, IngestError>
where
    R: BufRead,
    F: FnMut(&[Access]),
{
    // The limit (reset per line) bounds how much one malformed
    // newline-free line can pull into memory before we reject it.
    let mut input = <&mut R as std::io::Read>::take(input, MAX_LINE_BYTES as u64 + 1);
    let mut line = String::new();
    let mut chunk: Vec<Access> = Vec::with_capacity(CHUNK_RECORDS);
    let mut line_no = 0u64;
    let mut total = 0u64;
    loop {
        line.clear();
        input.set_limit(MAX_LINE_BYTES as u64 + 1);
        let got = input.read_line(&mut line).map_err(IngestError::Io)?;
        if got == 0 {
            break;
        }
        line_no += 1;
        if line.len() > MAX_LINE_BYTES {
            return Err(IngestError::Line {
                line: line_no,
                message: format!("line exceeds {MAX_LINE_BYTES} bytes"),
            });
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        chunk.push(parse_line(trimmed, line_no)?);
        if chunk.len() == CHUNK_RECORDS {
            total += chunk.len() as u64;
            sink(&chunk);
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        total += chunk.len() as u64;
        sink(&chunk);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(text: &str) -> Result<Vec<Access>, IngestError> {
        let mut out = Vec::new();
        read_ndjson(&mut text.as_bytes(), |c| out.extend_from_slice(c))?;
        Ok(out)
    }

    #[test]
    fn roundtrips_and_defaults_write_to_false() {
        let trace = vec![
            Access::read(0),
            Access::write(64),
            Access::read(u64::from(u32::MAX)),
        ];
        let mut bytes = Vec::new();
        write_ndjson(&mut bytes, &trace).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert_eq!(read_all(&text).unwrap(), trace);

        // write key omitted → load.
        let back = read_all("{\"addr\": 96}\n").unwrap();
        assert_eq!(back, vec![Access::read(96)]);
    }

    #[test]
    fn blank_lines_and_unknown_keys_are_tolerated() {
        let back =
            read_all("\n{\"addr\": 32, \"tid\": 7}\n\n{\"addr\": 64, \"write\": true}\n").unwrap();
        assert_eq!(back, vec![Access::read(32), Access::write(64)]);
    }

    #[test]
    fn garbage_line_fails_with_its_line_number() {
        let err = read_all("{\"addr\": 1}\n{\"addr\": 2}\nnot json at all\n").unwrap_err();
        match err {
            IngestError::Line { line, .. } => assert_eq!(line, 3),
            other => panic!("expected Line error, got {other}"),
        }
    }

    #[test]
    fn wrong_shapes_are_rejected() {
        for bad in [
            "[1, 2, 3]",                       // not an object
            "{\"write\": true}",               // missing addr
            "{\"addr\": -5}",                  // negative
            "{\"addr\": 1.5}",                 // fractional
            "{\"addr\": \"64\"}",              // string
            "{\"addr\": 1, \"write\": \"y\"}", // non-bool write
        ] {
            let err = read_all(&format!("{bad}\n")).unwrap_err();
            assert!(
                matches!(err, IngestError::Line { line: 1, .. }),
                "input {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn zero_length_trace_is_valid() {
        assert_eq!(read_all("").unwrap(), vec![]);
        assert_eq!(read_all("\n\n").unwrap(), vec![]);
    }

    #[test]
    fn oversized_line_is_rejected_not_buffered() {
        let huge = format!("{{\"addr\": 1, \"pad\": \"{}\"}}\n", "x".repeat(8192));
        let err = read_all(&huge).unwrap_err();
        match err {
            IngestError::Line { line: 1, message } => assert!(message.contains("exceeds")),
            other => panic!("expected oversized-line error, got {other}"),
        }
    }

    /// Decodes `line` on the dispatching path and on the tree oracle;
    /// errors compare by their text, line number included.
    fn assert_same_decode(line: &str) {
        let fast = parse_line(line, 7).map_err(|e| e.to_string());
        let tree = parse_line_tree(line, 7).map_err(|e| e.to_string());
        assert_eq!(fast, tree, "line {line:?}");
    }

    #[test]
    fn canonical_fast_path_matches_the_tree_decode_on_edges() {
        for line in [
            r#"{"addr":0,"write":false}"#,
            r#"{"addr":007,"write":true}"#,
            r#"{"addr":000000000000000000,"write":true}"#,
            r#"{"addr":999999999999999999,"write":false}"#,
            r#"{"addr":1000000000000000000,"write":false}"#,
            r#"{"addr":0000000000000000064,"write":false}"#,
            r#"{"addr":9223372036854775807,"write":true}"#,
            r#"{"addr":9223372036854775808,"write":true}"#,
            r#"{"addr":18446744073709551615,"write":true}"#,
            r#"{"addr":99999999999999999999,"write":true}"#,
            r#"{"addr": 64,"write":true}"#,
            r#"{ "addr":64,"write":true}"#,
            r#"{"addr":64 ,"write":true}"#,
            r#"{"addr":64, "write":true}"#,
            r#"{"addr":64,"write": true}"#,
            r#"{"addr":64,"write":true }"#,
            "\t{\"addr\":64,\"write\":true}\r",
            "\u{c}{\"addr\":64,\"write\":true}",
            r#"{"write":true,"addr":64}"#,
            r#"{"addr":64}"#,
            r#"{"addr":64,"write":true,"tid":3}"#,
            r#"{"tid":3,"addr":64,"write":true}"#,
            r#"{"addr":64,"write":true,"addr":128}"#,
            r#"{"addr":64,"addr":128,"write":false}"#,
            r#"{"addr":64,"write":false,"write":true}"#,
            r#"{"addr":64,"write":TRUE}"#,
            r#"{"addr":64,"write":True}"#,
            r#"{"addr":64,"write":FALSE}"#,
            r#"{"addr":64,"write":False}"#,
            r#"{"addr":64,"write":1}"#,
            r#"{"addr":64,"write":tru}"#,
            r#"{"addr":64,"write":true}x"#,
            r#"{"addr":64,"write":true}}"#,
            r#"{"addr":64,"write":true},"#,
            r#"{"addr":64,"write":true} {}"#,
            r#"{"addr":64,"write":true"#,
            r#"{"addr":-64,"write":true}"#,
            r#"{"addr":+64,"write":true}"#,
            r#"{"addr":64.0,"write":true}"#,
            r#"{"addr":6e1,"write":true}"#,
            r#"{"addr":,"write":true}"#,
            r#"{"addr":"64","write":true}"#,
            r#"{"ADDR":64,"write":true}"#,
        ] {
            assert_same_decode(line);
        }
        // The fast path claims the canonical shape, leading zeros and
        // 18 digits included, and declines a 19th digit.
        assert_eq!(
            parse_canonical(br#"{"addr":007,"write":true}"#),
            Some(Access::write(7))
        );
        assert_eq!(
            parse_canonical(br#"{"addr":999999999999999999,"write":false}"#),
            Some(Access::read(999_999_999_999_999_999))
        );
        assert_eq!(
            parse_canonical(br#"{"addr":1000000000000000000,"write":false}"#),
            None
        );
    }

    #[test]
    fn seeded_lines_decode_alike_on_both_paths() {
        // Canonical records with 1–20 digit addresses (leading zeros
        // allowed), half of them then hit by 1–3 byte edits drawn from
        // the grammar's own characters.
        const ALPHABET: &[u8] = b"{}[]\":, \t0123456789-+.eEaddrwritetrufalsnTRUE";
        let mut rng = pad_cache_sim::SplitMix64::new(0x6e64_6a73_6f6e);
        let mut claimed = 0;
        for _ in 0..20_000 {
            let digits = 1 + rng.below(20) as usize;
            let number: String = (0..digits)
                .map(|_| char::from(b'0' + rng.below(10) as u8))
                .collect();
            let write = rng.below(2) == 1;
            let mut line = format!("{{\"addr\":{number},\"write\":{write}}}").into_bytes();
            let mutated = rng.below(2) == 1;
            if mutated {
                for _ in 0..1 + rng.below(3) {
                    let at = rng.below(line.len() as u64 + 1) as usize;
                    let byte = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
                    match rng.below(3) {
                        0 if at < line.len() => line[at] = byte,
                        1 if at < line.len() => {
                            line.remove(at);
                        }
                        _ => line.insert(at, byte),
                    }
                }
            }
            let line = String::from_utf8(line).expect("ASCII edits keep UTF-8");
            if !mutated && digits <= 18 {
                let addr: u64 = number.parse().expect("18 digits fit");
                assert_eq!(
                    parse_canonical(line.as_bytes()),
                    Some(Access {
                        addr,
                        is_write: write
                    }),
                    "fast path declined {line:?}"
                );
            }
            claimed += usize::from(parse_canonical(line.as_bytes()).is_some());
            assert_same_decode(&line);
        }
        assert!(claimed > 5_000, "fast path claimed only {claimed} lines");
    }

    #[test]
    fn final_line_without_newline_still_counts() {
        let back = read_all("{\"addr\": 32}").unwrap();
        assert_eq!(back, vec![Access::read(32)]);
    }
}
