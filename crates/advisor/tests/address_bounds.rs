//! Programs whose reference addresses would wrap 64 bits are refused as
//! `parse` errors before any analysis prices or walks them, under every
//! algorithm, and the session goes on answering.

mod common;

use std::io::{BufReader, Cursor};

use common::{by_id, error_kind, status};
use pad_advisor::json::{self, Json};
use pad_advisor::{Server, ServerConfig};

/// A coefficient times the stride, a constant, a loop at the top of
/// i64, and a lower bound at the bottom: each reference's byte offset
/// leaves i64.
const WRAPPING: [&str; 4] = [
    "program a\narray A(100, 4)\ndo i = 1, 10\n  t = A(4611686018427387904*i, 1)\nend\n",
    "program b\narray A(100, 4)\ndo i = 1, 10\n  t = A(i + 9223372036854775000, 1)\nend\n",
    "program c\narray A(100, 4)\ndo i = 9223372036854775800, 9223372036854775807\n  t = A(i, 1)\nend\n",
    "program d\narray A(-9223372036854775807:-9223372036854775000, 4)\n\
     do i = 1, 10\n  t = A(i, 1)\nend\n",
];

#[test]
fn wrapping_addresses_answer_parse_under_every_algorithm() {
    let mut frames = String::new();
    let mut id = 0;
    for program in WRAPPING {
        for algorithm in ["pad", "padlite", "search"] {
            let program = Json::Str(program.to_string());
            frames.push_str(&format!(
                r#"{{"id": {id}, "op": "advise", "algorithm": "{algorithm}", "program": {program}}}"#
            ));
            frames.push('\n');
            id += 1;
        }
    }
    frames.push_str(r#"{"id": 12, "op": "advise", "kernel": "JACOBI512", "n": 32}"#);
    frames.push('\n');

    let server = Server::new(ServerConfig::default());
    let mut out: Vec<u8> = Vec::new();
    server
        .serve(BufReader::new(Cursor::new(frames)), &mut out)
        .expect("in-memory serve cannot fail");
    let responses: Vec<Json> = String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}")))
        .collect();

    assert_eq!(responses.len(), 13, "every frame answered: {responses:?}");
    for id in 0..12 {
        let r = by_id(&responses, id);
        assert_eq!(status(r), "error", "{r}");
        assert_eq!(error_kind(r), "parse", "{r}");
    }
    assert_eq!(status(by_id(&responses, 12)), "ok");
}

/// A 2^61-byte array that any pad would grow past the IR's footprint
/// limit: PADLITE's first pad fails it, so it keeps its declared shape.
const BIG: &str = "program BIG\narray A(1, 144115188075855872, 2)\n\
                   do i = 1, 2\n  A(1, i, 1) = A(1, i, 1)\nend\n";

#[test]
fn pads_past_the_limits_answer_the_declared_shape() {
    let mut frames = String::new();
    for (id, algorithm) in ["pad", "padlite", "search"].into_iter().enumerate() {
        let program = Json::Str(BIG.to_string());
        frames.push_str(&format!(
            r#"{{"id": {id}, "op": "advise", "algorithm": "{algorithm}", "program": {program}}}"#
        ));
        frames.push('\n');
    }

    let server = Server::new(ServerConfig::default());
    let mut out: Vec<u8> = Vec::new();
    server
        .serve(BufReader::new(Cursor::new(frames)), &mut out)
        .expect("in-memory serve cannot fail");
    let responses: Vec<Json> = String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}")))
        .collect();

    let declared = [1, 144_115_188_075_855_872, 2];
    for id in 0..3 {
        let r = by_id(&responses, id);
        assert_eq!(status(r), "ok", "{r}");
        let result = r.get("result").expect("an ok answer has a result");
        let Some(Json::Arr(arrays)) = result.get("arrays") else {
            panic!("no arrays in {r}");
        };
        let dims = |key: &str| -> Vec<i64> {
            let Some(Json::Arr(dims)) = arrays[0].get(key) else {
                panic!("no {key} in {r}");
            };
            dims.iter()
                .map(|d| d.as_i64().expect("integer dims"))
                .collect()
        };
        assert_eq!(dims("dims"), declared, "{r}");
        assert_eq!(dims("original_dims"), declared, "{r}");
    }
    let padlite = by_id(&responses, 1).get("result").expect("result");
    let Some(Json::Arr(events)) = padlite.get("events") else {
        panic!("no events in {padlite}");
    };
    let events: Vec<&str> = events.iter().filter_map(Json::as_str).collect();
    assert_eq!(events, ["intra-pad of A failed; reverted"]);
}
