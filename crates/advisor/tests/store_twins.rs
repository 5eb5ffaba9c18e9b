//! The answer store keys answers by the program's display form, so that
//! form must carry every attribute that changes an answer. One session
//! asks PAD about a nest, then about its `param` twin (which may not be
//! intra-padded) and its `elem 4` twin (half the stride); each twin must
//! get its own layout, not the first nest's stored answer, and the same
//! bytes it gets from a server that never saw the others.

use std::io::{BufReader, Cursor};

use pad_advisor::json::{self, Json};
use pad_advisor::{Server, ServerConfig};

fn program(decl: &str) -> String {
    format!(
        "program twin\narray A(2048, 64){decl}\ndo j = 2, 63\n  do i = 1, 2048\n    \
         t = A(i, j-1) + A(i, j+1)\n  end\nend\n"
    )
}

/// Serves `decls`' programs in one session, one worker, in order; the
/// responses in request order.
fn session(decls: &[&str]) -> Vec<Json> {
    let mut frames = String::new();
    for (id, decl) in decls.iter().enumerate() {
        let text = Json::Str(program(decl));
        frames.push_str(&format!(
            r#"{{"id": {id}, "op": "advise", "algorithm": "pad", "mode": "exact", "program": {text}, "cache": {{"size": 16384, "line": 32, "ways": 1}}}}"#
        ));
        frames.push('\n');
    }
    let server = Server::new(ServerConfig {
        threads: 1,
        deadline: None,
        ..ServerConfig::default()
    });
    let mut out: Vec<u8> = Vec::new();
    server
        .serve(BufReader::new(Cursor::new(frames)), &mut out)
        .expect("in-memory serve cannot fail");
    let mut responses: Vec<Json> = String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}")))
        .collect();
    responses.sort_by_key(|r| r.get("id").and_then(Json::as_i64));
    assert_eq!(responses.len(), decls.len(), "{responses:?}");
    responses
}

/// `(cached, padded dims of A, padded misses)` of one response.
fn answer(response: &Json) -> (bool, Vec<i64>, u64) {
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("ok"),
        "{response}"
    );
    let cached = response.get("cached").and_then(Json::as_bool) == Some(true);
    let result = response.get("result").expect("an ok response has a result");
    let dims = match result.get("arrays") {
        Some(Json::Arr(arrays)) => match arrays[0].get("dims") {
            Some(Json::Arr(dims)) => dims.iter().filter_map(Json::as_i64).collect(),
            other => panic!("dims is a list: {other:?}"),
        },
        other => panic!("arrays is a list: {other:?}"),
    };
    let misses = result
        .get("padded")
        .and_then(|p| p.get("misses"))
        .and_then(Json::as_u64)
        .expect("an exact answer counts padded misses");
    (cached, dims, misses)
}

#[test]
fn attribute_twins_answer_with_their_own_layouts() {
    let decls = ["", " param", " elem 4"];
    let shared = session(&decls);
    let expected = [
        (vec![2050, 64], 63_550),
        (vec![2048, 64], 253_952),
        (vec![2052, 64], 31_806),
    ];
    for ((decl, response), (dims, misses)) in decls.iter().zip(&shared).zip(expected) {
        assert_eq!(
            answer(response),
            (false, dims, misses),
            "`{decl}` in one session"
        );
        let alone = session(&[decl]);
        assert_eq!(
            response.get("result").map(Json::to_string),
            alone[0].get("result").map(Json::to_string),
            "`{decl}`: the session's answer is the one it gets alone"
        );
    }
}
