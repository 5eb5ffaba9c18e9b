//! Kill-and-restart: a server populates its persistent answer store,
//! dies (simulated hard kill, including a torn final journal record),
//! and a fresh server over the same store answers the same queries
//! bit-exactly from replay — zero re-simulation.

mod common;

use std::io::{BufReader, Cursor};
use std::path::PathBuf;

use common::{by_id, status};
use pad_advisor::json::{self, Json};
use pad_advisor::{Server, ServerConfig, Store};

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("pad-advisor-restart-{name}-{}", std::process::id()));
    path
}

fn session(server: &Server, frames: &str) -> Vec<Json> {
    let mut out: Vec<u8> = Vec::new();
    server
        .serve(BufReader::new(Cursor::new(frames.to_string())), &mut out)
        .expect("in-memory serve cannot fail");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}")))
        .collect()
}

fn result_bodies(responses: &[Json], ids: &[i64]) -> Vec<String> {
    ids.iter()
        .map(|&id| {
            let r = by_id(responses, id);
            assert_eq!(status(r), "ok", "{r:?}");
            r.get("result")
                .expect("ok responses carry a result")
                .to_string()
        })
        .collect()
}

#[test]
fn a_restarted_server_replays_its_answers_bit_exactly() {
    let path = scratch("replay");
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let frames: String = (0..4i64)
        .map(|i| {
            format!(
                r#"{{"id": {i}, "op": "advise", "kernel": "DOT256K", "n": {}}}"#,
                300 + 10 * i
            ) + "\n"
        })
        .collect();

    // Life 1: cold queries simulate and persist.
    let before = {
        let server = Server::with_store(config.clone(), Store::open(&path).expect("create"));
        let responses = session(&server, &frames);
        assert_eq!(server.metrics().simulations.get(), 4);
        assert_eq!(server.metrics().cache_hits.get(), 0);
        result_bodies(&responses, &[0, 1, 2, 3])
        // The server is dropped without any shutdown handshake — the
        // journal's per-record flush is the only durability mechanism,
        // exactly as in a `kill -9`.
    };

    // The kill tears the journal mid-record: chop bytes off the tail so
    // the last record is torn. That answer is lost; the rest replay.
    let bytes = std::fs::read(&path).expect("journal exists");
    std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("tear");

    // Life 2: same queries, fresh process state, same store.
    let server = Server::with_store(config, Store::open(&path).expect("reopen"));
    assert_eq!(
        server.store().replayed(),
        3,
        "torn final record is dropped cleanly"
    );
    let responses = session(&server, &frames);
    let after = result_bodies(&responses, &[0, 1, 2, 3]);

    assert_eq!(
        before, after,
        "every answer replays bit-exactly across the restart"
    );
    for id in 0..3i64 {
        assert_eq!(
            by_id(&responses, id).get("cached"),
            Some(&Json::Bool(true)),
            "intact answers come from the store"
        );
    }
    assert_eq!(
        by_id(&responses, 3).get("cached"),
        Some(&Json::Bool(false)),
        "the torn answer is re-simulated"
    );
    let metrics = server.metrics();
    assert_eq!(metrics.cache_hits.get(), 3);
    assert_eq!(
        metrics.simulations.get(),
        1,
        "only the torn record re-simulates; warm answers never re-run the simulator"
    );

    // Life 3: the re-simulated record was re-persisted; now everything
    // replays and the simulator never runs at all.
    let server = Server::with_store(
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
        Store::open(&path).expect("reopen again"),
    );
    assert_eq!(server.store().replayed(), 4);
    let responses = session(&server, &frames);
    assert_eq!(result_bodies(&responses, &[0, 1, 2, 3]), before);
    assert_eq!(server.metrics().simulations.get(), 0);
    assert_eq!(server.metrics().cache_hits.get(), 4);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn cache_keys_unify_kernel_and_inline_forms_of_the_same_nest() {
    // The store keys on the *resolved* program, so an inline spec that
    // parses to the same nest as a registered kernel shares its cached
    // answer. (Asserted indirectly: two textual routes, one simulation.)
    let path = scratch("unify");
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let server = Server::with_store(config, Store::open(&path).expect("create"));

    // DOT256K at n=400 and its hand-written surface form.
    let inline = "program DOT256K\n\
                  array A(400)\n\
                  array B(400)\n\
                  do i = 1, 400\n\
                    s = s + A(i) * B(i)\n\
                  end\n";
    let mut inline_frame = String::from(r#"{"id": 2, "op": "advise", "program": "#);
    Json::Str(inline.to_string()).write(&mut inline_frame);
    inline_frame.push('}');

    let frames = format!(
        "{}\n{}\n",
        r#"{"id": 1, "op": "advise", "kernel": "DOT256K", "n": 400}"#, inline_frame
    );
    let responses = session(&server, &frames);
    let bodies = result_bodies(&responses, &[1, 2]);
    assert_eq!(bodies[0], bodies[1], "one nest, one answer");
    assert_eq!(server.metrics().simulations.get(), 1);
    assert_eq!(server.metrics().cache_hits.get(), 1);

    let _ = std::fs::remove_file(&path);
}
