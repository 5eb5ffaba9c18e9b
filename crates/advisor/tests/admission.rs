//! Deterministic admission-control test: saturate the bounded queue
//! with a gated handler, verify shed requests answer `overloaded`
//! immediately while admitted and in-flight requests complete
//! untouched once the gate opens. No timing assumptions — the handler
//! signals when it holds a request, and the gate is an explicit
//! condvar.

mod common;

use std::io::BufReader;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use common::{by_id, error_kind, next_response, status, ChannelReader, LineWriter};
use pad_advisor::engine::Advice;
use pad_advisor::json::Json;
use pad_advisor::{Server, ServerConfig};

/// A gate the test opens once the queue is provably saturated.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let guard = self.open.lock().expect("gate lock");
        let (_guard, timeout) = self
            .cv
            .wait_timeout_while(guard, Duration::from_secs(30), |open| !*open)
            .expect("gate lock");
        assert!(!timeout.timed_out(), "gate never opened");
    }

    fn open(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.cv.notify_all();
    }
}

#[test]
fn a_saturated_queue_sheds_new_requests_and_finishes_admitted_ones() {
    const WORKERS: usize = 1;
    const QUEUE: usize = 2;
    // Admission capacity: WORKERS in flight + QUEUE waiting.
    const ADMITTED: usize = WORKERS + QUEUE;
    const SHED: usize = 3;

    let gate = Arc::new(Gate::default());
    let (entered_tx, entered_rx) = mpsc::channel::<usize>();

    let handler_gate = Arc::clone(&gate);
    // Sender is !Sync and the handler runs inside the Sync isolation
    // closure, so the channel goes behind a mutex.
    let entered_tx = Mutex::new(entered_tx);
    let server = Server::new(ServerConfig {
        threads: WORKERS,
        queue: QUEUE,
        deadline: None, // the gate holds requests as long as it likes
        ..ServerConfig::default()
    })
    .with_handler(Box::new(move |frame, _request| {
        entered_tx
            .lock()
            .expect("channel lock")
            .send(frame)
            .expect("test is listening");
        handler_gate.wait();
        Ok(Advice {
            body: Json::Obj(vec![("frame".into(), Json::Int(frame as i64))]),
            degraded: false,
            simulated: false,
        })
    }));

    let (in_tx, in_rx) = mpsc::channel::<Vec<u8>>();
    let (out_tx, out_rx) = mpsc::channel::<String>();

    std::thread::scope(|scope| {
        scope.spawn(|| {
            server
                .serve(
                    BufReader::new(ChannelReader::new(in_rx)),
                    LineWriter::new(out_tx),
                )
                .expect("in-memory serve cannot fail");
        });

        let advise =
            |id: usize| format!(r#"{{"id": {id}, "op": "advise", "kernel": "DOT256K"}}"#) + "\n";

        // Request 0 occupies the only worker (the handler tells us so).
        in_tx.send(advise(0).into_bytes()).expect("server reading");
        assert_eq!(entered_rx.recv_timeout(Duration::from_secs(30)), Ok(0));

        // Requests 1..=QUEUE fill the queue. A ping after them proves
        // the reader thread has admitted both (frames are processed in
        // order, and ping answers inline from that same thread).
        for id in 1..ADMITTED {
            in_tx.send(advise(id).into_bytes()).expect("server reading");
        }
        in_tx
            .send(b"{\"id\": 100, \"op\": \"ping\"}\n".to_vec())
            .expect("server reading");
        let pong = next_response(&out_rx, 30);
        assert_eq!(pong.get("id").and_then(Json::as_i64), Some(100));
        assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));

        // The queue now holds QUEUE requests and the worker holds one:
        // the next SHED frames must bounce with `overloaded`, answered
        // inline (no waiting on the gate).
        for id in ADMITTED..ADMITTED + SHED {
            in_tx.send(advise(id).into_bytes()).expect("server reading");
            let shed = next_response(&out_rx, 30);
            assert_eq!(
                shed.get("id").and_then(Json::as_i64),
                Some(id as i64),
                "{shed:?}"
            );
            assert_eq!(status(&shed), "error");
            assert_eq!(error_kind(&shed), "overloaded");
        }

        // Open the gate: every admitted request completes untouched.
        gate.open();
        let mut finished = Vec::new();
        for _ in 0..ADMITTED {
            finished.push(next_response(&out_rx, 30));
        }
        for id in 0..ADMITTED {
            let r = by_id(&finished, id as i64);
            assert_eq!(status(r), "ok", "admitted request {id} completes: {r:?}");
            assert_eq!(
                r.get("result")
                    .and_then(|b| b.get("frame"))
                    .and_then(Json::as_i64),
                Some(id as i64),
                "the answer belongs to the request"
            );
        }

        drop(in_tx); // EOF: serve drains and returns
    });

    let metrics = server.metrics();
    assert_eq!(metrics.requests("advise").get(), (ADMITTED + SHED) as u64);
    assert_eq!(metrics.shed.get(), SHED as u64);
    assert_eq!(metrics.ok.get(), ADMITTED as u64);
}
