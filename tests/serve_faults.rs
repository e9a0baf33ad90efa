//! Fault injection against the serving layer: clients that vanish
//! mid-flight, garbage on the wire, frames that never finish, and
//! bursts past the admission budget. The daemon's contracts under
//! fire:
//!
//! * a well-formed request for a scheme the kernels cannot run is a
//!   typed `Unsupported` refusal, never a dead daemon;
//! * a peer stalled mid-frame costs the other clients at most the
//!   window deadline, and no session is left counted as mid-send;
//! * a disconnect never stalls the window, leaks queue bytes, or
//!   poisons another connection's results, and neither does a client
//!   that stops reading;
//! * a malformed frame gets a *typed* error reply, not a hangup, and
//!   the connection stays usable;
//! * overload is a synchronous, accounted refusal (`Overloaded`,
//!   counted in `anyseq_serve_rejected_total`) — accepted requests
//!   still complete, the queue gauge is bounded by the budget and
//!   returns to exactly 0 after the storm.

mod common;

use anyseq::core::score::Score;
use anyseq::serve::proto::Results;
use anyseq::serve::{
    Clock, ErrCode, FakeClock, ReqKind, SchemeSpec, ServeClient, ServeConfig, Server, ServerHandle,
    ServerReply, SystemClock, WindowCfg,
};
use common::{metric, must_finish, wait_until, MidSend};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn socket_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "anyseq-{tag}-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Polls until the batcher queue is fully drained (both the live
/// accounting and the exported gauges must reach exactly 0).
fn wait_for_drained_queue(server: &ServerHandle) {
    for _ in 0..500 {
        if server.queued_bytes() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.queued_bytes(), 0, "queue bytes leaked");
    let stats = server.stats_text();
    assert_eq!(
        metric(&stats, "anyseq_serve_queue_bytes"),
        0.0,
        "queue-bytes gauge did not return to 0"
    );
    assert_eq!(
        metric(&stats, "anyseq_serve_queue_depth"),
        0.0,
        "queue-depth gauge did not return to 0"
    );
}

fn spec() -> SchemeSpec {
    SchemeSpec::global_linear(2, -1, -1)
}

/// `n` pairs of `len`-byte sequences: `2 * n * len` queue bytes each.
fn bulk_pairs(n: usize, len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|k| (vec![(k % 4) as u8; len], vec![0u8; len]))
        .collect()
}

/// The one-pair request every liveness check sends, and its score.
fn probe(client: &mut ServeClient) {
    let results = client
        .roundtrip(
            ReqKind::Score,
            spec(),
            vec![(vec![0, 1, 2, 3], vec![0, 1, 3, 3])],
        )
        .expect("roundtrip failed")
        .expect("request refused");
    assert_eq!(results, Results::Scores(vec![5]));
}

/// A well-formed `REQUEST` whose gap score is positive used to panic
/// the one thread that ran every window (`scoring::linear`'s assert)
/// and hang every later request on every connection. Now the session refuses it
/// under the request's id, and both an old and a new connection are
/// still served. A match score whose `(n + m)`-step reach wraps `i32`
/// is refused the same way instead of answering a wrong score.
#[test]
fn an_invalid_scheme_is_refused_by_id_and_the_daemon_lives() {
    let server = Server::start(
        socket_path("faults-spec"),
        ServeConfig::default(),
        Arc::new(SystemClock::new()),
    )
    .expect("daemon start failed");
    let mut client = ServeClient::connect(server.path()).expect("connect failed");

    for (bad, field) in [
        (SchemeSpec::global_linear(2, -1, 1), "gap"),
        (SchemeSpec::global_affine(2, -1, 3, -1), "open"),
        (SchemeSpec::global_affine(2, -1, -2, 1), "extend"),
        (
            SchemeSpec::global_linear(i32::MAX, -1, -1),
            "scores out of range",
        ),
    ] {
        let id = client
            .submit(ReqKind::Score, bad, bulk_pairs(2, 8))
            .expect("submit failed");
        match client.recv().expect("recv failed") {
            ServerReply::Error(err) => {
                assert_eq!((err.id, err.code), (id, ErrCode::Unsupported));
                assert!(err.message.starts_with(field), "{err:?}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }
    probe(&mut client);
    probe(&mut ServeClient::connect(server.path()).expect("connect failed"));
    server.shutdown();
}

/// The worst case of the quiescence rule is a peer that starts a frame
/// and never finishes it: every window then waits exactly as long as
/// `max_delay_ns` allows — not a tick less, so the wait really is for
/// the peer, and not a tick more — and the moment the peer hangs up,
/// windows stop waiting without any time passing at all.
#[test]
fn a_half_sent_frame_holds_windows_to_the_deadline_or_until_its_peer_hangs_up() {
    const DEADLINE_NS: u64 = 1_000_000;
    let clock = Arc::new(FakeClock::new());
    let cfg = ServeConfig {
        window: WindowCfg {
            max_delay_ns: DEADLINE_NS,
            target_pairs: usize::MAX,
            ..WindowCfg::default()
        },
        threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(socket_path("faults-stall"), cfg, clock.clone() as Arc<_>)
        .expect("daemon start failed");
    let stalled = MidSend::hold(&server);
    let mut client = ServeClient::connect(server.path()).expect("connect failed");
    let submit = |client: &mut ServeClient| {
        client
            .submit(ReqKind::Score, spec(), bulk_pairs(2, 8))
            .expect("submit failed");
        wait_until("request admitted", || server.queued_bytes() > 0);
    };
    // The client's writer re-checks its frozen window every
    // millisecond: a window that could flush would have, many times
    // over.
    let assert_still_queued = |why: &str| {
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(1));
            assert!(server.queued_bytes() > 0, "window flushed {why}");
        }
    };

    submit(&mut client);
    clock.advance(DEADLINE_NS - 1);
    assert_still_queued("before its deadline with a peer mid-send");
    clock.advance(1);
    let mut client = must_finish("the deadline flush", move || {
        client.recv().expect("recv failed");
        client
    });
    assert_eq!(server.inbound_sessions(), 1, "the stalled peer is gone");

    submit(&mut client);
    assert_still_queued("with a peer mid-send and the clock stopped");
    drop(stalled);
    must_finish("the hang-up flush", move || {
        client.recv().expect("recv failed")
    });
    assert_eq!(clock.now_ns(), DEADLINE_NS, "flushed by time, not hang-up");
    wait_until("nobody inbound", || server.inbound_sessions() == 0);

    wait_until("both requests recorded", || {
        server.flight_requests().len() == 2
    });
    let recs = server.flight_requests();
    let waits: Vec<u64> = recs.iter().map(|r| r.window_wait_ns()).collect();
    assert_eq!(waits, [DEADLINE_NS, 0]);
    server.shutdown();
}

/// Leak guard: whatever a connection does — vanish, send garbage, ask
/// for stats, die mid-header or mid-payload, lie about its length —
/// the inbound count returns to 0, or every later window would wait
/// out its deadline for a session that no longer exists. The clock is
/// never advanced, so each reply below is itself proof of quiescence.
#[test]
fn inbound_count_returns_to_zero_after_connection_churn() {
    let clock = Arc::new(FakeClock::new());
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(socket_path("faults-churn"), cfg, clock as Arc<_>)
        .expect("daemon start failed");
    let sock = server.path().to_path_buf();
    let health = must_finish("the churn", move || {
        for _ in 0..3 {
            drop(UnixStream::connect(&sock).expect("connect failed"));
        }
        // Mid-header EOF, mid-payload EOF, a length past the frame cap.
        for half in [&[7u8, 0][..], &[100, 0, 0, 0, 1, 2, 3], &[0xFF; 4]] {
            let mut raw = UnixStream::connect(&sock).expect("connect failed");
            raw.write_all(half).expect("send failed");
        }
        let mut client = ServeClient::connect(&sock).expect("connect failed");
        client.send_raw(&[0xFF, 1, 2, 3]).expect("send failed");
        assert!(matches!(client.recv(), Ok(ServerReply::Error(_))));
        let bad = SchemeSpec::global_linear(2, -1, 1);
        let refused = client.roundtrip(ReqKind::Score, bad, bulk_pairs(1, 4));
        assert!(matches!(refused, Ok(Err(_))), "{refused:?}");
        client.stats().expect("stats failed");
        client.dump_flight().expect("dump failed");
        probe(&mut client);
        // Pipelined: the session stays inbound across the first frame.
        for _ in 0..2 {
            client
                .submit(ReqKind::Score, spec(), bulk_pairs(1, 4))
                .expect("submit failed");
        }
        for _ in 0..2 {
            assert!(matches!(client.recv(), Ok(ServerReply::Response { .. })));
        }
        client.health().expect("health failed")
    });
    // A probe does not count its own asker.
    assert!(health.contains("\"inbound_sessions\":0"), "{health}");
    wait_until("nobody inbound", || server.inbound_sessions() == 0);
    server.shutdown();
}

#[test]
fn disconnect_mid_flight_does_not_poison_other_connections() {
    let server = Server::start(
        socket_path("faults-disco"),
        ServeConfig::default(),
        Arc::new(SystemClock::new()),
    )
    .expect("daemon start failed");

    // The vanishing client: submit into the window — and into two
    // windows nobody else is in — then hang up before the replies
    // can be written.
    let mut ghost = ServeClient::connect(server.path()).expect("connect failed");
    let other = SchemeSpec::global_linear(1, -2, -2);
    for (mode, spec) in [
        (ReqKind::Score, spec()),
        (ReqKind::Align, spec()),
        (ReqKind::Score, other),
    ] {
        ghost
            .submit(mode, spec, bulk_pairs(8, 64))
            .expect("submit failed");
    }
    drop(ghost);

    // A well-behaved client in (at least potentially) the same window
    // must be unaffected: exact scores, no stall, no error.
    let mut client = ServeClient::connect(server.path()).expect("connect failed");
    probe(&mut client);

    // The ghost's queue bytes were released when its windows were
    // taken, receiver liveness notwithstanding.
    wait_until("every request admitted", || {
        metric(&server.stats_text(), "anyseq_serve_requests_total") == 4.0
    });
    wait_for_drained_queue(&server);
    let stats = server.stats_text();
    assert_eq!(metric(&stats, "anyseq_serve_requests_total"), 4.0);
    assert_eq!(metric(&stats, "anyseq_serve_rejected_total"), 0.0);
    server.shutdown();
}

/// A client that pipelines requests and never reads a reply blocks
/// its session's writer in `write` once the socket buffer is full. The
/// windows it keeps filling must still run — its reader runs them — so
/// the shared queue drains and other clients are served.
#[test]
fn a_client_that_never_reads_does_not_hold_the_queue() {
    let cfg = ServeConfig {
        window: WindowCfg {
            queue_budget_bytes: 2 << 20,
            ..WindowCfg::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start(
        socket_path("faults-deaf"),
        cfg,
        Arc::new(SystemClock::new()),
    )
    .expect("daemon start failed");

    // 128 alignments of a 1 × 4,000 bp pair: a 4 kB CIGAR each, far
    // more reply bytes than a socket buffer holds.
    let mut deaf = ServeClient::connect(server.path()).expect("connect failed");
    for _ in 0..128 {
        deaf.submit(ReqKind::Align, spec(), vec![(vec![0], vec![1; 4_000])])
            .expect("submit failed");
    }
    wait_until("every request admitted", || {
        metric(&server.stats_text(), "anyseq_serve_requests_total") == 128.0
    });
    wait_for_drained_queue(&server);
    probe(&mut ServeClient::connect(server.path()).expect("connect failed"));
    drop(deaf);
    server.shutdown();
}

#[test]
fn malformed_frame_gets_a_typed_error_not_a_hangup() {
    let server = Server::start(
        socket_path("faults-proto"),
        ServeConfig::default(),
        Arc::new(SystemClock::new()),
    )
    .expect("daemon start failed");
    let mut client = ServeClient::connect(server.path()).expect("connect failed");

    // Garbage verb + trailing junk: must come back as a typed
    // `Malformed` error frame on the same connection.
    client.send_raw(&[0xFF, 1, 2, 3]).expect("send failed");
    match client.recv().expect("recv failed") {
        ServerReply::Error(err) => {
            assert_eq!(err.code, ErrCode::Malformed);
            assert!(!err.message.is_empty(), "error frame should say why");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }

    // A truncated-but-valid-verb payload is malformed too.
    client.send_raw(&[0x01, 9]).expect("send failed");
    match client.recv().expect("recv failed") {
        ServerReply::Error(err) => assert_eq!(err.code, ErrCode::Malformed),
        other => panic!("expected a typed error, got {other:?}"),
    }

    // The connection survived both: a well-formed request still works.
    probe(&mut client);

    let stats = client.stats().expect("stats failed");
    assert_eq!(metric(&stats, "anyseq_serve_malformed_total"), 2.0);
    server.shutdown();
}

/// Deterministic backpressure: with the clock frozen and a peer
/// mid-send nothing can flush, so admission arithmetic is exact —
/// requests 1–2 fit the budget, 3–6 are refused synchronously. Thawing
/// the clock completes the accepted ones; every reply arrives in
/// submission order.
#[test]
fn overload_is_synchronous_accounted_and_recoverable() {
    let clock = Arc::new(FakeClock::new());
    let cfg = ServeConfig {
        window: WindowCfg {
            max_delay_ns: 1_000_000,
            target_pairs: 1 << 20,
            max_batch_bytes: u64::MAX,
            queue_budget_bytes: 2_000,
        },
        threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(socket_path("faults-burst"), cfg, clock.clone() as Arc<_>)
        .expect("daemon start failed");
    let mid_send = MidSend::hold(&server);
    let mut client = ServeClient::connect(server.path()).expect("connect failed");

    // 6 requests x 800 queue bytes against a 2000-byte budget.
    for _ in 0..6 {
        client
            .submit(ReqKind::Score, spec(), bulk_pairs(4, 100))
            .expect("submit failed");
    }

    // Nothing can flush until fake time moves, so the refusals are
    // decided by arithmetic alone; once the session has refused the
    // last four, thaw the clock to let the accepted two run.
    wait_until("requests 3-6 refused", || {
        metric(&server.stats_text(), "anyseq_serve_rejected_total") == 4.0
    });
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let (clock, stop) = (clock.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                clock.advance(2_000_000);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for k in 0..6 {
        match client.recv().expect("recv failed") {
            ServerReply::Response { id, results } => {
                assert_eq!(id, k + 1, "reply out of submission order");
                accepted += 1;
                match results {
                    Results::Scores(v) => assert_eq!(v.len(), 4),
                    other => panic!("score request answered with {other:?}"),
                }
            }
            ServerReply::Error(err) => {
                assert_eq!(err.code, ErrCode::Overloaded);
                assert_eq!(err.id, k + 1, "refusal out of submission order");
                rejected += 1;
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert_eq!((accepted, rejected), (2, 4));

    // Accounting: the metric equals the observed refusals, and the
    // peak queue level never exceeded the budget.
    let stats = client.stats().expect("stats failed");
    assert_eq!(metric(&stats, "anyseq_serve_rejected_total"), 4.0);
    assert_eq!(metric(&stats, "anyseq_serve_requests_total"), 6.0);
    assert!(server.peak_queued_bytes() <= 2_000);
    assert_eq!(server.peak_queued_bytes(), 1_600);
    wait_for_drained_queue(&server);

    // Recovery: the same connection is admitted again after the storm.
    let results = client
        .roundtrip(ReqKind::Score, spec(), bulk_pairs(2, 50))
        .expect("roundtrip failed")
        .expect("post-storm request refused");
    assert!(matches!(results, Results::Scores(ref v) if v.len() == 2));

    drop(mid_send);
    stop.store(true, Ordering::Relaxed);
    pump.join().expect("clock pump panicked");
    server.shutdown();
}

/// The concurrent storm: several clients burst past the budget at
/// once. Rejection *counts* are interleaving-dependent, but the books
/// must balance — client-observed refusals equal the metric, every
/// accepted request completes with exact scores, the peak stays under
/// budget, and the whole thing terminates (no deadlock).
#[test]
fn concurrent_burst_balances_the_books() {
    const CLIENTS: usize = 3;
    const REQS: u64 = 6;
    let clock = Arc::new(FakeClock::new());
    let cfg = ServeConfig {
        window: WindowCfg {
            max_delay_ns: 1_000_000,
            target_pairs: 1 << 20,
            max_batch_bytes: u64::MAX,
            queue_budget_bytes: 2_000,
        },
        threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(socket_path("faults-storm"), cfg, clock.clone() as Arc<_>)
        .expect("daemon start failed");

    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let (clock, stop) = (clock.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                clock.advance(2_000_000);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    // Local baseline for the one workload every client sends.
    let pairs = bulk_pairs(4, 100);
    let expected: Vec<Score> = {
        use anyseq::prelude::*;
        pairs
            .iter()
            .map(|(q, s)| {
                let q = Seq::from_codes(q.clone()).unwrap();
                let s = Seq::from_codes(s.clone()).unwrap();
                global(linear(simple(2, -1), -1)).score(&q, &s)
            })
            .collect()
    };

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let sock = server.path().to_path_buf();
            let pairs = pairs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&sock).expect("connect failed");
                for _ in 0..REQS {
                    client
                        .submit(ReqKind::Score, spec(), pairs.clone())
                        .expect("submit failed");
                }
                let mut rejected = 0u64;
                for _ in 0..REQS {
                    match client.recv().expect("recv failed") {
                        ServerReply::Response { results, .. } => {
                            assert_eq!(results, Results::Scores(expected.clone()));
                        }
                        ServerReply::Error(err) => {
                            assert_eq!(err.code, ErrCode::Overloaded);
                            rejected += 1;
                        }
                        other => panic!("unexpected reply: {other:?}"),
                    }
                }
                rejected
            })
        })
        .collect();
    let client_rejections: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("client panicked"))
        .sum();

    let stats = server.stats_text();
    assert_eq!(
        metric(&stats, "anyseq_serve_rejected_total"),
        client_rejections as f64,
        "metric and client-observed refusals disagree"
    );
    assert_eq!(
        metric(&stats, "anyseq_serve_requests_total"),
        (CLIENTS as u64 * REQS) as f64
    );
    assert!(server.peak_queued_bytes() <= 2_000, "budget breached");
    wait_for_drained_queue(&server);

    stop.store(true, Ordering::Relaxed);
    pump.join().expect("clock pump panicked");
    server.shutdown();
}
