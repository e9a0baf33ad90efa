//! The serving layer's central correctness property: **coalescing is
//! invisible**. However the micro-batching window happens to
//! group concurrent clients' requests into engine batches, every
//! client must get bit-identical results to dispatching its requests
//! alone, sequentially — and must get them back in its own submission
//! order.
//!
//! The daemon runs on a [`FakeClock`], and a pump thread walks fake
//! time forward while clients are in flight, so window deadlines fire
//! at arbitrary points relative to the submission interleaving: each
//! proptest case explores a different batch composition, and the
//! assertion is that composition never shows through.
//!
//! The tests below the identity checks pin *when* a window flushes:
//! the moment nobody is mid-send, with fake time standing still.
//!
//! CIGAR bit-identity is asserted under `Policy::Fixed(Scalar)` — the
//! scalar backend's traceback is per-pair deterministic, while the
//! SIMD banded traceback may legally shape CIGARs by lane-group
//! composition (shared band width). Scores are additionally asserted
//! under full `Policy::Auto` in a separate test: the engine contract
//! makes scores bit-exact across backends, so score identity must
//! survive any backend mix the coalesced batch is routed to.

mod common;

use anyseq::serve::proto::{self, Message, Request, Results};
use anyseq::serve::{
    Clock, FakeClock, ReqKind, SchemeSpec, ServeClient, ServeConfig, Server, ServerHandle,
    ServerReply, WindowCfg,
};
use anyseq_engine::{BackendId, BatchCfg, BatchScheduler, Dispatch, DispatchPolicy, Policy};
use anyseq_seq::testsupport::read_pairs;
use anyseq_seq::{BatchView, PairRef};
use common::{metric, must_finish, wait_until, MidSend};
use proptest::prelude::*;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique socket path per daemon (pid + counter: parallel test
/// binaries and parallel cases within one binary cannot collide).
fn socket_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "anyseq-{tag}-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Walks the fake clock forward until `stop` is raised, so window
/// deadlines fire at arbitrary real-time points while clients run.
fn pump_clock(clock: Arc<FakeClock>, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            clock.advance(2_000_000); // 2 ms fake per tick
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    })
}

/// One client's scripted traffic: `(align?, spec, pairs)` per request.
type ClientScript = Vec<(bool, SchemeSpec, Vec<(Vec<u8>, Vec<u8>)>)>;

/// Runs every script against a fake-clock daemon (one connection per
/// script, all requests pipelined before any reply is read), asserts
/// per-connection submission-order replies, and returns each client's
/// results in submission order.
fn run_through_daemon(
    scripts: &[ClientScript],
    policy: DispatchPolicy,
    target_pairs: usize,
) -> Vec<Vec<Results>> {
    let clock = Arc::new(FakeClock::new());
    let cfg = ServeConfig {
        window: WindowCfg {
            max_delay_ns: 1_000_000,
            target_pairs,
            ..WindowCfg::default()
        },
        threads: 1,
        policy,
        ..ServeConfig::default()
    };
    let server = Server::start(socket_path("coalesce"), cfg, clock.clone() as Arc<_>)
        .expect("daemon start failed");

    let stop = Arc::new(AtomicBool::new(false));
    let pump = pump_clock(clock, stop.clone());

    let handles: Vec<_> = scripts
        .iter()
        .cloned()
        .map(|script| {
            let sock = server.path().to_path_buf();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&sock).expect("connect failed");
                let ids: Vec<u64> = script
                    .iter()
                    .map(|(align, spec, pairs)| {
                        let mode = if *align {
                            ReqKind::Align
                        } else {
                            ReqKind::Score
                        };
                        client
                            .submit(mode, *spec, pairs.clone())
                            .expect("submit failed")
                    })
                    .collect();
                ids.into_iter()
                    .map(|id| match client.recv().expect("recv failed") {
                        ServerReply::Response { id: got, results } => {
                            // The FIFO reply contract: each reply is for
                            // the oldest outstanding request.
                            assert_eq!(got, id, "reply out of submission order");
                            results
                        }
                        other => panic!("unexpected reply: {other:?}"),
                    })
                    .collect::<Vec<Results>>()
            })
        })
        .collect();
    let results = handles
        .into_iter()
        .map(|h| h.join().expect("client panicked"))
        .collect();

    stop.store(true, Ordering::Relaxed);
    pump.join().expect("clock pump panicked");
    server.shutdown();
    results
}

/// The sequential baseline: each request dispatched on its own, in
/// submission order, through the same policy — no coalescing at all.
fn run_sequentially(scripts: &[ClientScript], policy: DispatchPolicy) -> Vec<Vec<Results>> {
    let dispatch = policy.standard();
    let scheduler = BatchScheduler::new(BatchCfg::threads(1));
    scripts
        .iter()
        .map(|script| {
            script
                .iter()
                .map(|(align, spec, pairs)| {
                    let refs: Vec<PairRef<'_>> =
                        pairs.iter().map(|(q, s)| PairRef::new(q, s)).collect();
                    let view = BatchView::from_refs(refs);
                    if *align {
                        Results::Alignments(
                            scheduler
                                .try_align_batch(&dispatch, spec, &view)
                                .unwrap()
                                .results,
                        )
                    } else {
                        Results::Scores(
                            scheduler
                                .try_score_batch(&dispatch, spec, &view)
                                .unwrap()
                                .results,
                        )
                    }
                })
                .collect()
        })
        .collect()
}

fn seq_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..5, 1..40) // includes N (code 4)
}

/// A request before interpretation: `(align?, (mismatch, gap), pairs)`
/// — the shim has no `prop_map`, so [`to_scripts`] builds the
/// [`SchemeSpec`]s in the test body.
type RawRequest = (u8, (i32, i32), Vec<(Vec<u8>, Vec<u8>)>);

fn request_strategy() -> impl Strategy<Value = RawRequest> {
    (
        0u8..2,
        (-3i32..=-1, -3i32..=-1),
        prop::collection::vec((seq_strategy(), seq_strategy()), 1..4),
    )
}

fn to_scripts(raw: Vec<Vec<RawRequest>>) -> Vec<ClientScript> {
    raw.into_iter()
        .map(|client| {
            client
                .into_iter()
                .map(|(align, (mismatch, gap), pairs)| {
                    (
                        align == 1,
                        SchemeSpec::global_linear(2, mismatch, gap),
                        pairs,
                    )
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 random multi-client interleavings: scores AND CIGARs from
    /// the coalescing daemon are bit-identical to the sequential
    /// baseline, per client, in submission order.
    #[test]
    fn coalesced_results_are_bit_identical_to_sequential_dispatch(
        raw in prop::collection::vec(prop::collection::vec(request_strategy(), 1..4), 2..5),
        target_pairs in prop_oneof![Just(1usize), Just(4), Just(1000)],
    ) {
        let scripts = to_scripts(raw);
        let policy = DispatchPolicy::fixed(BackendId::Scalar);
        let got = run_through_daemon(&scripts, policy, target_pairs);
        let expected = run_sequentially(&scripts, policy);
        prop_assert_eq!(got, expected);
    }
}

/// Score bit-identity under the full auto registry: whatever backend
/// mix the coalesced batches are routed to, scores match a sequential
/// auto-dispatch baseline bit-exactly (the engine's cross-backend
/// score contract, observed through the serving layer).
#[test]
fn auto_dispatch_scores_survive_coalescing() {
    let pairs = read_pairs(48, 0xC0A1);
    let scripts: Vec<ClientScript> = (0..3)
        .map(|c| {
            pairs[c * 16..(c + 1) * 16]
                .chunks(4)
                .map(|chunk| {
                    let wire = chunk
                        .iter()
                        .map(|(q, s)| (q.codes().to_vec(), s.codes().to_vec()))
                        .collect();
                    (false, SchemeSpec::global_linear(2, -1, -1), wire)
                })
                .collect()
        })
        .collect();
    let policy = DispatchPolicy::auto();
    let got = run_through_daemon(&scripts, policy, 1000);
    let expected = run_sequentially(&scripts, policy);
    assert_eq!(got, expected);

    // Belt and braces: the same scores through a plain single-batch
    // auto dispatch (no serving layer at all).
    let dispatch = Dispatch::standard(Policy::Auto);
    let scheduler = BatchScheduler::new(BatchCfg::threads(1));
    for (script, client_results) in scripts.iter().zip(&got) {
        for ((_, spec, wire), results) in script.iter().zip(client_results) {
            let refs: Vec<PairRef<'_>> = wire.iter().map(|(q, s)| PairRef::new(q, s)).collect();
            let plain = scheduler
                .try_score_batch(&dispatch, spec, &BatchView::from_refs(refs))
                .unwrap()
                .results;
            assert_eq!(results, &Results::Scores(plain));
        }
    }
}

/// A daemon on a fake clock nobody advances, with the count and byte
/// triggers out of reach: only quiescence (or the test moving time to
/// the 1 ms deadline) can flush a window.
fn start_frozen(tag: &str) -> (Arc<FakeClock>, ServerHandle) {
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
    let server =
        Server::start(socket_path(tag), cfg, clock.clone() as Arc<_>).expect("daemon start failed");
    (clock, server)
}

const DEADLINE_NS: u64 = 1_000_000;

/// Coalescing has to actually coalesce: every identity check above
/// would also pass on a daemon that ran each request as its own batch.
/// With a peer mid-send holding the window open, four clients pipeline
/// two requests each while fake time stands still, so all eight sit in
/// one window; the peer hanging up — the clock never moves — must flush
/// them as one engine batch: at most a quarter of the request count,
/// at least four requests' worth of pairs per batch.
#[test]
fn a_concurrent_burst_inside_one_window_is_one_batch() {
    const CLIENTS: usize = 4;
    const REQS: usize = 2;
    const PAIRS: usize = 8;
    let (clock, server) = start_frozen("burst");
    let mid_send = MidSend::hold(&server);

    let pairs = read_pairs(CLIENTS * REQS * PAIRS, 0xB0057);
    let burst_bytes: u64 = pairs.iter().map(|(q, s)| (q.len() + s.len()) as u64).sum();
    let clients: Vec<_> = pairs
        .chunks(REQS * PAIRS)
        .map(|mine| {
            let (sock, mine) = (server.path().to_path_buf(), mine.to_vec());
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&sock).expect("connect failed");
                for chunk in mine.chunks(PAIRS) {
                    client
                        .submit_seqs(ReqKind::Score, SchemeSpec::global_linear(2, -1, -1), chunk)
                        .expect("submit failed");
                }
                for _ in 0..REQS {
                    match client.recv().expect("recv failed") {
                        ServerReply::Response { .. } => {}
                        other => panic!("unexpected reply: {other:?}"),
                    }
                }
            })
        })
        .collect();

    wait_until("the whole burst to sit in the queue", || {
        server.queued_bytes() == burst_bytes
    });
    drop(mid_send);
    for client in clients {
        client.join().expect("client panicked");
    }
    assert_eq!(clock.now_ns(), 0, "the burst was flushed by time passing");

    let stats = server.stats_text();
    let requests = metric(&stats, "anyseq_serve_requests_total");
    assert_eq!(requests, (CLIENTS * REQS) as f64);
    let batches = metric(&stats, "anyseq_serve_batches_total");
    assert!(
        (1.0..=requests / 4.0).contains(&batches),
        "{requests} requests inside one window ran as {batches} batches"
    );
    assert!(metric(&stats, "anyseq_serve_window_occupancy") >= (4 * PAIRS) as f64);
    server.shutdown();
}

/// Nobody else is sending, so there is nothing to wait for: a lone
/// request is answered while fake time never moves.
#[test]
fn a_lone_request_is_answered_while_fake_time_stands_still() {
    let (clock, server) = start_frozen("lone");
    let sock = server.path().to_path_buf();
    let results = must_finish("the lone request's reply", move || {
        let mut client = ServeClient::connect(&sock).expect("connect failed");
        let pair = vec![(vec![0, 1, 2, 3], vec![0, 1, 3, 3])];
        client
            .roundtrip(ReqKind::Score, SchemeSpec::global_linear(2, -1, -1), pair)
            .expect("roundtrip failed")
    });
    assert_eq!(results, Ok(Results::Scores(vec![5])));
    assert_eq!(clock.now_ns(), 0);
    assert_eq!(server.inbound_sessions(), 0);
    server.shutdown();
}

/// A pipelining client's second frame that is already in the session's
/// read buffer has *started arriving*: the session stays inbound across
/// both, and the two requests land in one batch.
#[test]
fn a_pipelined_frame_already_in_the_read_buffer_joins_the_same_batch() {
    let (clock, server) = start_frozen("pipelined");
    let spec = SchemeSpec::global_linear(2, -1, -1);
    // Both frames leave in one write, so one read delivers both.
    let mut wire = Vec::new();
    for id in 1..=2 {
        let req = Request {
            id,
            mode: ReqKind::Score,
            spec,
            pairs: vec![(vec![0, 1, 2, 3], vec![0, 1, 3, 3]); 3],
        };
        proto::write_frame(&mut wire, &proto::encode_request(&req)).expect("frame");
    }
    let mut stream = UnixStream::connect(server.path()).expect("connect failed");
    stream.write_all(&wire).expect("send failed");
    let ids = must_finish("both replies", move || {
        [(); 2].map(|()| {
            let payload = proto::read_frame(&mut stream, proto::MAX_FRAME_BYTES)
                .expect("recv failed")
                .expect("server hung up");
            match proto::decode_message(&payload).expect("undecodable reply") {
                Message::Response(resp) => resp.id,
                other => panic!("unexpected reply: {other:?}"),
            }
        })
    });
    assert_eq!(ids, [1, 2]);
    assert_eq!(clock.now_ns(), 0);
    let stats = server.stats_text();
    assert_eq!(metric(&stats, "anyseq_serve_batches_total"), 1.0);
    assert_eq!(metric(&stats, "anyseq_serve_window_occupancy"), 6.0);
    server.shutdown();
}
