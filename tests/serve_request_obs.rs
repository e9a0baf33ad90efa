//! Request-scoped observability under a [`FakeClock`]: the stage
//! decomposition must *account for* the latency a client observes, and
//! the slow-request log must contain exactly the over-threshold
//! requests.
//!
//! The daemon's every request-lifecycle stamp reads the injected
//! clock, so fake time only moves when the test advances it — each
//! test walks a request through a known stage before advancing, which
//! pins every stamp to a chosen fake instant and makes the
//! decomposition arithmetic exact rather than approximate. A window
//! only waits while someone is mid-send, so the tests that want a
//! request to *sit* in its window keep a [`MidSend`] peer connected.

mod common;

use anyseq::serve::{
    Clock, FakeClock, ReqKind, RequestRecord, SchemeSpec, ServeClient, ServeConfig, Server,
    ServerHandle, ServerReply, WindowCfg,
};
use common::{wait_until, MidSend};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const MS: u64 = 1_000_000;

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

/// Starts a fake-clock daemon with the given window deadline and slow
/// threshold; `target_pairs` stays huge unless a test wants the count
/// trigger.
fn start_daemon(
    tag: &str,
    clock: &Arc<FakeClock>,
    max_delay_ns: u64,
    target_pairs: usize,
    slow_ms: u64,
) -> ServerHandle {
    let cfg = ServeConfig {
        window: WindowCfg {
            max_delay_ns,
            target_pairs,
            ..WindowCfg::default()
        },
        threads: 1,
        slow_ms,
        ..ServeConfig::default()
    };
    Server::start(socket_path(tag), cfg, clock.clone() as Arc<_>).expect("daemon start failed")
}

fn submit_score(client: &mut ServeClient, pairs: usize) -> u64 {
    let spec = SchemeSpec::global_linear(2, -1, -1);
    let pairs = (0..pairs)
        .map(|k| (vec![0, 1, 2, (k % 4) as u8], vec![0, 1, 3, 3]))
        .collect();
    client
        .submit(ReqKind::Score, spec, pairs)
        .expect("submit failed")
}

fn recv_scores(client: &mut ServeClient) {
    match client.recv().expect("recv failed") {
        ServerReply::Response { .. } => {}
        other => panic!("unexpected reply: {other:?}"),
    }
}

/// `window_wait + queue_wait + dispatch` must equal the fake-time
/// latency the client observes, to within one clock tick (the stamps
/// all read the same fake clock, and the only uncounted interval —
/// dispatch end to reply start — cannot tick unless the test does).
#[test]
fn stage_decomposition_accounts_for_client_observed_latency() {
    let clock = Arc::new(FakeClock::new());
    let server = start_daemon("obs-decomp", &clock, 3 * MS, usize::MAX, 100);
    let _mid_send = MidSend::hold(&server);
    let mut client = ServeClient::connect(server.path()).expect("connect failed");

    let t_submit = clock.now_ns();
    submit_score(&mut client, 2);
    // The frame is admitted (recv/admit stamped at the current fake
    // instant) once its bytes are accounted against the queue budget.
    wait_until("request admitted", || server.queued_bytes() > 0);
    // Only now does fake time move: the whole 3 ms lands in the window
    // wait (the half-sent peer never finishes), and the deadline flush
    // dispatches the batch.
    clock.advance(3 * MS);
    recv_scores(&mut client);
    let observed = clock.now_ns() - t_submit;

    let recs = {
        let mut recs = Vec::new();
        wait_until("record in flight recorder", || {
            recs = server.flight_requests();
            !recs.is_empty()
        });
        recs
    };
    let rec: &RequestRecord = &recs[0];
    assert_eq!(rec.pairs, 2);
    assert_eq!(rec.verb, "score");
    assert_eq!(rec.kind, "global");
    assert!(rec.batch_seq >= 1, "batch_seq not stamped: {rec:?}");

    let staged = rec.window_wait_ns() + rec.queue_wait_ns() + rec.dispatch_ns();
    assert_eq!(observed, 3 * MS);
    assert!(
        staged.abs_diff(observed) <= MS,
        "stage sum {staged} vs client-observed {observed} (rec {rec:?})"
    );
    assert!(
        staged as f64 >= 0.95 * observed as f64,
        "stage sum {staged} explains < 95% of client-observed {observed}"
    );
    assert_eq!(rec.total_ns(), observed, "record total vs fake wall time");
    server.shutdown();
}

/// Exactly the over-threshold requests appear in the slow log: a 1 ms
/// request stays out, a 3 ms request lands in, and the counter ends at
/// one.
#[test]
fn slow_log_contains_exactly_the_over_threshold_requests() {
    let clock = Arc::new(FakeClock::new());
    // Deadline 3 ms, count trigger at 4 pairs, slow threshold 2 ms.
    let server = start_daemon("obs-slowlog", &clock, 3 * MS, 4, 2);
    let _mid_send = MidSend::hold(&server);
    let mut client = ServeClient::connect(server.path()).expect("connect failed");

    // Request A (1 pair) waits 1 ms, then request B's 3 pairs fill the
    // window to its count target: both flush at the same fake instant,
    // so A totals 1 ms and B totals 0 — neither crosses 2 ms.
    submit_score(&mut client, 1);
    wait_until("A admitted", || server.queued_bytes() > 0);
    clock.advance(MS);
    submit_score(&mut client, 3);
    recv_scores(&mut client);
    recv_scores(&mut client);
    wait_until("A and B recorded", || server.flight_requests().len() == 2);
    assert_eq!(server.slow_log().len(), 0, "under-threshold request logged");

    // Request C rides the window to its 3 ms deadline: over threshold.
    submit_score(&mut client, 1);
    wait_until("C admitted", || server.queued_bytes() > 0);
    clock.advance(3 * MS);
    recv_scores(&mut client);
    wait_until("C recorded", || server.flight_requests().len() == 3);

    let slow = server.slow_log();
    assert_eq!(slow.len(), 1, "slow log: {slow:?}");
    assert_eq!(slow[0].total_ns(), 3 * MS);
    assert_eq!(slow[0].pairs, 1);
    let stats = server.stats_text();
    assert!(
        stats.contains("anyseq_serve_slow_total 1"),
        "slow counter line missing:\n{stats}"
    );
    server.shutdown();
}

/// A cold daemon (zero traffic) already exposes every serve family the
/// dashboards key on — and answers `HEALTH` / `DUMP` over the wire.
#[test]
fn cold_scrape_has_stable_keys_and_health_dump_verbs_answer() {
    let clock = Arc::new(FakeClock::new());
    let server = start_daemon("obs-cold", &clock, 2 * MS, usize::MAX, 100);

    let stats = server.stats_text();
    for family in [
        "anyseq_serve_requests_total",
        "anyseq_serve_rejected_total",
        "anyseq_serve_malformed_total",
        "anyseq_serve_batches_total",
        "anyseq_serve_batch_pairs_total",
        "anyseq_serve_batch_pairs_count",
        "anyseq_serve_slow_total",
        "anyseq_serve_request_us_count{kind=\"-\",scheme=\"-\",verb=\"align\"}",
        "anyseq_serve_request_us_count{kind=\"-\",scheme=\"-\",verb=\"score\"}",
        "anyseq_serve_req_p50_us{verb=\"score\"}",
        "anyseq_serve_req_p95_us{verb=\"score\"}",
        "anyseq_serve_req_p99_us{verb=\"align\"}",
        "anyseq_serve_window_occupancy",
        "anyseq_serve_queue_bytes",
        "anyseq_serve_queue_depth",
    ] {
        assert!(
            stats.contains(family),
            "cold scrape missing {family}:\n{stats}"
        );
    }

    let mut client = ServeClient::connect(server.path()).expect("connect failed");
    let health = client.health().expect("health probe failed");
    assert!(
        health.starts_with('{') && health.contains("\"slowlog\":[]"),
        "unexpected health document: {health}"
    );
    assert!(
        health.contains(&format!("\"simd.isa\":\"{}\"", anyseq::simd::isa())),
        "health must say which ISA tier the lane kernels run on: {health}"
    );
    let dump = client.dump_flight().expect("flight dump failed");
    assert!(dump.trim_start().starts_with('['), "not a trace: {dump}");
    server.shutdown();
}

/// `request_obs: false` is a true off switch: no records, no slow log,
/// and the health document says so — while requests still answer.
#[test]
fn request_obs_off_disables_tracing_but_not_serving() {
    let clock = Arc::new(FakeClock::new());
    let cfg = ServeConfig {
        window: WindowCfg {
            max_delay_ns: 2 * MS,
            target_pairs: 1,
            ..WindowCfg::default()
        },
        threads: 1,
        request_obs: false,
        slow_ms: 0,
        ..ServeConfig::default()
    };
    let server =
        Server::start(socket_path("obs-off"), cfg, clock.clone() as Arc<_>).expect("start failed");
    let mut client = ServeClient::connect(server.path()).expect("connect failed");
    submit_score(&mut client, 1);
    recv_scores(&mut client);

    assert!(server.flight_requests().is_empty());
    assert!(server.slow_log().is_empty());
    let health = server.health_text();
    assert!(
        health.contains("\"request_obs\":false"),
        "health should report tracing off: {health}"
    );
    assert_eq!(server.flight_trace_text(), "[\n]\n");
    server.shutdown();
}
