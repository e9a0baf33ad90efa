//! Serving-layer throughput: concurrent clients against the
//! `anyseq-serve` daemon, measuring how well the deadline
//! micro-batching window coalesces independent requests into engine
//! batches — and what the per-request tracing pipeline costs.
//!
//! Run: `cargo run --release -p anyseq-bench --bin serve_throughput \
//!       [clients] [reqs_per_client] [pairs_per_req] [--socket PATH]`
//!
//! Without `--socket` the daemon runs in-process (50 ms window so the
//! whole burst coalesces); with it, the bench drives an external
//! `anyseq serve` daemon — the CI `serve-smoke` job uses that mode.
//! Every reply is checked bit-exactly against a local engine baseline,
//! then the final `STATS` scrape is parsed into the report keys
//! `scripts/check_bench_report.py --serve` validates:
//! `serve.{requests,batches,rejected,window_occupancy}` plus the
//! client-side throughput (`serve.pairs_per_s`, `serve.gcups`).
//!
//! Three observability sections ride along:
//! * the per-verb request-latency quantile gauges the daemon refreshes
//!   at scrape time (`serve.req_p{50,95,99}_us` for `score`, the
//!   `serve.align_req_*` variants after a small verified align burst),
//! * the slow-request counter (`serve.slow_total` — zero is healthy at
//!   bench window sizes),
//! * a request-tracing overhead phase: two fresh in-process daemons,
//!   identical traffic, `request_obs` off vs on, best-of-two each —
//!   `serve.req_obs_overhead_frac` must stay ≤ 3 % of pairs/s once the
//!   run moves ≥ 2000 pairs (the acceptance bar: always-on tracing must
//!   be effectively free).
//!
//! The coalescing figure of merit is `serve.window_occupancy` — mean
//! pairs per engine batch. With ≥ 4 concurrent clients it must reach
//! at least 4× the single-request size (the acceptance bar: batching
//! must actually batch).

use anyseq_bench::report::dump_json;
use anyseq_engine::{BatchCfg, BatchScheduler, Dispatch, Policy};
use anyseq_seq::testsupport::read_pairs;
use anyseq_seq::{BatchView, Seq};
use anyseq_serve::{ReqKind, SchemeSpec, ServeClient, ServeConfig, Server, SystemClock, WindowCfg};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Extracts one value from a Prometheus text exposition. `name` may
/// include a label set (`foo{verb="score"}`) — lines match by prefix.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("STATS scrape is missing {name}"))
}

/// An in-process daemon with the bench's wide coalescing window.
fn start_daemon(tag: &str, request_obs: bool) -> anyseq_serve::ServerHandle {
    let cfg = ServeConfig {
        window: WindowCfg {
            max_delay_ns: 50_000_000,
            ..WindowCfg::default()
        },
        request_obs,
        ..ServeConfig::default()
    };
    let path = std::env::temp_dir().join(format!(
        "anyseq-serve-throughput-{tag}-{}.sock",
        std::process::id()
    ));
    Server::start(path, cfg, Arc::new(SystemClock::new())).expect("daemon start failed")
}

/// Drives one concurrent score burst: every client pipelines its whole
/// workload, drains the replies, and (when a baseline is given) checks
/// them bit-exactly. Returns the wall time and the last client's final
/// `STATS` scrape.
fn run_burst(
    sock: &Path,
    spec: SchemeSpec,
    workloads: Vec<Vec<(Seq, Seq)>>,
    baselines: Option<Vec<Vec<i32>>>,
    pairs_per_req: usize,
) -> (f64, String) {
    let expected: Vec<Option<Vec<i32>>> = match baselines {
        Some(b) => b.into_iter().map(Some).collect(),
        None => workloads.iter().map(|_| None).collect(),
    };
    let t0 = Instant::now();
    let handles: Vec<_> = workloads
        .into_iter()
        .zip(expected)
        .map(|(pairs, expected)| {
            let sock = sock.to_path_buf();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&sock).expect("connect failed");
                // Pipeline the whole workload, then drain the replies.
                for chunk in pairs.chunks(pairs_per_req) {
                    client
                        .submit_seqs(ReqKind::Score, spec, chunk)
                        .expect("submit failed");
                }
                let mut got = Vec::with_capacity(pairs.len());
                for _ in 0..pairs.len().div_ceil(pairs_per_req) {
                    match client.recv().expect("recv failed") {
                        anyseq_serve::ServerReply::Response { results, .. } => match results {
                            anyseq_serve::proto::Results::Scores(v) => got.extend(v),
                            other => panic!("score request answered with {other:?}"),
                        },
                        other => panic!("unexpected reply: {other:?}"),
                    }
                }
                if let Some(expected) = expected {
                    assert_eq!(got, expected, "daemon scores diverged from the baseline");
                } else {
                    assert_eq!(got.len(), pairs.len(), "daemon dropped replies");
                }
                client.stats().expect("stats scrape failed")
            })
        })
        .collect();
    let stats = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .next_back()
        .unwrap();
    (t0.elapsed().as_secs_f64(), stats)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let clients: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(8);
    let reqs: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(8);
    let pairs_per_req: usize = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(64);
    let socket: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--socket")
        .and_then(|k| args.get(k + 1))
        .map(PathBuf::from);

    // In-process daemon unless --socket points at an external one. The
    // wide window lets the full client burst coalesce; the default
    // 512-pair target still flushes early once the window fills.
    let server = if socket.is_none() {
        Some(start_daemon("main", true))
    } else {
        None
    };
    let sock = socket
        .clone()
        .unwrap_or_else(|| server.as_ref().unwrap().path().to_path_buf());

    let spec = SchemeSpec::global_linear(2, -1, -1);
    println!(
        "{clients} clients x {reqs} requests x {pairs_per_req} pairs -> {}",
        sock.display()
    );

    // Per-client workloads and the local baseline, computed up front so
    // the timed section is pure daemon traffic.
    let workloads: Vec<Vec<(Seq, Seq)>> = (0..clients)
        .map(|c| read_pairs(reqs * pairs_per_req, 0x5e7e + c as u64))
        .collect();
    let dispatch = Dispatch::standard(Policy::Auto);
    let scheduler = BatchScheduler::new(BatchCfg::default());
    let baselines: Vec<Vec<i32>> = workloads
        .iter()
        .map(|pairs| {
            scheduler
                .try_score_batch(&dispatch, &spec, &BatchView::from_pairs(pairs))
                .unwrap()
                .results
        })
        .collect();
    let cells: f64 = workloads
        .iter()
        .flatten()
        .map(|(q, s)| (q.len() * s.len()) as f64)
        .sum();

    let (wall, stats) = run_burst(&sock, spec, workloads, Some(baselines), pairs_per_req);

    let requests = metric(&stats, "anyseq_serve_requests_total");
    let batches = metric(&stats, "anyseq_serve_batches_total");
    let rejected = metric(&stats, "anyseq_serve_rejected_total");
    let occupancy = metric(&stats, "anyseq_serve_window_occupancy");
    let score_p50 = metric(&stats, "anyseq_serve_req_p50_us{verb=\"score\"}");
    let score_p95 = metric(&stats, "anyseq_serve_req_p95_us{verb=\"score\"}");
    let score_p99 = metric(&stats, "anyseq_serve_req_p99_us{verb=\"score\"}");
    let total_pairs = (clients * reqs * pairs_per_req) as f64;

    println!(
        "wall {wall:.3}s  {:.0} pairs/s  {:.3} GCUPS (client-side, verified)",
        total_pairs / wall,
        cells / wall / 1e9
    );
    println!(
        "daemon: {requests} requests -> {batches} batches \
         (occupancy {occupancy:.1} pairs/batch), {rejected} rejected"
    );
    println!("score latency: p50 {score_p50:.0}us  p95 {score_p95:.0}us  p99 {score_p99:.0}us");

    // The acceptance bar: under real concurrency the window must
    // coalesce, not pass requests through one at a time.
    if clients >= 4 {
        let bar = 4.0 * pairs_per_req as f64;
        assert!(
            occupancy >= bar,
            "window occupancy {occupancy:.1} below the {bar:.0}-pair bar \
             ({clients} clients x {pairs_per_req} pairs)"
        );
    }

    // A small verified align burst so the verb="align" latency gauges
    // exist too (quantiles refresh on the scrape that follows it).
    let aligned_reads = read_pairs(32, 0xa116);
    let stats = {
        let mut client = ServeClient::connect(&sock).expect("align connect failed");
        for chunk in aligned_reads.chunks(8) {
            let results = client
                .roundtrip(
                    ReqKind::Align,
                    spec,
                    chunk
                        .iter()
                        .map(|(q, s)| (q.codes().to_vec(), s.codes().to_vec()))
                        .collect(),
                )
                .expect("align roundtrip failed")
                .expect("align request refused");
            match results {
                anyseq_serve::proto::Results::Alignments(v) => assert_eq!(v.len(), chunk.len()),
                other => panic!("align request answered with {other:?}"),
            }
        }
        client.stats().expect("align stats scrape failed")
    };
    let align_p50 = metric(&stats, "anyseq_serve_req_p50_us{verb=\"align\"}");
    let align_p95 = metric(&stats, "anyseq_serve_req_p95_us{verb=\"align\"}");
    let align_p99 = metric(&stats, "anyseq_serve_req_p99_us{verb=\"align\"}");
    let slow_total = metric(&stats, "anyseq_serve_slow_total");
    println!(
        "align latency: p50 {align_p50:.0}us  p95 {align_p95:.0}us  p99 {align_p99:.0}us  \
         ({slow_total} slow requests)"
    );

    // Request-tracing overhead: identical traffic against two fresh
    // in-process daemons (tracing off, then on), best of two runs each
    // so a cold first window doesn't masquerade as tracing cost.
    let mut best = [0.0f64; 2];
    for (i, request_obs) in [false, true].into_iter().enumerate() {
        for _ in 0..2 {
            let daemon = start_daemon(if request_obs { "obs-on" } else { "obs-off" }, request_obs);
            let workloads: Vec<Vec<(Seq, Seq)>> = (0..clients)
                .map(|c| read_pairs(reqs * pairs_per_req, 0x0b5 + c as u64))
                .collect();
            let (wall, _) = run_burst(daemon.path(), spec, workloads, None, pairs_per_req);
            best[i] = best[i].max(total_pairs / wall);
            daemon.shutdown();
        }
    }
    let [off, on] = best;
    let overhead_frac = ((off - on) / off).max(0.0);
    println!(
        "request tracing: {off:.0} pairs/s off, {on:.0} pairs/s on \
         (overhead {:.2}%)",
        overhead_frac * 100.0
    );
    if total_pairs >= 2000.0 {
        assert!(
            overhead_frac <= 0.03,
            "request tracing costs {:.2}% pairs/s (bar: 3%) at {total_pairs} pairs",
            overhead_frac * 100.0
        );
    }

    let mut json: BTreeMap<String, f64> = BTreeMap::new();
    json.insert("serve.requests".into(), requests);
    json.insert("serve.batches".into(), batches);
    json.insert("serve.rejected".into(), rejected);
    json.insert("serve.window_occupancy".into(), occupancy);
    json.insert("serve.clients".into(), clients as f64);
    json.insert("serve.pairs_per_req".into(), pairs_per_req as f64);
    json.insert("serve.wall_s".into(), wall);
    json.insert("serve.pairs_per_s".into(), total_pairs / wall);
    json.insert("serve.gcups".into(), cells / wall / 1e9);
    json.insert("serve.req_p50_us".into(), score_p50);
    json.insert("serve.req_p95_us".into(), score_p95);
    json.insert("serve.req_p99_us".into(), score_p99);
    json.insert("serve.align_req_p50_us".into(), align_p50);
    json.insert("serve.align_req_p95_us".into(), align_p95);
    json.insert("serve.align_req_p99_us".into(), align_p99);
    json.insert("serve.slow_total".into(), slow_total);
    json.insert("serve.req_obs_overhead_frac".into(), overhead_frac);
    dump_json("serve_throughput", &json);

    if let Some(server) = server {
        server.shutdown();
    }
    println!("serve throughput OK");
}
