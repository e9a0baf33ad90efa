//! Serving-layer round trip: start the `anyseq-serve` daemon
//! in-process, drive it with four concurrent clients, and check every
//! reply against a locally computed baseline.
//!
//! Each client pipelines a handful of score requests over one
//! unix-socket connection, the daemon's micro-batching window coalesces
//! whatever arrives together into shared engine batches, and replies
//! stream back per connection in submission order. A final `STATS`
//! scrape shows the coalescing in the `anyseq_serve_*` metrics.
//!
//! With `--socket PATH` the same verified traffic goes to a daemon that
//! is already listening there (`anyseq serve --socket PATH`) instead of
//! one started here — the CI `smoke` job's traffic source.
//!
//! Run: `cargo run --release --example serve_roundtrip [-- --socket PATH]`

use anyseq::serve::proto::Results;
use anyseq::serve::{ReqKind, SchemeSpec, ServeClient, ServeConfig, Server, SystemClock};
use anyseq_seq::testsupport::read_pairs;
use std::path::PathBuf;
use std::sync::Arc;

const CLIENTS: usize = 4;
const REQS_PER_CLIENT: usize = 6;
const PAIRS_PER_REQ: usize = 16;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let external: Option<PathBuf> = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--socket" => Some(PathBuf::from(path)),
        _ => {
            eprintln!("usage: serve_roundtrip [--socket PATH]");
            std::process::exit(2);
        }
    };

    // Unless an external daemon was named, start one here, in the
    // configuration the shipped daemon runs.
    let (sock, server) = match external {
        Some(path) => (path, None),
        None => {
            let path = std::env::temp_dir().join(format!(
                "anyseq-serve-roundtrip-{}.sock",
                std::process::id()
            ));
            let server = Server::start(path, ServeConfig::default(), Arc::new(SystemClock::new()))
                .expect("daemon start failed");
            (server.path().to_path_buf(), Some(server))
        }
    };
    println!("daemon listening on {}", sock.display());

    let spec = SchemeSpec::global_linear(2, -1, -1);
    // Every client sends the same simulated short-read workload, each
    // from its own seed; the baseline is computed per client below.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let sock = sock.clone();
            std::thread::spawn(move || {
                let pairs = read_pairs(REQS_PER_CLIENT * PAIRS_PER_REQ, 0xC11E47 + c as u64);
                let mut client = ServeClient::connect(&sock).expect("connect failed");
                // Pipeline every request before reading any reply.
                let mut ids = Vec::new();
                for chunk in pairs.chunks(PAIRS_PER_REQ) {
                    ids.push(
                        client
                            .submit_seqs(ReqKind::Score, spec, chunk)
                            .expect("submit failed"),
                    );
                }
                for (req, id) in ids.into_iter().enumerate() {
                    let reply = client.recv().expect("recv failed");
                    let expected: Vec<_> = pairs[req * PAIRS_PER_REQ..(req + 1) * PAIRS_PER_REQ]
                        .iter()
                        .map(|(q, s)| {
                            anyseq::prelude::global(anyseq::prelude::linear(
                                anyseq::prelude::simple(2, -1),
                                -1,
                            ))
                            .score(q, s)
                        })
                        .collect();
                    match reply {
                        anyseq::serve::ServerReply::Response { id: got, results } => {
                            assert_eq!(got, id, "replies must come back in submission order");
                            assert_eq!(
                                results,
                                Results::Scores(expected),
                                "daemon scores must match the local baseline bit-exactly"
                            );
                        }
                        other => panic!("unexpected reply: {other:?}"),
                    }
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

    let total = CLIENTS * REQS_PER_CLIENT;
    println!("{total} requests x {PAIRS_PER_REQ} pairs verified against the local baseline");
    for line in stats
        .lines()
        .filter(|l| l.starts_with("anyseq_serve_") && !l.contains("bucket"))
    {
        println!("  {line}");
    }
    if let Some(server) = server {
        server.shutdown();
    }
    println!("round trip OK");
}
