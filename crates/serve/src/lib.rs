//! # anyseq-serve — the batch-serving daemon
//!
//! The engine's throughput story (SIMD lanes, worker pools, the result
//! cache) only materializes when batches are *full* — but real traffic
//! arrives as many small independent requests. This crate is the layer
//! in between: a thread-per-connection unix-socket daemon that
//! **coalesces concurrent requests into engine batches** with a
//! micro-batching window that waits only while someone is still
//! sending, applies **admission control** when
//! queued bytes exceed a budget (typed `Overloaded` refusal, never
//! unbounded buffering), and streams per-request results back **in
//! each connection's submission order**.
//!
//! * [`proto`] — the length-prefixed wire protocol (strict decode,
//!   typed errors),
//! * [`clock`] — injected time ([`SystemClock`] in production,
//!   [`FakeClock`] in the deterministic concurrency tests),
//! * [`batcher`] — the `(scheme, mode)`-keyed micro-batching window:
//!   flush on quiescence (no session mid-send), pair-count target,
//!   byte budget, or deadline — whichever first — with the
//!   queue-budget backpressure gate,
//! * `session` (private) — per-connection reader/writer pair with a
//!   FIFO reply queue (ordering + fault containment); these two
//!   threads are also where windows run — no thread exists only to
//!   run them,
//! * [`server`] — the accept loop and the one window runner around one
//!   shared [`Dispatch`](anyseq_engine::Dispatch) (one result cache,
//!   one engine metrics registry for the whole daemon; the `STATS` verb
//!   returns the Prometheus exposition),
//! * [`client`] — the pipelining blocking client the tests, bench, and
//!   `anyseq serve` round-trip example use.
//!
//! ```
//! use anyseq_serve::{ReqKind, SchemeSpec, Server, ServeClient, ServeConfig, SystemClock};
//! use anyseq_serve::proto::Results;
//! use std::sync::Arc;
//!
//! let sock = std::env::temp_dir().join(format!("anyseq-serve-doc-{}.sock", std::process::id()));
//! let server = Server::start(&sock, ServeConfig::default(), Arc::new(SystemClock::new())).unwrap();
//! let mut client = ServeClient::connect(&sock).unwrap();
//! let spec = SchemeSpec::global_linear(2, -1, -1);
//! let results = client
//!     .roundtrip(ReqKind::Score, spec, vec![(vec![0, 1, 2, 3], vec![0, 1, 3, 3])])
//!     .unwrap()
//!     .unwrap();
//! assert_eq!(results, Results::Scores(vec![5]));
//! server.shutdown();
//! ```

#![deny(missing_docs)]

pub mod batcher;
pub mod client;
pub mod clock;
pub mod proto;
pub mod server;
mod session;

pub use batcher::{MicroBatcher, SubmitError, WindowCfg, QUEUE_BYTES_GAUGE, QUEUE_DEPTH_GAUGE};
pub use client::{ServeClient, ServerReply};
pub use clock::{Clock, FakeClock, SystemClock};
pub use proto::{
    mint_request_id, CodePair, ErrCode, ErrorFrame, ProtoError, Request, Response, Results,
};
pub use server::{
    ServeConfig, Server, ServerHandle, SERVE_BATCHES_TOTAL, SERVE_BATCH_PAIRS_HIST,
    SERVE_BATCH_PAIRS_TOTAL, SERVE_MALFORMED_TOTAL, SERVE_REJECTED_TOTAL, SERVE_REQUESTS_TOTAL,
    SERVE_REQUEST_US_HIST, SERVE_REQ_P50_US, SERVE_REQ_P95_US, SERVE_REQ_P99_US, SERVE_SLOW_TOTAL,
    SERVE_WINDOW_OCCUPANCY,
};

// Re-exported so serve users don't need a direct engine dependency for
// the request vocabulary, nor an obs dependency for the request
// records the slow log / flight recorder accessors return.
pub use anyseq_engine::{GapSpec, KindSpec, ReqKind, SchemeSpec};
pub use anyseq_obs::RequestRecord;
