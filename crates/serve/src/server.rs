//! The daemon: the unix-socket accept loop, and the one function that
//! runs a window.
//!
//! [`Server::start`] binds the socket and spawns the accept loop, which
//! gives each connection a detached session: a reader and a writer
//! thread (the private `session` module). No thread exists just to run
//! windows. A window of the [`MicroBatcher`] runs on a session thread
//! that already has a stake in it, through `run_window`: one zero-copy
//! [`BatchView`] over every coalesced request's codes, one run through
//! the daemon's one [`Dispatch`] (one engine registry, one
//! [`ResultCache`](anyseq_engine::ResultCache), one metrics registry
//! for the whole daemon), and the results split back per request in
//! admission order. Two rules pick the thread:
//!
//! * a **reader** whose admission finds its window flushable runs the
//!   window before it queues the pending reply;
//! * a **writer** that reaches a pending reply whose window is still
//!   open waits for the window's trigger and runs it, then receives
//!   the reply.
//!
//! Every open window holds a request whose writer will wait on it with
//! the window's own deadline as its timeout, so a deadline flush needs
//! no thread of its own while every reader is parked in a read. The
//! reader rule keeps a client that stops reading from holding the
//! shared queue: its writer blocks in `write`, but its reader still
//! runs the windows it fills. Windows of different connections run
//! concurrently, each with the `ServeConfig::threads` engine workers,
//! so two windows of more than one scheduler unit each can ask for
//! more threads than there are cores; and the engines' counters are
//! drained per run, so one
//! window's batch stats may include a concurrent neighbour's counts
//! (the daemon totals stay exact).
//!
//! Serving metrics live in their own registry (names below, all
//! pre-seeded so a scrape never misses a key); the `STATS` verb
//! returns its Prometheus exposition concatenated with the engine
//! registry's (stage histograms, cache gauges) when observability is
//! on.

use crate::batcher::{Batch, MicroBatcher, WindowCfg};
use crate::clock::Clock;
use crate::proto::{ErrCode, Results, MAX_FRAME_BYTES};
use crate::session::run_session;
use anyseq_engine::{
    cell_share_ns, BatchCfg, BatchScheduler, Dispatch, DispatchPolicy, EngineError, ReqKind,
};
use anyseq_obs::{
    flight_trace, labels, prometheus_text, FlightRecorder, MetricsRegistry, RequestRecord, SlowLog,
    Stage,
};
use anyseq_seq::{BatchView, PairRef};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Counter: requests received (admitted or not).
pub const SERVE_REQUESTS_TOTAL: &str = "anyseq_serve_requests_total";
/// Counter: requests refused by admission control.
pub const SERVE_REJECTED_TOTAL: &str = "anyseq_serve_rejected_total";
/// Counter: frames that failed to decode (answered with a typed error).
pub const SERVE_MALFORMED_TOTAL: &str = "anyseq_serve_malformed_total";
/// Counter: engine batches formed by the micro-batcher.
pub const SERVE_BATCHES_TOTAL: &str = "anyseq_serve_batches_total";
/// Counter: pairs dispatched across all batches.
pub const SERVE_BATCH_PAIRS_TOTAL: &str = "anyseq_serve_batch_pairs_total";
/// Histogram: per-batch pair counts (the occupancy distribution).
pub const SERVE_BATCH_PAIRS_HIST: &str = "anyseq_serve_batch_pairs";
/// Gauge: mean pairs per batch so far — the coalescing figure of
/// merit, derived from [`SERVE_BATCH_PAIRS_HIST`] on every `STATS`
/// render. One-in-flight clients of 16-pair requests keep it at 16;
/// a burst held in one window lifts it.
pub const SERVE_WINDOW_OCCUPANCY: &str = "anyseq_serve_window_occupancy";
/// Counter: completed requests slower than the `--slow-ms` threshold.
pub const SERVE_SLOW_TOTAL: &str = "anyseq_serve_slow_total";
/// Histogram: end-to-end request latency in µs, labelled
/// `{kind, scheme, verb}` (log₂ buckets; merge across labels for
/// aggregate quantiles).
pub const SERVE_REQUEST_US_HIST: &str = "anyseq_serve_request_us";
/// Gauge: p50 request latency in µs, labelled `{verb}`; refreshed from
/// the merged latency histogram on every `STATS` render.
pub const SERVE_REQ_P50_US: &str = "anyseq_serve_req_p50_us";
/// Gauge: p95 request latency in µs, labelled `{verb}`.
pub const SERVE_REQ_P95_US: &str = "anyseq_serve_req_p95_us";
/// Gauge: p99 request latency in µs, labelled `{verb}`.
pub const SERVE_REQ_P99_US: &str = "anyseq_serve_req_p99_us";

/// The two request verbs as exposition label values.
pub(crate) const VERBS: [&str; 2] = ["score", "align"];

pub(crate) fn verb_name(mode: ReqKind) -> &'static str {
    match mode {
        ReqKind::Score => "score",
        ReqKind::Align => "align",
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Micro-batching window (flush triggers + queue budget).
    pub window: WindowCfg,
    /// Engine worker threads per window; 0 means all available cores.
    pub threads: usize,
    /// Dispatch policy for the shared engine. The default enables
    /// observability (the `STATS` verb is half the point of a daemon)
    /// and a 32 MiB result cache shared across all connections.
    pub policy: DispatchPolicy,
    /// Per-frame payload cap for client connections.
    pub max_frame_bytes: usize,
    /// Slow-request threshold in milliseconds (`--slow-ms`): completed
    /// requests slower than this end to end enter the slow log and
    /// bump [`SERVE_SLOW_TOTAL`].
    pub slow_ms: u64,
    /// Request-scoped tracing (records, latency histograms, slow log,
    /// flight recorder). On by default; off, requests are still
    /// served and `HEALTH` says `"request_obs":false`.
    pub request_obs: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            window: WindowCfg::default(),
            threads: 0,
            policy: DispatchPolicy::auto().observe(true).cache_mb(32),
            max_frame_bytes: MAX_FRAME_BYTES,
            slow_ms: 100,
            request_obs: true,
        }
    }
}

/// Completed requests the flight recorder retains.
const FLIGHT_REQUESTS: usize = 256;
/// Dispatched batches (with engine spans) the flight recorder retains.
const FLIGHT_BATCHES: usize = 64;

/// Request-tracing sinks, present iff `ServeConfig::request_obs`.
pub(crate) struct RequestObs {
    /// The always-on ring of recent requests + batches.
    pub flight: FlightRecorder,
    /// The bounded over-threshold request log.
    pub slow: SlowLog,
}

/// State shared by the accept loop and every session.
pub(crate) struct Shared {
    /// The micro-batching queue sessions submit into.
    pub batcher: MicroBatcher,
    /// The one engine registry (with its cache and metrics registry)
    /// every batch runs through.
    pub dispatch: Dispatch,
    /// The scheduler every window runs with.
    pub scheduler: BatchScheduler,
    /// The serving-layer metrics registry.
    pub metrics: Arc<MetricsRegistry>,
    /// Per-frame payload cap.
    pub max_frame: usize,
    /// The daemon clock — every request-lifecycle stamp reads it, so a
    /// fake clock makes the whole decomposition deterministic.
    pub clock: Arc<dyn Clock>,
    /// Request-tracing sinks; `None` disables per-request stamps,
    /// histograms, slow log, and flight recorder in one check.
    pub reqobs: Option<RequestObs>,
}

impl Shared {
    /// Renders the `STATS` exposition: serving metrics first (with the
    /// histogram-derived gauges refreshed), then the engine registry
    /// (when the dispatch observes).
    pub(crate) fn render_stats(&self) -> String {
        self.refresh_derived_gauges();
        let mut text = prometheus_text(&self.metrics.snapshot());
        if let Some(engine) = self.dispatch.metrics_snapshot() {
            text.push_str(&prometheus_text(&engine));
        }
        text
    }

    /// Recomputes the gauges derived from histograms: the per-verb
    /// p50/p95/p99 from the merged request-latency histogram, and the
    /// window occupancy. They are derived on scrape, not on completion
    /// — the hot path only pays one histogram observe.
    fn refresh_derived_gauges(&self) {
        for verb in VERBS {
            let filter = format!("verb=\"{verb}\"");
            let h = self
                .metrics
                .merged_histogram(SERVE_REQUEST_US_HIST, &filter);
            let l = labels(&[("verb", verb)]);
            for (name, q) in [
                (SERVE_REQ_P50_US, 0.5),
                (SERVE_REQ_P95_US, 0.95),
                (SERVE_REQ_P99_US, 0.99),
            ] {
                self.metrics
                    .set_gauge(name, l.clone(), h.quantile(q) as f64);
            }
        }
        let occupancy = self.window_occupancy();
        self.metrics
            .set_gauge(SERVE_WINDOW_OCCUPANCY, String::new(), occupancy);
    }

    /// Mean pairs per batch so far (0 before the first batch).
    fn window_occupancy(&self) -> f64 {
        let h = self.metrics.merged_histogram(SERVE_BATCH_PAIRS_HIST, "");
        h.mean()
    }

    /// Finalizes a completed request record: latency histogram, slow
    /// log, flight recorder. Called by the session writer after the
    /// reply frame is on the wire (`done_ns` stamped).
    pub(crate) fn complete(&self, rec: Box<RequestRecord>) {
        let Some(obs) = &self.reqobs else { return };
        let scheme = rec.scheme_hex();
        let l = labels(&[("kind", rec.kind), ("scheme", &scheme), ("verb", rec.verb)]);
        self.metrics
            .observe(SERVE_REQUEST_US_HIST, l, rec.total_ns() / 1_000);
        if obs.slow.offer(&rec) {
            self.metrics.inc(SERVE_SLOW_TOTAL, String::new(), 1);
        }
        obs.flight.record_request(*rec);
    }

    /// Renders the `HEALTH` JSON document: queue levels, the sessions
    /// that are mid-send (what an unflushed window is waiting for),
    /// window occupancy, the ISA tier the SIMD lane kernels run on, and
    /// the slow-request log ("SLOWLOG"), newest last.
    pub(crate) fn render_health(&self) -> String {
        use std::fmt::Write as _;
        let occupancy = self.window_occupancy();
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"request_obs\":{},\"queued_bytes\":{},\"queued_requests\":{},\
             \"peak_queued_bytes\":{},\"inbound_sessions\":{},\
             \"window_occupancy\":{occupancy},\"simd.isa\":\"{}\"",
            self.reqobs.is_some(),
            self.batcher.queued_bytes(),
            self.batcher.queued_requests(),
            self.batcher.peak_queued_bytes(),
            self.batcher.inbound_sessions(),
            anyseq_engine::simd_isa(),
        );
        if let Some(obs) = &self.reqobs {
            let _ = write!(
                out,
                ",\"slow_threshold_ms\":{},\"slow_total\":{},\"slowlog\":[",
                obs.slow.threshold_ns() / 1_000_000,
                obs.slow.total(),
            );
            for (i, r) in obs.slow.entries().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"id\":{},\"client_id\":{},\"verb\":\"{}\",\"kind\":\"{}\",\
                     \"scheme\":\"{}\",\"pairs\":{},\"cells\":{},\"batch\":{},\
                     \"total_us\":{},\"decode_us\":{},\"window_wait_us\":{},\
                     \"queue_wait_us\":{},\"dispatch_us\":{},\"kernel_share_us\":{},\
                     \"reply_write_us\":{}}}",
                    r.id,
                    r.client_id,
                    r.verb,
                    r.kind,
                    r.scheme_hex(),
                    r.pairs,
                    r.cells,
                    r.batch_seq,
                    r.total_ns() / 1_000,
                    r.decode_ns() / 1_000,
                    r.window_wait_ns() / 1_000,
                    r.queue_wait_ns() / 1_000,
                    r.dispatch_ns() / 1_000,
                    r.kernel_share_ns / 1_000,
                    r.reply_write_ns() / 1_000,
                );
            }
            out.push(']');
        } else {
            out.push_str(",\"slowlog\":[]");
        }
        out.push_str("}\n");
        out
    }

    /// Renders the `DUMP` reply: the flight recorder as Chrome-trace
    /// JSON (an empty event array when request tracing is off).
    pub(crate) fn render_flight(&self) -> String {
        match &self.reqobs {
            Some(obs) => flight_trace(&obs.flight.snapshot()),
            None => String::from("[\n]\n"),
        }
    }
}

/// The serve daemon (constructor namespace; see [`Server::start`]).
pub struct Server;

impl Server {
    /// Binds `path` (replacing a stale socket file) and starts the
    /// accept thread. The returned handle owns the daemon:
    /// [`ServerHandle::shutdown`] stops it, and dropping the handle
    /// does the same.
    pub fn start(
        path: impl AsRef<Path>,
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<ServerHandle> {
        let dispatch = cfg.policy.standard();
        Server::start_with(path, cfg, clock, dispatch)
    }

    /// [`Server::start`] over a ready [`Dispatch`] (`cfg.policy` is
    /// not consulted) — how the tests serve from a custom registry.
    pub(crate) fn start_with(
        path: impl AsRef<Path>,
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
        dispatch: Dispatch,
    ) -> std::io::Result<ServerHandle> {
        let path = path.as_ref().to_path_buf();
        // A leftover socket file from a dead daemon would fail the
        // bind with AddrInUse; a *live* daemon also holds no lock on
        // the file, so replacing is the conventional unix-socket move.
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;

        let metrics = Arc::new(MetricsRegistry::new());
        // Pre-seed every serving metric so scrapes (and the report
        // checker) always see the full key set, zeros included. A cold
        // scrape therefore exposes stable zero-valued keys for every
        // counter, gauge, and histogram the daemon will ever emit
        // (per-verb latency histograms are seeded with placeholder
        // kind/scheme labels — real traffic adds its own series).
        for name in [
            SERVE_REQUESTS_TOTAL,
            SERVE_REJECTED_TOTAL,
            SERVE_MALFORMED_TOTAL,
            SERVE_BATCHES_TOTAL,
            SERVE_BATCH_PAIRS_TOTAL,
            SERVE_SLOW_TOTAL,
        ] {
            metrics.inc(name, String::new(), 0);
        }
        metrics.set_gauge(SERVE_WINDOW_OCCUPANCY, String::new(), 0.0);
        metrics.add_gauge(crate::batcher::QUEUE_BYTES_GAUGE, String::new(), 0.0);
        metrics.add_gauge(crate::batcher::QUEUE_DEPTH_GAUGE, String::new(), 0.0);
        metrics.ensure_histogram(SERVE_BATCH_PAIRS_HIST, String::new());
        for verb in VERBS {
            metrics.ensure_histogram(
                SERVE_REQUEST_US_HIST,
                labels(&[("kind", "-"), ("scheme", "-"), ("verb", verb)]),
            );
            let l = labels(&[("verb", verb)]);
            for name in [SERVE_REQ_P50_US, SERVE_REQ_P95_US, SERVE_REQ_P99_US] {
                metrics.set_gauge(name, l.clone(), 0.0);
            }
        }

        let threads = if cfg.threads == 0 {
            BatchCfg::default()
        } else {
            BatchCfg::threads(cfg.threads)
        };
        let reqobs = cfg.request_obs.then(|| RequestObs {
            flight: FlightRecorder::new(FLIGHT_REQUESTS, FLIGHT_BATCHES),
            slow: SlowLog::new(cfg.slow_ms.saturating_mul(1_000_000), 64),
        });
        let shared = Arc::new(Shared {
            batcher: MicroBatcher::new(cfg.window, Arc::clone(&clock))
                .with_metrics(Arc::clone(&metrics)),
            dispatch,
            scheduler: BatchScheduler::new(threads),
            metrics,
            max_frame: cfg.max_frame_bytes,
            clock,
            reqobs,
        });
        // The engine registry gets the same cold-scrape treatment for
        // the sharded-execution total: the key must exist before the
        // first chromosome-scale pair ever arrives, so dashboards and
        // the report checker see a stable key set from scrape one.
        if let Some(reg) = shared.dispatch.metrics() {
            reg.inc("anyseq_batch_shards_total", String::new(), 0);
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(listener, &shared, &shutdown))
        };
        Ok(ServerHandle {
            path,
            shared,
            shutdown,
            accept: Some(accept),
        })
    }
}

fn accept_loop(listener: UnixListener, shared: &Arc<Shared>, shutdown: &AtomicBool) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // Sessions are detached: they end when their client hangs up,
        // and shutdown flushes their admitted work first.
        std::thread::spawn(move || run_session(stream, shared));
    }
}

/// Runs one taken window on the calling session thread: coalesced
/// requests → one engine run → per-request result slices, in admission
/// order. With request tracing on, it also stamps each request's
/// dispatch interval, apportions the batch's kernel time by cell
/// share, and files the batch (with its engine spans) in the flight
/// recorder.
pub(crate) fn run_window(shared: &Shared, batch: Batch) {
    let pair_count = batch.pair_count() as u64;
    let t_start = shared.clock.now_ns();
    // A refused batch (e.g. a pair over a backend's unit bound) answers
    // its own requests with the refusal, a panicking one with an
    // internal error; the session and every other window carry on.
    let outcome = catch_unwind(AssertUnwindSafe(|| run_batch(shared, &batch)));
    let failed = |code, message| (Err((code, message)), 0, Vec::new());
    let (results, kernel_ns, spans) = match outcome {
        Ok(Ok((results, kernel_ns, spans))) => (Ok(results), kernel_ns, spans),
        Ok(Err(refusal)) => failed(ErrCode::Unsupported, refusal.to_string()),
        Err(panic) => {
            let what = (panic.downcast_ref::<&str>().copied())
                .or(panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            failed(ErrCode::Internal, format!("the batch panicked: {what}"))
        }
    };
    let t_end = shared.clock.now_ns();
    let batch_seq = shared.reqobs.as_ref().map_or(0, |obs| {
        let cells: u64 = batch
            .requests
            .iter()
            .filter_map(|r| r.rec.as_ref().map(|rec| rec.cells))
            .sum();
        obs.flight
            .record_batch(verb_name(batch.mode), t_start, pair_count, cells, spans)
    });
    // Count the batch *before* handing out its results: a client that
    // scrapes STATS right after its last reply must already see this
    // batch in the counters and the occupancy gauge.
    shared.metrics.inc(SERVE_BATCHES_TOTAL, String::new(), 1);
    shared
        .metrics
        .inc(SERVE_BATCH_PAIRS_TOTAL, String::new(), pair_count);
    shared
        .metrics
        .observe(SERVE_BATCH_PAIRS_HIST, String::new(), pair_count);
    distribute(batch, results, t_start, t_end, kernel_ns, batch_seq);
}

fn run_batch(
    shared: &Shared,
    batch: &Batch,
) -> Result<(Results, u64, Vec<anyseq_obs::Span>), EngineError> {
    // One borrowed view over every request's codes — the engine sees a
    // single coalesced batch; no sequence bytes are copied here.
    let refs: Vec<PairRef<'_>> = batch
        .requests
        .iter()
        .flat_map(|r| r.pairs.iter().map(|(q, s)| PairRef::new(q, s)))
        .collect();
    let view = BatchView::from_refs(refs);
    Ok(match batch.mode {
        ReqKind::Score => {
            let mut run = shared
                .scheduler
                .try_score_batch(&shared.dispatch, &batch.spec, &view)?;
            let kernel_ns = run.stats.stage_ns(Stage::Kernel);
            let spans = std::mem::take(&mut run.stats.spans);
            (Results::Scores(run.results), kernel_ns, spans)
        }
        ReqKind::Align => {
            let mut run = shared
                .scheduler
                .try_align_batch(&shared.dispatch, &batch.spec, &view)?;
            let kernel_ns = run.stats.stage_ns(Stage::Kernel);
            let spans = std::mem::take(&mut run.stats.spans);
            (Results::Alignments(run.results), kernel_ns, spans)
        }
    })
}

fn distribute(
    batch: Batch,
    results: Result<Results, (ErrCode, String)>,
    t_start: u64,
    t_end: u64,
    kernel_ns: u64,
    batch_seq: u64,
) {
    let batch_cells: u64 = batch
        .requests
        .iter()
        .filter_map(|r| r.rec.as_ref().map(|rec| rec.cells))
        .sum();
    let mut offset = 0;
    for req in batch.requests {
        let n = req.pairs.len();
        let chunk = match &results {
            Ok(Results::Scores(v)) => Ok(Results::Scores(v[offset..offset + n].to_vec())),
            Ok(Results::Alignments(v)) => Ok(Results::Alignments(v[offset..offset + n].to_vec())),
            Err(refusal) => Err(refusal.clone()),
        };
        offset += n;
        let mut rec = req.rec;
        if let Some(rec) = &mut rec {
            rec.dispatch_start_ns = t_start;
            rec.dispatch_end_ns = t_end;
            rec.kernel_share_ns = cell_share_ns(kernel_ns, rec.cells, batch_cells);
            rec.batch_seq = batch_seq;
        }
        // A disconnected client dropped its receiver; everyone else's
        // results are unaffected.
        let _ = req.tx.send((chunk, rec));
    }
}

/// Owns the running daemon's threads and socket path.
pub struct ServerHandle {
    path: PathBuf,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The socket path clients connect to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sequence bytes currently queued in the batcher.
    pub fn queued_bytes(&self) -> u64 {
        self.shared.batcher.queued_bytes()
    }

    /// High-water mark of queued bytes (bounded by the queue budget).
    pub fn peak_queued_bytes(&self) -> u64 {
        self.shared.batcher.peak_queued_bytes()
    }

    /// Sessions that are mid-send: a frame of theirs has started
    /// arriving and is not handled yet. While this is non-zero, open
    /// windows wait (up to `max_delay_ns`) for them.
    pub fn inbound_sessions(&self) -> u64 {
        self.shared.batcher.inbound_sessions()
    }

    /// The rendered `STATS` exposition (same text a client scrape gets).
    pub fn stats_text(&self) -> String {
        self.shared.render_stats()
    }

    /// The rendered `HEALTH` JSON (same text a client probe gets).
    pub fn health_text(&self) -> String {
        self.shared.render_health()
    }

    /// The rendered `DUMP` Chrome trace (same text a client gets).
    pub fn flight_trace_text(&self) -> String {
        self.shared.render_flight()
    }

    /// The slow-request log entries, oldest first (empty when request
    /// tracing is off).
    pub fn slow_log(&self) -> Vec<RequestRecord> {
        self.shared
            .reqobs
            .as_ref()
            .map_or_else(Vec::new, |obs| obs.slow.entries())
    }

    /// The flight recorder's completed-request ring, oldest first
    /// (empty when request tracing is off).
    pub fn flight_requests(&self) -> Vec<RequestRecord> {
        self.shared
            .reqobs
            .as_ref()
            .map_or_else(Vec::new, |obs| obs.flight.snapshot().requests)
    }

    /// Blocks until the accept loop exits — i.e. forever, until
    /// another thread (or a signal handler) shuts the process down.
    /// This is what the CLI daemon parks on.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Readies every open window for the session threads waiting on
    /// it, stops the accept thread, and removes the socket file. Idle
    /// connected clients keep their sessions until they hang up;
    /// everything admitted before shutdown is answered.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.batcher.close();
        // The accept loop only re-checks its flag per connection; poke
        // it with a throwaway connect so it wakes and exits.
        let _ = UnixStream::connect(&self.path);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ServeClient, ServerReply};
    use crate::clock::SystemClock;
    use anyseq_core::{Alignment, Score};
    use anyseq_engine::{
        BackendId, Caps, Engine, Policy, ScalarEngine, SchemeSpec, WavefrontEngine,
    };
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Mutex;
    use std::time::Duration;

    /// A pair over the wavefront's unit bound used to panic the thread
    /// running every window and hang every client; now the window's
    /// requests get a typed refusal and the daemon keeps serving.
    #[test]
    fn a_refused_batch_answers_an_error_and_the_daemon_lives() {
        let dispatch = Dispatch::standard(Policy::Fixed(BackendId::Wavefront)).with_engine(
            BackendId::Wavefront,
            Box::new(WavefrontEngine::default().with_max_unit_cells(10_000)),
        );
        let sock = std::env::temp_dir().join(format!("anyseq-refusal-{}.sock", std::process::id()));
        let clock = Arc::new(SystemClock::new());
        let server = Server::start_with(&sock, ServeConfig::default(), clock, dispatch).unwrap();
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);
        let square = |n: usize| vec![(vec![0u8; n], vec![1u8; n])];

        let mut client = ServeClient::connect(&sock).unwrap();
        let id = client.submit(ReqKind::Score, spec, square(300)).unwrap();
        match client.recv().unwrap() {
            ServerReply::Error(frame) => {
                assert_eq!((frame.id, frame.code), (id, ErrCode::Unsupported));
                assert!(frame.message.contains("max_unit_cells"), "{frame:?}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        // Same connection, next window: a pair under the bound scores.
        let ok = client.roundtrip(ReqKind::Score, spec, square(50)).unwrap();
        assert_eq!(ok, Ok(Results::Scores(vec![-50])));
        server.shutdown();
    }

    /// The scalar reference, except that it panics on a pair whose
    /// query starts with the marker code.
    struct PanicsOnMark;

    const MARK: u8 = 3;

    impl Engine for PanicsOnMark {
        fn caps(&self) -> Caps {
            Caps {
                name: "panics-on-mark",
                ..ScalarEngine.caps()
            }
        }

        fn score_batch(
            &self,
            spec: &SchemeSpec,
            pairs: &[PairRef<'_>],
            threads: usize,
        ) -> Result<Vec<Score>, EngineError> {
            assert!(
                !pairs.iter().any(|p| p.q.first() == Some(&MARK)),
                "marked pair"
            );
            ScalarEngine.score_batch(spec, pairs, threads)
        }

        fn align_batch(
            &self,
            spec: &SchemeSpec,
            pairs: &[PairRef<'_>],
            threads: usize,
        ) -> Result<Vec<Alignment>, EngineError> {
            ScalarEngine.align_batch(spec, pairs, threads)
        }
    }

    /// An engine panic used to unwind the thread running every window,
    /// after which nothing was answered. Now the panicking window's request
    /// gets a typed `Internal` error under its own id, and the daemon
    /// keeps serving the same connection, a new one and `STATS`.
    #[test]
    fn a_panicking_batch_answers_internal_and_the_daemon_lives() {
        let dispatch = Dispatch::standard(Policy::Fixed(BackendId::Scalar))
            .with_engine(BackendId::Scalar, Box::new(PanicsOnMark));
        let sock = std::env::temp_dir().join(format!("anyseq-panic-{}.sock", std::process::id()));
        let clock = Arc::new(SystemClock::new());
        let server = Server::start_with(&sock, ServeConfig::default(), clock, dispatch).unwrap();
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let pair = |first: u8| vec![(vec![first, 1, 2], vec![first, 1, 2])];

        let mut client = ServeClient::connect(&sock).unwrap();
        let id = client.submit(ReqKind::Score, spec, pair(MARK)).unwrap();
        match client.recv().unwrap() {
            ServerReply::Error(frame) => {
                assert_eq!((frame.id, frame.code), (id, ErrCode::Internal));
                assert!(frame.message.contains("panicked"), "{frame:?}");
            }
            other => panic!("expected an internal error, got {other:?}"),
        }
        let ok = Ok(Results::Scores(vec![6]));
        assert_eq!(client.roundtrip(ReqKind::Score, spec, pair(0)).unwrap(), ok);
        let mut fresh = ServeClient::connect(&sock).unwrap();
        assert_eq!(fresh.roundtrip(ReqKind::Score, spec, pair(0)).unwrap(), ok);
        let stats = fresh.stats().unwrap();
        assert!(stats.contains(SERVE_BATCHES_TOTAL), "{stats}");
        server.shutdown();
    }

    /// The scalar reference, except that a pair whose query starts with
    /// the marker code signals `entered` and then blocks until
    /// `release` receives (or its sender is dropped).
    struct BlocksOnMark {
        entered: Sender<()>,
        release: Mutex<Receiver<()>>,
    }

    impl Engine for BlocksOnMark {
        fn caps(&self) -> Caps {
            Caps {
                name: "blocks-on-mark",
                ..ScalarEngine.caps()
            }
        }

        fn score_batch(
            &self,
            spec: &SchemeSpec,
            pairs: &[PairRef<'_>],
            threads: usize,
        ) -> Result<Vec<Score>, EngineError> {
            if pairs.iter().any(|p| p.q.first() == Some(&MARK)) {
                let _ = self.entered.send(());
                let _ = self.release.lock().unwrap().recv();
            }
            ScalarEngine.score_batch(spec, pairs, threads)
        }

        fn align_batch(
            &self,
            spec: &SchemeSpec,
            pairs: &[PairRef<'_>],
            threads: usize,
        ) -> Result<Vec<Alignment>, EngineError> {
            ScalarEngine.align_batch(spec, pairs, threads)
        }
    }

    /// Windows of different connections run concurrently: while
    /// connection A's window is stuck in the engine, connection B's
    /// request under another scheme is answered.
    #[test]
    fn a_slow_window_does_not_hold_up_another_connections_window() {
        let (entered, entered_rx) = channel();
        let (release, release_rx) = channel();
        let engine = BlocksOnMark {
            entered,
            release: Mutex::new(release_rx),
        };
        let dispatch = Dispatch::standard(Policy::Fixed(BackendId::Scalar))
            .with_engine(BackendId::Scalar, Box::new(engine));
        let sock = std::env::temp_dir().join(format!("anyseq-slow-{}.sock", std::process::id()));
        let clock = Arc::new(SystemClock::new());
        let server = Server::start_with(&sock, ServeConfig::default(), clock, dispatch).unwrap();
        let pair = |first: u8| vec![(vec![first, 1, 2], vec![first, 1, 2])];

        let mut a = ServeClient::connect(&sock).unwrap();
        let spec_a = SchemeSpec::global_linear(2, -1, -1);
        let id = a.submit(ReqKind::Score, spec_a, pair(MARK)).unwrap();
        let ten_s = Duration::from_secs(10);
        entered_rx
            .recv_timeout(ten_s)
            .expect("A's window never ran");
        let (tx, rx) = channel();
        let b_sock = sock.clone();
        std::thread::spawn(move || {
            let mut b = ServeClient::connect(&b_sock).unwrap();
            let spec_b = SchemeSpec::global_linear(1, -2, -2);
            let _ = tx.send(b.roundtrip(ReqKind::Score, spec_b, pair(0)).unwrap());
        });
        let b_reply = rx.recv_timeout(ten_s);
        // Let A finish before asserting, so a failure cannot leave its
        // window stuck in the engine.
        drop(release);
        let b_reply = b_reply.expect("B was held up behind A's window");
        assert_eq!(b_reply, Ok(Results::Scores(vec![3])));
        let results = Results::Scores(vec![6]);
        assert_eq!(a.recv().unwrap(), ServerReply::Response { id, results });
        server.shutdown();
    }
}
