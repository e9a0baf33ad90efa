//! The five end-to-end workloads: set-up (inputs, oracle, program
//! set-up, one warm-up op) and the fixed-work timed loop.
//!
//! Work is fixed, never time-boxed: every constant below is the op
//! count of a nominal [`NOMINAL_SECONDS`]-second run on the 2-vCPU
//! reference host at the commit that introduced the benchmark, and
//! `--seconds` only scales those counts. A faster program finishes
//! sooner; it never receives different inputs.

use crate::gen::{self, Pool};
use crate::measure::{nproc, timed};
use crate::oracle::{self, Sch};
use crate::rng::Fnv;
use anyseq_core::Alignment;
use anyseq_engine::{
    BatchCfg, BatchRun, BatchScheduler, Dispatch, DispatchPolicy, EngineError, ReqKind,
};
use anyseq_seq::{BatchView, PairRef};
use anyseq_serve::proto::Results;
use anyseq_serve::{ServeClient, ServeConfig, Server, ServerHandle, ServerReply, SystemClock};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

pub const NOMINAL_SECONDS: f64 = 10.0;

const SCORE_BATCH: usize = 8192;
const SCORE_BATCHES: usize = 4;
const SCORE_CALLS: f64 = 400.0;
const ALIGN_BATCH: usize = 4096;
const ALIGN_CALLS: f64 = 250.0;
const DUP_BATCH: usize = 8192;
const DUP_SWEEP_CALLS: usize = 16;
const DUP_SWEEPS: f64 = 32.0;
/// The `--seconds` scale at which `reads_dup` is exactly one sweep.
pub const ONE_DUP_SWEEP: f64 = 1.0 / DUP_SWEEPS;
const DUP_CACHE_MB: usize = 8;
const LONG_LEN: usize = 9_000;
pub const LONG_DIVERGENCE: f64 = 0.02;
const LONG_PAIRS: f64 = 20.0;
pub const SERVE_CONNS_MAX: usize = 2;
pub const SERVE_PAIRS_PER_REQ: usize = 16;
/// Requests a connection keeps in flight: one, a caller that waits for
/// each reply. Deeper pipelines keep both cores busy on the window's
/// pairs, and the run then measures the shared host's spare cycles
/// (README, "Why `serve_mixed` sends one request at a time").
pub const SERVE_DEPTH: usize = 1;
const SERVE_REQS_PER_CONN: f64 = 2816.0;
/// One request in this many is an alignment request.
pub const SERVE_ALIGN_EVERY: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadsScore,
    ReadsAlign,
    ReadsDup,
    LongPair,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ReadsScore,
        Workload::ReadsAlign,
        Workload::ReadsDup,
        Workload::LongPair,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadsScore => "reads_score",
            Workload::ReadsAlign => "reads_align",
            Workload::ReadsDup => "reads_dup",
            Workload::LongPair => "long_pair",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn scaled(nominal: f64, scale: f64) -> usize {
    ((nominal * scale).round() as usize).max(1)
}

pub fn refs<'a>(pool: &'a Pool, idx: impl IntoIterator<Item = usize>) -> Vec<PairRef<'a>> {
    idx.into_iter()
        .map(|i| {
            let (q, s) = pool.pair(i);
            PairRef::new(q, s)
        })
        .collect()
}

/// The timed loop is cut into this many consecutive segments (fewer
/// when there are fewer ops); a rate is the median of the segments'
/// rates, so a burst of interference from the shared host moves a
/// segment or two, not the reported number.
pub const SEGMENTS: usize = 9;

/// One consecutive part of the timed loop: its wall and process-CPU
/// seconds, and the pairs and logical DP cells of its ops that verified.
#[derive(Default, Clone, Copy)]
pub struct Segment {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub pairs: u64,
    pub cells: u64,
}

/// What a timed loop produced. An op is one batch call, one long pair
/// (scored, then aligned) or one request; a mismatch against the
/// oracle, an `Err`, a typed refusal or a missing reply makes it a
/// failed op.
#[derive(Default)]
pub struct Outcome {
    pub lat_s: Vec<f64>,
    pub segments: Vec<Segment>,
    /// The segment being filled; [`Outcome::close_segment`] files it.
    open: Segment,
    /// Pairs and logical DP cells of the ops that verified.
    pub pairs: u64,
    pub cells: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Optional program counters (`BatchStats.counters`, `STATS` keys),
    /// summed over the loop; a key the program stops emitting is
    /// simply absent.
    pub counters: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn op(&mut self, verdict: Result<(), String>, pairs: u64, cells: u64) {
        self.attempted += 1;
        match verdict {
            Ok(()) => {
                self.pairs += pairs;
                self.cells += cells;
                self.open.pairs += pairs;
                self.open.cells += cells;
            }
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
        }
    }

    /// Files the ops booked since the last call as one segment that
    /// took `wall_s` wall and `cpu_s` process-CPU seconds on top of
    /// what [`Outcome::settle`] already charged it.
    pub fn close_segment(&mut self, wall_s: f64, cpu_s: f64) {
        self.open.wall_s += wall_s;
        self.open.cpu_s += cpu_s;
        self.segments.push(std::mem::take(&mut self.open));
    }

    /// Timed wall seconds of the whole loop.
    pub fn wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall_s).sum()
    }

    /// Books one timed engine call: its wall and CPU time, its optional
    /// program counters, and `check`'s verdict on its results. Returns
    /// the verdict and the call's wall seconds.
    fn settle<T>(
        &mut self,
        (run, wall, cpu): (Result<BatchRun<T>, EngineError>, f64, f64),
        check: impl FnOnce(&[T]) -> Result<(), String>,
    ) -> (Result<(), String>, f64) {
        self.open.wall_s += wall;
        self.open.cpu_s += cpu;
        let verdict = run.map_err(|e| e.to_string()).and_then(|run| {
            for (key, &value) in &run.stats.counters {
                if ["cache.", "simd.", "sched."]
                    .iter()
                    .any(|p| key.starts_with(p))
                {
                    *self.counters.entry(key.to_string()).or_default() += value as f64;
                }
            }
            check(&run.results)
        });
        (verdict, wall)
    }
}

/// The process exit code: any failed op turns the run red.
pub fn exit_code(attempted: u64, failed: u64) -> i32 {
    i32::from(failed > 0 || attempted == 0)
}

pub fn check_scores(
    got: &[i32],
    expected: impl ExactSizeIterator<Item = i32>,
) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!("{} scores for {} pairs", got.len(), expected.len()));
    }
    match got.iter().zip(expected).position(|(&g, e)| g != e) {
        Some(k) => Err(format!("pair {k}: score differs from the oracle")),
        None => Ok(()),
    }
}

pub fn check_alignments(
    sch: Sch,
    pool: &Pool,
    idx: &[u32],
    expected: &[i32],
    got: &[Alignment],
) -> Result<(), String> {
    if got.len() != idx.len() {
        return Err(format!("{} alignments for {} pairs", got.len(), idx.len()));
    }
    for (k, (aln, &i)) in got.iter().zip(idx).enumerate() {
        let (q, s) = pool.pair(i as usize);
        oracle::replay(sch, q, s, aln, expected[i as usize])
            .map_err(|e| format!("pair {k}: {e}"))?;
    }
    Ok(())
}

/// In-process batch workloads (`reads_score`, `reads_align`,
/// `reads_dup`, `long_pair`): a list of batches, cycled for `calls`.
pub struct BatchCtx {
    sch: Sch,
    pool: Pool,
    expected: Vec<i32>,
    batches: Vec<Vec<u32>>,
    /// `align[b]`: batch `b` is an alignment call.
    align: Vec<bool>,
    calls: usize,
    /// Consecutive calls that make one op (`long_pair`: score + align).
    calls_per_op: usize,
    /// A fresh dispatch (an empty result cache) every this many calls.
    calls_per_dispatch: usize,
    policy: DispatchPolicy,
    threads: usize,
}

pub struct ServeCtx {
    pool: Pool,
    expected: Vec<i32>,
    streams: Vec<Vec<u32>>,
    daemon: Daemon,
}

pub enum Prepared {
    Batch(BatchCtx),
    Serve(ServeCtx),
}

pub struct Setup {
    pub prepared: Prepared,
    /// Engine threads the program runs the workload on.
    pub threads: usize,
    /// FNV-1a of everything the workload will feed the program.
    pub input_hash: u64,
    /// Generator-side facts worth printing (measured duplicate shares).
    pub facts: Vec<(&'static str, f64)>,
}

/// Generates the inputs, computes the oracle, sets the program up and
/// runs one untimed, verified warm-up op.
pub fn setup(workload: Workload, seed: u64, scale: f64, out_dir: &std::path::Path) -> Setup {
    let mut hash = Fnv::new();
    let mut facts = Vec::new();
    let cores = nproc();
    let chunks = |n: usize, batch: usize| -> Vec<Vec<u32>> {
        (0..n / batch)
            .map(|b| (b * batch..(b + 1) * batch).map(|i| i as u32).collect())
            .collect()
    };
    let ctx = match workload {
        Workload::ReadsScore | Workload::ReadsAlign => {
            let align = workload == Workload::ReadsAlign;
            let pool = gen::read_pool(seed, SCORE_BATCH * SCORE_BATCHES);
            let batches = chunks(pool.len(), if align { ALIGN_BATCH } else { SCORE_BATCH });
            let calls = scaled(if align { ALIGN_CALLS } else { SCORE_CALLS }, scale);
            BatchCtx {
                sch: Sch::GlobalAffine,
                expected: oracle::scores(Sch::GlobalAffine, &pool, cores),
                pool,
                align: vec![align; batches.len()],
                batches,
                calls,
                calls_per_op: 1,
                calls_per_dispatch: calls,
                policy: DispatchPolicy::auto(),
                threads: cores,
            }
        }
        Workload::ReadsDup => {
            let batches = gen::dup_schedule(seed, DUP_SWEEP_CALLS, DUP_BATCH);
            let (first, in_batch, repeat) = gen::dup_shares(&batches);
            facts.extend([
                ("dup.first_seen_share", first),
                ("dup.in_batch_share", in_batch),
                ("dup.repeat_share", repeat),
            ]);
            let pool = gen::read_pool(seed, DUP_SWEEP_CALLS * DUP_BATCH / 2);
            BatchCtx {
                sch: Sch::GlobalLinear,
                expected: oracle::scores(Sch::GlobalLinear, &pool, cores),
                pool,
                align: vec![false; batches.len()],
                batches,
                calls: scaled(DUP_SWEEPS, scale) * DUP_SWEEP_CALLS,
                calls_per_op: 1,
                calls_per_dispatch: DUP_SWEEP_CALLS,
                policy: DispatchPolicy::auto().cache_mb(DUP_CACHE_MB),
                threads: cores,
            }
        }
        Workload::LongPair => {
            let n = scaled(LONG_PAIRS, scale);
            let pool = gen::long_pool(seed, n, LONG_LEN, LONG_DIVERGENCE);
            BatchCtx {
                sch: Sch::GlobalAffine,
                expected: oracle::scores(Sch::GlobalAffine, &pool, cores),
                pool,
                // Each pair is scored, then aligned; the two calls are
                // one op, so op latencies have one mode, not two.
                batches: (0..2 * n).map(|call| vec![(call / 2) as u32]).collect(),
                align: (0..2 * n).map(|call| call % 2 == 1).collect(),
                calls: 2 * n,
                calls_per_op: 2,
                calls_per_dispatch: 2 * n,
                policy: DispatchPolicy::auto(),
                // One thread: a dependent wavefront on shared vCPUs
                // stalls whenever a sibling is descheduled (README).
                threads: 1,
            }
        }
        Workload::ServeMixed => {
            let conns = cores.min(SERVE_CONNS_MAX);
            let per_conn = scaled(SERVE_REQS_PER_CONN, scale) * SERVE_PAIRS_PER_REQ;
            let (streams, fresh) = gen::serve_schedule(seed, conns, per_conn);
            facts.push(("serve.resend_share", gen::resend_share(&streams)));
            // The last request's worth of pairs is warm-up content the
            // streams never send.
            let pool = gen::contained_pool(seed, fresh + SERVE_PAIRS_PER_REQ);
            let expected = oracle::scores(Sch::SemiGlobalAffine, &pool, cores);
            pool.hash_into(&mut hash);
            gen::hash_schedule(&streams, &mut hash);
            let ctx = ServeCtx {
                pool,
                expected,
                streams,
                daemon: Daemon::start(out_dir, conns),
            };
            ctx.warm_up(fresh);
            return Setup {
                prepared: Prepared::Serve(ctx),
                // `ServeConfig::default()`: all cores.
                threads: cores,
                input_hash: hash.0,
                facts,
            };
        }
    };
    ctx.pool.hash_into(&mut hash);
    gen::hash_schedule(&ctx.batches, &mut hash);
    let (warm_up, _) = ctx.call(0, &ctx.policy.standard(), &mut Outcome::default());
    warm_up.expect("warm-up op failed");
    Setup {
        threads: ctx.threads,
        prepared: Prepared::Batch(ctx),
        input_hash: hash.0,
        facts,
    }
}

pub fn run(prepared: Prepared) -> Outcome {
    match prepared {
        Prepared::Batch(ctx) => ctx.run(),
        Prepared::Serve(ctx) => ctx.run(),
    }
}

impl BatchCtx {
    /// One timed, verified call of batch `b`: its verdict and wall.
    fn call(&self, b: usize, dispatch: &Dispatch, out: &mut Outcome) -> (Result<(), String>, f64) {
        let idx = &self.batches[b];
        let view = BatchView::from_refs(refs(&self.pool, idx.iter().map(|&i| i as usize)));
        let scheduler = BatchScheduler::new(BatchCfg::threads(self.threads));
        let spec = self.sch.spec();
        if self.align[b] {
            let run = timed(|| scheduler.try_align_batch(dispatch, &spec, &view));
            out.settle(run, |got| {
                check_alignments(self.sch, &self.pool, idx, &self.expected, got)
            })
        } else {
            let run = timed(|| scheduler.try_score_batch(dispatch, &spec, &view));
            out.settle(run, |got| {
                check_scores(got, idx.iter().map(|&i| self.expected[i as usize]))
            })
        }
    }

    /// Ops per segment: whole dispatch lifetimes (`reads_dup` sweeps,
    /// each from an empty cache), so segments do equal kinds of work.
    fn segment_ops(&self) -> usize {
        let ops = self.calls / self.calls_per_op;
        let unit = if self.calls_per_dispatch < self.calls {
            self.calls_per_dispatch / self.calls_per_op
        } else {
            1
        };
        (ops / unit).div_ceil(SEGMENTS).max(1) * unit
    }

    fn run(self) -> Outcome {
        let mut out = Outcome::default();
        let mut dispatch = self.policy.standard();
        let (ops, segment_ops) = (self.calls / self.calls_per_op, self.segment_ops());
        for op in 0..ops {
            let (mut verdict, mut wall, mut pairs, mut cells) = (Ok(()), 0.0, 0, 0);
            for call in op * self.calls_per_op..(op + 1) * self.calls_per_op {
                if call > 0 && call % self.calls_per_dispatch == 0 {
                    dispatch = self.policy.standard();
                }
                let b = call % self.batches.len();
                let (call_verdict, call_wall) = self.call(b, &dispatch, &mut out);
                verdict = verdict.and(call_verdict);
                wall += call_wall;
                pairs += self.batches[b].len() as u64;
                cells += self.batches[b]
                    .iter()
                    .map(|&i| self.pool.cells(i as usize))
                    .sum::<u64>();
            }
            out.lat_s.push(wall);
            out.op(verdict, pairs, cells);
            // Calls run back to back on this thread, verification
            // between them untimed: a segment's wall is the sum of its
            // calls' walls, which `settle` has already charged.
            if (op + 1) % segment_ops == 0 || op + 1 == ops {
                out.close_segment(0.0, 0.0);
            }
        }
        out
    }
}

/// An in-process daemon in its default configuration, on a socket
/// inside the output directory, with its connected clients.
pub struct Daemon {
    server: ServerHandle,
    pub clients: Vec<ServeClient>,
    socket: PathBuf,
}

impl Daemon {
    pub fn start(out_dir: &std::path::Path, conns: usize) -> Daemon {
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let nth = STARTED.fetch_add(1, Ordering::Relaxed);
        let socket = out_dir.join(format!("serve-{}-{nth}.sock", std::process::id()));
        let server = Server::start(
            &socket,
            ServeConfig::default(),
            Arc::new(SystemClock::new()),
        )
        .unwrap_or_else(|e| panic!("daemon failed to start on {}: {e}", socket.display()));
        let clients = (0..conns)
            .map(|_| ServeClient::connect(&socket).expect("connect to the daemon"))
            .collect();
        Daemon {
            server,
            clients,
            socket,
        }
    }

    /// The optional `STATS` counters, scraped over the first connection.
    pub fn counters(&mut self) -> BTreeMap<String, f64> {
        let mut counters = BTreeMap::new();
        if let Ok(stats) = self.clients[0].stats() {
            for (short, key) in STATS_KEYS {
                let value = stats
                    .lines()
                    .find_map(|line| line.strip_prefix(key)?.trim().parse::<f64>().ok());
                if let Some(value) = value {
                    counters.insert(short.to_string(), value);
                }
            }
        }
        counters
    }

    pub fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
        let _ = std::fs::remove_file(self.socket);
    }
}

/// One reply slot per request: `None` is a reply that never came.
pub type Replies = Vec<Option<ServerReply>>;

/// What one connection's closed loop saw: per-request latencies in
/// seconds, and the replies.
pub type Exchange = (Vec<f64>, Replies);

/// The requests of one segment with its wall and process-CPU seconds.
pub type TimedRange = (Range<usize>, f64, f64);

pub fn is_align(request: usize) -> bool {
    request % SERVE_ALIGN_EVERY == SERVE_ALIGN_EVERY - 1
}

/// What one kind of serve traffic sends and expects back.
pub struct Traffic<'a> {
    pub pool: &'a Pool,
    pub expected: &'a [i32],
    pub sch: Sch,
    pub pairs_per_req: usize,
    /// Whether request `r` of a connection is an alignment request.
    pub align: fn(usize) -> bool,
}

impl Traffic<'_> {
    /// The requests `stream` holds.
    pub fn requests(&self, stream: &[u32]) -> Range<usize> {
        0..stream.len() / self.pairs_per_req
    }

    /// One connection's closed loop over `requests` of its stream: keep
    /// `depth` requests in flight, read replies in order, time each
    /// request from submit to reply. Replies are kept and verified
    /// after the timed section.
    pub fn closed_loop(
        &self,
        client: &mut ServeClient,
        stream: &[u32],
        requests: Range<usize>,
        depth: usize,
    ) -> Exchange {
        let (mut next, end, requests) = (requests.start, requests.end, requests.len());
        let mut latency = Vec::with_capacity(requests);
        let mut replies: Replies = Vec::with_capacity(requests);
        let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(depth);
        let mut alive = true;
        while replies.len() < requests {
            while alive && next < end && in_flight.len() < depth {
                let pairs = stream[next * self.pairs_per_req..(next + 1) * self.pairs_per_req]
                    .iter()
                    .map(|&i| {
                        let (q, s) = self.pool.pair(i as usize);
                        (q.to_vec(), s.to_vec())
                    })
                    .collect();
                let mode = if (self.align)(next) {
                    ReqKind::Align
                } else {
                    ReqKind::Score
                };
                in_flight.push_back(Instant::now());
                if client.submit(mode, self.sch.spec(), pairs).is_err() {
                    alive = false;
                    in_flight.pop_back();
                } else {
                    next += 1;
                }
            }
            if in_flight.is_empty() {
                break;
            }
            let Ok(reply) = client.recv() else { break };
            let sent = in_flight.pop_front().expect("a reply without a request");
            latency.push(sent.elapsed().as_secs_f64());
            replies.push(Some(reply));
        }
        // A dead connection owes every outstanding request a reply.
        replies.resize_with(requests, || None);
        (latency, replies)
    }

    /// Verifies one connection's replies to `requests` (all of the
    /// stream's, or the `first..` that `replies` answer) against the oracle.
    pub fn check(
        &self,
        stream: &[u32],
        first: usize,
        replies: &[Option<ServerReply>],
        out: &mut Outcome,
    ) {
        for (r, reply) in (first..).zip(replies) {
            let idx = &stream[r * self.pairs_per_req..(r + 1) * self.pairs_per_req];
            let align = (self.align)(r);
            let verdict = match reply {
                None => Err("no reply".to_string()),
                Some(ServerReply::Error(frame)) => {
                    Err(format!("refused: {:?} {}", frame.code, frame.message))
                }
                Some(ServerReply::Stats(_)) => Err("a stats frame answered a request".to_string()),
                // Ids count up from 1 per connection, in submission order.
                Some(ServerReply::Response { id, .. }) if *id != r as u64 + 1 => {
                    Err(format!("reply {id} where {} was due", r + 1))
                }
                Some(ServerReply::Response { results, .. }) => match results {
                    Results::Scores(got) if !align => {
                        check_scores(got, idx.iter().map(|&i| self.expected[i as usize]))
                    }
                    Results::Alignments(got) if align => {
                        check_alignments(self.sch, self.pool, idx, self.expected, got)
                    }
                    _ => Err("reply of the wrong verb".to_string()),
                },
            };
            let cells = idx.iter().map(|&i| self.pool.cells(i as usize)).sum();
            out.op(verdict, idx.len() as u64, cells);
        }
    }
}

/// Optional `STATS` keys, by the short name they are reported under.
const STATS_KEYS: [(&str, &str); 4] = [
    ("serve.window_occupancy", "anyseq_serve_window_occupancy"),
    ("serve.batches", "anyseq_serve_batches_total"),
    ("serve.requests", "anyseq_serve_requests_total"),
    ("serve.rejected", "anyseq_serve_rejected_total"),
];

/// `serve_mixed` traffic over `pool`.
fn mixed_traffic<'a>(pool: &'a Pool, expected: &'a [i32]) -> Traffic<'a> {
    Traffic {
        pool,
        expected,
        sch: Sch::SemiGlobalAffine,
        pairs_per_req: SERVE_PAIRS_PER_REQ,
        align: is_align,
    }
}

impl ServeCtx {
    /// One verified request on a connection of its own, so the timed
    /// connections start with fresh request ids.
    fn warm_up(&self, first_unused: usize) {
        let stream: Vec<u32> = (first_unused..first_unused + SERVE_PAIRS_PER_REQ)
            .map(|i| i as u32)
            .collect();
        let mut client = ServeClient::connect(&self.daemon.socket).expect("connect to the daemon");
        let traffic = mixed_traffic(&self.pool, &self.expected);
        let (_, replies) = traffic.closed_loop(&mut client, &stream, 0..1, 1);
        let mut out = Outcome::default();
        traffic.check(&stream, 0, &replies, &mut out);
        assert_eq!(
            out.failed, 0,
            "warm-up request failed: {:?}",
            out.first_failure
        );
    }

    fn run(self) -> Outcome {
        let ServeCtx {
            pool,
            expected,
            streams,
            mut daemon,
        } = self;
        let traffic = mixed_traffic(&pool, &expected);
        let (results, segments) = run_connections(
            &traffic,
            &mut daemon.clients,
            &streams,
            SERVE_DEPTH,
            SEGMENTS,
        );
        let mut out = Outcome::default();
        for (requests, wall, cpu) in segments {
            for ((_, replies), stream) in results.iter().zip(&streams) {
                traffic.check(stream, requests.start, &replies[requests.clone()], &mut out);
            }
            out.close_segment(wall, cpu);
        }
        out.lat_s = results
            .into_iter()
            .flat_map(|(latency, _)| latency)
            .collect();
        out.counters = daemon.counters();
        daemon.stop();
        out
    }
}

/// Drives every connection's closed loop on a thread of its own. The
/// streams (of equal length) are cut into `segments` consecutive request
/// ranges; all connections start a range together and the next begins
/// when the last reply of this one has arrived. Returns each
/// connection's latencies and replies over its whole stream, and per
/// range the wall and process-CPU seconds from release to last reply.
pub fn run_connections(
    traffic: &Traffic<'_>,
    clients: &mut [ServeClient],
    streams: &[Vec<u32>],
    depth: usize,
    segments: usize,
) -> (Vec<Exchange>, Vec<TimedRange>) {
    let requests = traffic.requests(&streams[0]).len();
    let per_segment = requests.div_ceil(segments).max(1);
    let ranges: Vec<Range<usize>> = (0..requests)
        .step_by(per_segment)
        .map(|first| first..(first + per_segment).min(requests))
        .collect();
    let gate = Barrier::new(clients.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, stream)| {
                let (gate, ranges) = (&gate, &ranges);
                scope.spawn(move || {
                    let (mut latency, mut replies) = (Vec::new(), Vec::new());
                    for range in ranges {
                        gate.wait();
                        let (l, r) = traffic.closed_loop(client, stream, range.clone(), depth);
                        gate.wait();
                        latency.extend(l);
                        replies.extend(r);
                    }
                    (latency, replies)
                })
            })
            .collect();
        let timings = ranges
            .iter()
            .map(|range| {
                gate.wait();
                let ((), wall, cpu) = timed(|| {
                    gate.wait();
                });
                (range.clone(), wall, cpu)
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, timings)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_serve_run(tamper: impl Fn(&mut Replies)) -> Outcome {
        let dir = std::env::temp_dir();
        let mut daemon = Daemon::start(&dir, 1);
        let pool = gen::contained_pool(5, 64);
        let expected = oracle::scores(Sch::SemiGlobalAffine, &pool, 2);
        let stream: Vec<u32> = (0..64).collect();
        let traffic = Traffic {
            pool: &pool,
            expected: &expected,
            sch: Sch::SemiGlobalAffine,
            pairs_per_req: 4,
            align: is_align,
        };
        let (latency, mut replies) = traffic.closed_loop(&mut daemon.clients[0], &stream, 0..16, 3);
        assert_eq!((latency.len(), replies.len()), (16, 16));
        tamper(&mut replies);
        let mut out = Outcome::default();
        traffic.check(&stream, 0, &replies, &mut out);
        daemon.stop();
        out
    }

    #[test]
    fn clean_runs_verify_and_exit_zero() {
        let out = tiny_serve_run(|_| {});
        assert_eq!((out.attempted, out.failed, out.pairs), (16, 0, 64));
        assert_eq!(exit_code(out.attempted, out.failed), 0);
    }

    #[test]
    fn segmented_connections_answer_every_request_in_order() {
        let dir = std::env::temp_dir();
        let mut daemon = Daemon::start(&dir, 2);
        let pool = gen::contained_pool(6, 80);
        let expected = oracle::scores(Sch::SemiGlobalAffine, &pool, 2);
        let streams: Vec<Vec<u32>> = vec![(0..40).collect(), (40..80).collect()];
        let traffic = Traffic {
            pool: &pool,
            expected: &expected,
            sch: Sch::SemiGlobalAffine,
            pairs_per_req: 4,
            align: is_align,
        };
        // 10 requests a connection in 3 segments: 4 + 4 + 2.
        let (results, segments) = run_connections(&traffic, &mut daemon.clients, &streams, 1, 3);
        daemon.stop();
        let ranges: Vec<_> = segments.iter().map(|(r, _, _)| r.clone()).collect();
        assert_eq!(ranges, [0..4, 4..8, 8..10]);
        assert!(segments.iter().all(|&(_, wall, _)| wall > 0.0));
        let mut out = Outcome::default();
        for ((latency, replies), stream) in results.iter().zip(&streams) {
            assert_eq!((latency.len(), replies.len()), (10, 10));
            traffic.check(stream, 0, replies, &mut out);
        }
        assert_eq!((out.attempted, out.failed, out.pairs), (20, 0, 80));
    }

    #[test]
    fn a_wrong_score_is_a_failed_op_and_flips_the_exit_code() {
        let out = tiny_serve_run(|replies| {
            if let Some(ServerReply::Response {
                results: Results::Scores(s),
                ..
            }) = &mut replies[2]
            {
                s[1] += 1;
            }
        });
        assert_eq!((out.attempted, out.failed), (16, 1));
        assert_eq!(exit_code(out.attempted, out.failed), 1);
        assert!(out.first_failure.unwrap().contains("oracle"));
    }

    #[test]
    fn a_dropped_reply_is_a_failed_op_and_flips_the_exit_code() {
        let out = tiny_serve_run(|replies| replies[5] = None);
        assert_eq!((out.attempted, out.failed, out.pairs), (16, 1, 60));
        assert_eq!(exit_code(out.attempted, out.failed), 1);
    }

    #[test]
    fn a_corrupted_alignment_is_a_failed_op() {
        let out = tiny_serve_run(|replies| {
            let align = (0..16).find(|&r| is_align(r)).unwrap();
            if let Some(ServerReply::Response {
                results: Results::Alignments(a),
                ..
            }) = &mut replies[align]
            {
                a[0].ops.pop();
            }
        });
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn batch_workloads_verify_at_small_scale_and_count_fixed_work() {
        let dir = std::env::temp_dir();
        for workload in [Workload::ReadsAlign, Workload::ReadsDup, Workload::LongPair] {
            let counts = |seed| {
                let out = run(setup(workload, seed, 1.0 / 64.0, &dir).prepared);
                assert_eq!(out.failed, 0, "{workload:?}: {:?}", out.first_failure);
                assert!((1..=SEGMENTS).contains(&out.segments.len()));
                let in_segments: u64 = out.segments.iter().map(|s| s.pairs).sum();
                assert_eq!(in_segments, out.pairs, "{workload:?}: segments lose pairs");
                assert!(out.segments.iter().all(|s| s.wall_s > 0.0 && s.cells > 0));
                (out.attempted, out.pairs)
            };
            assert_eq!(
                counts(11),
                counts(12),
                "{workload:?}: work depends on the seed"
            );
        }
    }

    #[test]
    fn a_wrong_batch_score_is_counted() {
        assert!(check_scores(&[1, 2, 3], [1, 2, 3].into_iter()).is_ok());
        assert!(check_scores(&[1, 2, 4], [1, 2, 3].into_iter()).is_err());
        assert!(check_scores(&[1, 2], [1, 2, 3].into_iter()).is_err());
        let mut out = Outcome::default();
        out.op(Ok(()), 8, 100);
        out.op(Err("pair 3: score differs from the oracle".into()), 8, 100);
        assert_eq!(
            (out.attempted, out.failed, out.pairs, out.cells),
            (2, 1, 8, 100)
        );
        assert_eq!(exit_code(out.attempted, out.failed), 1);
    }
}
