//! Deadline micro-batching with admission control.
//!
//! Requests from every connection funnel into one [`MicroBatcher`].
//! Requests are grouped by `(scheme, mode)` — the engine runs one
//! scheme and one mode per batch — and each group's *window* opens
//! when its first request arrives, with a flush deadline
//! `max_delay_ns` later. A group becomes ready to flush when **any**
//! of three triggers fires, whichever comes first:
//!
//! 1. **deadline** — `now ≥ first arrival + max_delay_ns`,
//! 2. **pair count** — the group holds ≥ `target_pairs` pairs,
//! 3. **byte budget** — the group holds ≥ `max_batch_bytes` sequence
//!    bytes.
//!
//! The count/byte triggers mark the group ready; the dispatcher takes
//! the *whole* group when it next asks, so while it is busy computing
//! a previous batch the group keeps absorbing arrivals (which is what
//! coalescing is for — the triggers are floors, not caps; the engine's
//! scheduler re-chunks internally).
//!
//! **Backpressure**: [`MicroBatcher::submit`] admits a request only if
//! the total queued sequence bytes stay within `queue_budget_bytes`;
//! otherwise it returns [`SubmitError::Overloaded`] *synchronously*
//! and enqueues nothing — the daemon never buffers unboundedly, and
//! the client gets a typed retry signal instead of a stalled socket.
//!
//! Time comes from an injected [`Clock`], so
//! tests drive the window deterministically with a fake clock. Queue
//! levels are mirrored into a metrics registry (when present) via
//! delta gauges — `anyseq_serve_queue_bytes` and
//! `anyseq_serve_queue_depth` — which return to exactly 0 when the
//! queue drains, regardless of thread interleaving.

use crate::clock::Clock;
use crate::proto::{CodePair, Results};
use anyseq_engine::{ReqKind, SchemeSpec};
use anyseq_obs::{MetricsRegistry, RequestRecord};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

/// What the dispatcher sends back per request: the results slice — or
/// the engine's refusal text when the whole batch was refused, which
/// the session answers as an `Unsupported` error frame — plus the
/// request's observability record (None when request tracing is
/// disabled), carrying the dispatch stamps and kernel share for the
/// writer to finalize.
pub type RequestReply = (Result<Results, String>, Option<Box<RequestRecord>>);

/// Gauge name for queued sequence bytes awaiting a batch.
pub const QUEUE_BYTES_GAUGE: &str = "anyseq_serve_queue_bytes";
/// Gauge name for queued requests awaiting a batch.
pub const QUEUE_DEPTH_GAUGE: &str = "anyseq_serve_queue_depth";

/// Micro-batching window configuration.
#[derive(Debug, Clone, Copy)]
pub struct WindowCfg {
    /// Flush deadline measured from a window's first request.
    pub max_delay_ns: u64,
    /// Pair count at which a window becomes ready early.
    pub target_pairs: usize,
    /// Sequence-byte total at which a window becomes ready early.
    pub max_batch_bytes: u64,
    /// Admission-control budget: total sequence bytes that may be
    /// queued across all windows before submissions are rejected.
    pub queue_budget_bytes: u64,
}

impl Default for WindowCfg {
    fn default() -> WindowCfg {
        WindowCfg {
            max_delay_ns: 2_000_000, // 2 ms
            target_pairs: 512,
            max_batch_bytes: 8 << 20,
            queue_budget_bytes: 64 << 20,
        }
    }
}

/// One admitted request waiting in (or taken from) a window.
pub struct PendingRequest {
    /// The request's code pairs.
    pub pairs: Vec<CodePair>,
    /// Where the dispatcher sends this request's results. A send to a
    /// disconnected receiver (client went away) is ignored.
    pub tx: Sender<RequestReply>,
    /// The request's lifecycle record, boxed to keep the queue entry
    /// small; `None` when request tracing is disabled. The batcher
    /// stamps `ready_ns`/`taken_ns` when the window flushes.
    pub rec: Option<Box<RequestRecord>>,
}

/// A flushed window: one engine batch worth of requests.
pub struct Batch {
    /// The scheme all requests in this batch share.
    pub spec: SchemeSpec,
    /// Score or align — shared by all requests in this batch.
    pub mode: ReqKind,
    /// The coalesced requests, in admission order.
    pub requests: Vec<PendingRequest>,
}

impl Batch {
    /// Total pairs across the batch's requests.
    pub fn pair_count(&self) -> usize {
        self.requests.iter().map(|r| r.pairs.len()).sum()
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admitting the request would exceed the queue budget. Nothing
    /// was enqueued; the client should back off and retry.
    Overloaded {
        /// Bytes currently queued.
        queued_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
        /// The refused request's size.
        request_bytes: u64,
    },
    /// The batcher is shutting down; no new work is admitted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded {
                queued_bytes,
                budget_bytes,
                request_bytes,
            } => write!(
                f,
                "overloaded: {request_bytes} request bytes would push the queue \
                 ({queued_bytes} B) over its {budget_bytes} B budget"
            ),
            SubmitError::Closed => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Group {
    spec: SchemeSpec,
    mode: ReqKind,
    requests: Vec<PendingRequest>,
    pairs: usize,
    bytes: u64,
    deadline_ns: u64,
    /// Clock reading when the pair-count or byte trigger first made
    /// this window flushable (0 = neither has fired yet). Feeds the
    /// per-request `window_wait` / `queue_wait` split: time before
    /// this stamp is window coalescing, time after is waiting for the
    /// dispatcher.
    ready_ns: u64,
}

struct State {
    /// Open windows in creation order (deadlines are monotone, so the
    /// front window always has the nearest deadline).
    groups: VecDeque<Group>,
    queued_bytes: u64,
    queued_requests: u64,
    peak_queued_bytes: u64,
    open: bool,
}

/// The shared micro-batching queue (see the module docs).
pub struct MicroBatcher {
    cfg: WindowCfg,
    clock: Arc<dyn Clock>,
    metrics: Option<Arc<MetricsRegistry>>,
    state: Mutex<State>,
    cv: Condvar,
}

impl MicroBatcher {
    /// A batcher over the given window configuration and clock.
    pub fn new(cfg: WindowCfg, clock: Arc<dyn Clock>) -> MicroBatcher {
        MicroBatcher {
            cfg,
            clock,
            metrics: None,
            state: Mutex::new(State {
                groups: VecDeque::new(),
                queued_bytes: 0,
                queued_requests: 0,
                peak_queued_bytes: 0,
                open: true,
            }),
            cv: Condvar::new(),
        }
    }

    /// Mirrors queue levels into `registry` as delta gauges.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> MicroBatcher {
        self.metrics = Some(registry);
        self
    }

    /// The window configuration.
    pub fn cfg(&self) -> WindowCfg {
        self.cfg
    }

    /// Admits a request into its `(spec, mode)` window, or rejects it.
    /// On success the request's results will eventually arrive on `tx`
    /// (the dispatcher drains every admitted request, even during
    /// shutdown). `rec` is the request's lifecycle record (or `None`
    /// with tracing off); it rides the queue and comes back with the
    /// results, gaining window stamps along the way.
    pub fn submit(
        &self,
        spec: SchemeSpec,
        mode: ReqKind,
        pairs: Vec<CodePair>,
        tx: Sender<RequestReply>,
        rec: Option<Box<RequestRecord>>,
    ) -> Result<(), SubmitError> {
        let bytes: u64 = pairs.iter().map(|(q, s)| (q.len() + s.len()) as u64).sum();
        let now = self.clock.now_ns();
        let mut state = self.state.lock().expect("batcher state poisoned");
        if !state.open {
            return Err(SubmitError::Closed);
        }
        if state.queued_bytes.saturating_add(bytes) > self.cfg.queue_budget_bytes {
            return Err(SubmitError::Overloaded {
                queued_bytes: state.queued_bytes,
                budget_bytes: self.cfg.queue_budget_bytes,
                request_bytes: bytes,
            });
        }
        state.queued_bytes += bytes;
        state.queued_requests += 1;
        state.peak_queued_bytes = state.peak_queued_bytes.max(state.queued_bytes);
        let request = PendingRequest { pairs, tx, rec };
        let n_pairs = request.pairs.len();
        if let Some(group) = state
            .groups
            .iter_mut()
            .find(|g| g.spec == spec && g.mode == mode)
        {
            group.requests.push(request);
            group.pairs += n_pairs;
            group.bytes += bytes;
            if group.ready_ns == 0
                && (group.pairs >= self.cfg.target_pairs || group.bytes >= self.cfg.max_batch_bytes)
            {
                group.ready_ns = now;
            }
        } else {
            let deadline_ns = now.saturating_add(self.cfg.max_delay_ns);
            let ready_ns = if n_pairs >= self.cfg.target_pairs || bytes >= self.cfg.max_batch_bytes
            {
                now
            } else {
                0
            };
            state.groups.push_back(Group {
                spec,
                mode,
                requests: vec![request],
                pairs: n_pairs,
                bytes,
                deadline_ns,
                ready_ns,
            });
        }
        drop(state);
        if let Some(reg) = &self.metrics {
            reg.add_gauge(QUEUE_BYTES_GAUGE, String::new(), bytes as f64);
            reg.add_gauge(QUEUE_DEPTH_GAUGE, String::new(), 1.0);
        }
        self.cv.notify_all();
        Ok(())
    }

    /// Blocks until a window is ready and returns it, or `None` once
    /// the batcher is closed *and* fully drained. Closing marks every
    /// remaining window ready, so shutdown flushes the queue instead
    /// of dropping it.
    pub fn next_batch(&self) -> Option<Batch> {
        let mut state = self.state.lock().expect("batcher state poisoned");
        loop {
            let now = self.clock.now_ns();
            let open = state.open;
            let ready = |g: &Group| {
                !open
                    || g.pairs >= self.cfg.target_pairs
                    || g.bytes >= self.cfg.max_batch_bytes
                    || now >= g.deadline_ns
            };
            if let Some(idx) = state.groups.iter().position(ready) {
                let mut group = state.groups.remove(idx).expect("position exists");
                state.queued_bytes -= group.bytes;
                state.queued_requests -= group.requests.len() as u64;
                drop(state);
                // When the window became flushable: the count/byte
                // trigger stamp if one fired, else the deadline (the
                // usual flush), else this very moment (close-flush).
                let ready_ns = if group.ready_ns != 0 {
                    group.ready_ns
                } else if now >= group.deadline_ns {
                    group.deadline_ns
                } else {
                    now
                };
                for req in &mut group.requests {
                    if let Some(rec) = &mut req.rec {
                        // A request admitted into an already-ready
                        // window never waited for the trigger.
                        rec.ready_ns = ready_ns.max(rec.admit_ns);
                        rec.taken_ns = now;
                    }
                }
                if let Some(reg) = &self.metrics {
                    reg.add_gauge(QUEUE_BYTES_GAUGE, String::new(), -(group.bytes as f64));
                    reg.add_gauge(
                        QUEUE_DEPTH_GAUGE,
                        String::new(),
                        -(group.requests.len() as f64),
                    );
                }
                return Some(Batch {
                    spec: group.spec,
                    mode: group.mode,
                    requests: group.requests,
                });
            }
            if state.groups.is_empty() && !state.open {
                return None;
            }
            let wait = state
                .groups
                .front()
                .map(|g| g.deadline_ns.saturating_sub(now));
            let park = self.clock.max_park(wait);
            let (s, _) = self
                .cv
                .wait_timeout(state, park)
                .expect("batcher state poisoned");
            state = s;
        }
    }

    /// Stops admitting work and marks every open window ready. The
    /// dispatcher drains the remaining windows and then sees `None`.
    pub fn close(&self) {
        self.state.lock().expect("batcher state poisoned").open = false;
        self.cv.notify_all();
    }

    /// Sequence bytes currently queued.
    pub fn queued_bytes(&self) -> u64 {
        self.state
            .lock()
            .expect("batcher state poisoned")
            .queued_bytes
    }

    /// Requests currently queued.
    pub fn queued_requests(&self) -> u64 {
        self.state
            .lock()
            .expect("batcher state poisoned")
            .queued_requests
    }

    /// High-water mark of queued bytes — bounded by the budget, which
    /// is the backpressure soak test's memory-ceiling assertion.
    pub fn peak_queued_bytes(&self) -> u64 {
        self.state
            .lock()
            .expect("batcher state poisoned")
            .peak_queued_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn cfg() -> WindowCfg {
        WindowCfg {
            max_delay_ns: 1_000_000,
            target_pairs: 4,
            max_batch_bytes: 1_000,
            queue_budget_bytes: 10_000,
        }
    }

    fn spec() -> SchemeSpec {
        SchemeSpec::global_linear(2, -1, -1)
    }

    fn pair(n: usize) -> CodePair {
        (vec![0; n], vec![1; n])
    }

    fn submit_pairs(b: &MicroBatcher, spec: SchemeSpec, mode: ReqKind, pairs: Vec<CodePair>) {
        // These tests are dispatcher-less: nothing ever sends on `tx`,
        // so dropping the receiver immediately is harmless.
        let (tx, _rx) = channel();
        b.submit(spec, mode, pairs, tx, None).expect("admitted");
    }

    /// Pulls the next batch from another thread so the test can assert
    /// both "nothing flushes yet" and "flushes after advance".
    fn pull(b: &Arc<MicroBatcher>) -> std::sync::mpsc::Receiver<Option<usize>> {
        let (tx, rx) = channel();
        let b = Arc::clone(b);
        std::thread::spawn(move || {
            let got = b.next_batch().map(|batch| batch.pair_count());
            let _ = tx.send(got);
        });
        rx
    }

    #[test]
    fn deadline_flush_waits_for_the_fake_clock() {
        let clock = Arc::new(FakeClock::new());
        let b = Arc::new(MicroBatcher::new(cfg(), clock.clone() as Arc<dyn Clock>));
        submit_pairs(&b, spec(), ReqKind::Score, vec![pair(5)]);
        submit_pairs(&b, spec(), ReqKind::Score, vec![pair(5)]);
        let rx = pull(&b);
        // Below target pairs/bytes and before the deadline: no flush,
        // no matter how much real time passes.
        assert!(rx.recv_timeout(Duration::from_millis(40)).is_err());
        clock.advance(1_000_000);
        let got = rx.recv_timeout(Duration::from_secs(5)).expect("flushed");
        assert_eq!(got, Some(2));
        assert_eq!(b.queued_bytes(), 0);
        assert_eq!(b.queued_requests(), 0);
    }

    #[test]
    fn pair_target_flushes_without_time_passing() {
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(cfg(), clock as Arc<dyn Clock>);
        submit_pairs(&b, spec(), ReqKind::Score, vec![pair(2); 4]);
        let batch = b.next_batch().expect("count trigger");
        assert_eq!(batch.pair_count(), 4);
        assert_eq!(batch.mode, ReqKind::Score);
    }

    #[test]
    fn byte_budget_flushes_without_time_passing() {
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(cfg(), clock as Arc<dyn Clock>);
        // One 600-byte pair is below both triggers; two cross 1000 B.
        submit_pairs(&b, spec(), ReqKind::Align, vec![pair(300)]);
        submit_pairs(&b, spec(), ReqKind::Align, vec![pair(300)]);
        let batch = b.next_batch().expect("byte trigger");
        assert_eq!(batch.pair_count(), 2);
    }

    #[test]
    fn windows_group_by_spec_and_mode() {
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(cfg(), clock.clone() as Arc<dyn Clock>);
        let other = SchemeSpec::global_linear(1, -2, -2);
        submit_pairs(&b, spec(), ReqKind::Score, vec![pair(1)]);
        submit_pairs(&b, other, ReqKind::Score, vec![pair(1)]);
        submit_pairs(&b, spec(), ReqKind::Align, vec![pair(1)]);
        submit_pairs(&b, spec(), ReqKind::Score, vec![pair(1)]);
        clock.advance(2_000_000);
        // Three windows: (spec, Score) ×2 requests, (other, Score),
        // (spec, Align) — flushed oldest-first.
        let first = b.next_batch().expect("first window");
        assert_eq!((first.spec, first.mode), (spec(), ReqKind::Score));
        assert_eq!(first.requests.len(), 2);
        let second = b.next_batch().expect("second window");
        assert_eq!((second.spec, second.mode), (other, ReqKind::Score));
        let third = b.next_batch().expect("third window");
        assert_eq!((third.spec, third.mode), (spec(), ReqKind::Align));
        assert_eq!(b.queued_requests(), 0);
    }

    #[test]
    fn overload_rejects_synchronously_and_recovers() {
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(
            WindowCfg {
                queue_budget_bytes: 100,
                ..cfg()
            },
            clock as Arc<dyn Clock>,
        );
        let (tx, _rx) = channel();
        b.submit(spec(), ReqKind::Score, vec![pair(30)], tx.clone(), None)
            .expect("60 B fits");
        let err = b
            .submit(spec(), ReqKind::Score, vec![pair(30)], tx.clone(), None)
            .expect_err("120 B total exceeds 100 B");
        assert_eq!(
            err,
            SubmitError::Overloaded {
                queued_bytes: 60,
                budget_bytes: 100,
                request_bytes: 60,
            }
        );
        assert!(err.to_string().contains("overloaded"));
        // Nothing was enqueued for the rejected request…
        assert_eq!(b.queued_bytes(), 60);
        assert_eq!(b.peak_queued_bytes(), 60);
        // …and draining restores admission.
        b.close();
        assert!(b.next_batch().is_some());
        assert!(b.next_batch().is_none());
        assert_eq!(
            b.submit(spec(), ReqKind::Score, vec![pair(30)], tx, None),
            Err(SubmitError::Closed)
        );
    }

    #[test]
    fn close_drains_then_ends() {
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(cfg(), clock as Arc<dyn Clock>);
        submit_pairs(&b, spec(), ReqKind::Score, vec![pair(1)]);
        submit_pairs(&b, spec(), ReqKind::Align, vec![]);
        b.close();
        // Both windows flush (deadlines unreached — close readies
        // them), including the zero-pair one, then the stream ends.
        assert_eq!(b.next_batch().expect("window 1").mode, ReqKind::Score);
        let empty = b.next_batch().expect("window 2");
        assert_eq!(empty.mode, ReqKind::Align);
        assert_eq!(empty.pair_count(), 0);
        assert!(b.next_batch().is_none());
        assert!(b.next_batch().is_none(), "None is sticky");
    }

    #[test]
    fn records_get_window_stamps_on_flush() {
        let clock = Arc::new(FakeClock::new());
        let b = Arc::new(MicroBatcher::new(cfg(), clock.clone() as Arc<dyn Clock>));
        let (tx, _rx) = channel();
        let rec = |admit: u64| {
            Some(Box::new(RequestRecord {
                admit_ns: admit,
                ..RequestRecord::default()
            }))
        };
        // Deadline flush: admitted at t=0, deadline at 1 ms, taken at
        // 3 ms — ready must be the deadline, not the take time.
        b.submit(spec(), ReqKind::Score, vec![pair(5)], tx.clone(), rec(0))
            .unwrap();
        clock.advance(3_000_000);
        let batch = b.next_batch().expect("deadline flush");
        let r = batch.requests[0].rec.as_ref().unwrap();
        assert_eq!(r.ready_ns, 1_000_000);
        assert_eq!(r.taken_ns, 3_000_000);
        // Count-trigger flush: the 4th pair arrives at 4 ms and makes
        // the window ready immediately; taken two fake ms later.
        clock.advance(1_000_000);
        b.submit(
            spec(),
            ReqKind::Score,
            vec![pair(2); 4],
            tx.clone(),
            rec(4_000_000),
        )
        .unwrap();
        clock.advance(2_000_000);
        let batch = b.next_batch().expect("count flush");
        let r = batch.requests[0].rec.as_ref().unwrap();
        assert_eq!(r.ready_ns, 4_000_000);
        assert_eq!(r.taken_ns, 6_000_000);
        // window_wait = ready - admit = 0; queue_wait starts at ready.
        assert_eq!(r.window_wait_ns(), 0);
    }

    #[test]
    fn queue_gauges_return_to_zero() {
        let reg = Arc::new(MetricsRegistry::new());
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(cfg(), clock as Arc<dyn Clock>).with_metrics(reg.clone());
        submit_pairs(&b, spec(), ReqKind::Score, vec![pair(10), pair(20)]);
        submit_pairs(&b, spec(), ReqKind::Align, vec![pair(5)]);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges[&(QUEUE_BYTES_GAUGE, String::new())], 70.0);
        assert_eq!(snap.gauges[&(QUEUE_DEPTH_GAUGE, String::new())], 2.0);
        b.close();
        while b.next_batch().is_some() {}
        let snap = reg.snapshot();
        assert_eq!(snap.gauges[&(QUEUE_BYTES_GAUGE, String::new())], 0.0);
        assert_eq!(snap.gauges[&(QUEUE_DEPTH_GAUGE, String::new())], 0.0);
    }
}
