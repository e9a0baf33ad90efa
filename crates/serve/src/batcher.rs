//! Quiescence micro-batching with admission control.
//!
//! Requests from every connection funnel into one [`MicroBatcher`].
//! Requests are grouped by `(scheme, mode)` — the engine runs one
//! scheme and one mode per batch — and each group's *window* opens
//! when its first request arrives. A window waits only while someone
//! is still sending: the batcher counts *inbound* sessions — a session
//! is inbound from the first byte of a frame it has seen until that
//! frame is handled and its read buffer holds nothing further — and a
//! group becomes ready to flush when **any** of four triggers fires,
//! whichever comes first:
//!
//! 1. **quiescence** — no session is inbound: nobody can add to the
//!    window, so waiting buys nothing (a lone closed-loop request
//!    flushes at once),
//! 2. **pair count** — the group holds ≥ `target_pairs` pairs,
//! 3. **byte budget** — the group holds ≥ `max_batch_bytes` sequence
//!    bytes,
//! 4. **deadline** — `now ≥ first arrival + max_delay_ns`: the cap on
//!    how long a window waits for frames that have *started* arriving,
//!    so a stalled or hostile half-sent frame costs the other clients
//!    at most `max_delay_ns`.
//!
//! A trigger only marks the group ready. It runs when a session thread
//! with a request in it names it to [`MicroBatcher::take`] (see the
//! `server` module docs for who asks when), and that thread takes the
//! *whole* group, so a ready group keeps absorbing arrivals until
//! someone is free to run it (the triggers are floors, not caps; the
//! engine's scheduler re-chunks internally). A window has exactly one
//! taker: everyone else waiting on it goes back to their reply channel.
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
use crate::proto::{CodePair, ErrCode, Results};
use anyseq_engine::{ReqKind, SchemeSpec};
use anyseq_obs::{MetricsRegistry, RequestRecord};
use parking_lot::{Condvar, Mutex};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// What a window's runner sends back per request: the results slice — or,
/// when the whole batch failed, the error code and text the session
/// answers as an error frame (`Unsupported` for an engine refusal,
/// `Internal` for a panic) — plus the request's observability record
/// (None when request tracing is disabled), carrying the dispatch
/// stamps and kernel share for the writer to finalize.
pub type RequestReply = (
    Result<Results, (ErrCode, String)>,
    Option<Box<RequestRecord>>,
);

/// Gauge name for queued sequence bytes awaiting a batch.
pub const QUEUE_BYTES_GAUGE: &str = "anyseq_serve_queue_bytes";
/// Gauge name for queued requests awaiting a batch.
pub const QUEUE_DEPTH_GAUGE: &str = "anyseq_serve_queue_depth";

/// Micro-batching window configuration.
#[derive(Debug, Clone, Copy)]
pub struct WindowCfg {
    /// Longest a window waits, measured from its first request, for
    /// frames that have started arriving to finish (a window nobody is
    /// still sending into flushes at once, whatever this says).
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
    /// Where the window's runner sends this request's results. A send
    /// to a disconnected receiver (client went away) is ignored.
    pub tx: Sender<RequestReply>,
    /// The request's lifecycle record, boxed to keep the queue entry
    /// small; `None` when request tracing is disabled. The batcher
    /// stamps `ready_ns`/`taken_ns` when the window flushes.
    pub rec: Option<Box<RequestRecord>>,
}

/// An admitted request's claim on its window.
#[derive(Debug)]
pub struct Ticket {
    /// Id of the window the request joined — what
    /// [`MicroBatcher::take`] is asked for.
    pub window: u64,
    /// Where the request's results arrive once its window has run.
    pub rx: Receiver<RequestReply>,
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
    id: u64,
    spec: SchemeSpec,
    mode: ReqKind,
    requests: Vec<PendingRequest>,
    pairs: usize,
    bytes: u64,
    deadline_ns: u64,
    /// Clock reading when the pair-count or byte trigger first made
    /// this window flushable (0 = neither has fired yet). Feeds the
    /// per-request `window_wait` / `queue_wait` split: time before
    /// this stamp is window coalescing, time after is waiting for a
    /// thread to take the window.
    ready_ns: u64,
}

impl Group {
    /// Stamps the count/byte trigger the first time either holds.
    fn stamp_if_full(&mut self, cfg: &WindowCfg, now: u64) {
        if self.ready_ns == 0
            && (self.pairs >= cfg.target_pairs || self.bytes >= cfg.max_batch_bytes)
        {
            self.ready_ns = now;
        }
    }
}

struct State {
    /// Open windows, at most one per `(spec, mode)`.
    groups: Vec<Group>,
    /// Id of the most recently opened window.
    last_window: u64,
    queued_bytes: u64,
    queued_requests: u64,
    peak_queued_bytes: u64,
    open: bool,
    /// Sessions that are mid-send (see the module docs). While this is
    /// non-zero a window waits, up to its deadline, for them.
    inbound: u64,
    /// Clock reading when `inbound` last fell to 0: since then every
    /// open window has been flushable by quiescence.
    quiet_since_ns: u64,
}

impl State {
    /// Releases one inbound token; `false` if none was held (a release
    /// without its `begin_inbound`, which callers assert on once the
    /// lock is dropped).
    fn release_inbound(&mut self, now: u64) -> bool {
        let held = self.inbound > 0;
        self.inbound = self.inbound.saturating_sub(1);
        if self.inbound == 0 {
            self.quiet_since_ns = now;
        }
        held
    }
}

/// The shared micro-batching queue (see the module docs).
pub struct MicroBatcher {
    cfg: WindowCfg,
    clock: Arc<dyn Clock>,
    metrics: Option<Arc<MetricsRegistry>>,
    /// Nothing that can panic runs while this is held, so a guard the
    /// lock recovers after a panic elsewhere sees consistent state.
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
                groups: Vec::new(),
                last_window: 0,
                queued_bytes: 0,
                queued_requests: 0,
                peak_queued_bytes: 0,
                open: true,
                inbound: 0,
                quiet_since_ns: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Mirrors queue levels into `registry` as delta gauges.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> MicroBatcher {
        self.metrics = Some(registry);
        self
    }

    /// Marks the calling session inbound: it has seen the first byte
    /// of a frame. Every call is paired with one release — through
    /// [`MicroBatcher::submit`]'s `sender_done` or
    /// [`MicroBatcher::end_inbound`] — on every path, or windows fall
    /// back to waiting out their deadline.
    pub fn begin_inbound(&self) {
        self.state.lock().inbound += 1;
    }

    /// Releases the calling session's inbound token when the frame it
    /// covered was not a request (or never completed).
    pub fn end_inbound(&self) {
        let now = self.clock.now_ns();
        let mut state = self.state.lock();
        let held = state.release_inbound(now);
        let quiet = state.inbound == 0;
        drop(state);
        debug_assert!(held, "an inbound token released twice");
        if quiet {
            self.cv.notify_all();
        }
    }

    /// Sessions currently mid-send.
    pub fn inbound_sessions(&self) -> u64 {
        self.state.lock().inbound
    }

    /// Admits a request into its `(spec, mode)` window, or rejects it.
    /// On success the request's results arrive on the ticket's channel
    /// once its window has been taken and run (closing the batcher
    /// readies windows, it never drops them). `rec` is the request's
    /// lifecycle record (or `None` with tracing off); it rides the
    /// queue and comes back with the results, gaining window stamps
    /// along the way. `sender_done` releases the session's inbound
    /// token — admitted or not — under the same lock hold, so no taker
    /// ever sees the request queued with its own sender still counted
    /// as mid-send.
    pub fn submit(
        &self,
        spec: SchemeSpec,
        mode: ReqKind,
        pairs: Vec<CodePair>,
        rec: Option<Box<RequestRecord>>,
        sender_done: bool,
    ) -> Result<Ticket, SubmitError> {
        let bytes: u64 = pairs.iter().map(|(q, s)| (q.len() + s.len()) as u64).sum();
        let (tx, rx) = channel();
        let request = PendingRequest { pairs, tx, rec };
        let now = self.clock.now_ns();
        let mut state = self.state.lock();
        let held = !sender_done || state.release_inbound(now);
        let admitted = self.admit(&mut state, (spec, mode), request, bytes, now);
        if let (Ok(_), Some(reg)) = (&admitted, &self.metrics) {
            // Under the state lock, so the gauges move with the queue
            // (the registry's lock is a leaf lock).
            reg.add_gauge(QUEUE_BYTES_GAUGE, String::new(), bytes as f64);
            reg.add_gauge(QUEUE_DEPTH_GAUGE, String::new(), 1.0);
        }
        drop(state);
        debug_assert!(held, "an inbound token released twice");
        let window = admitted?;
        self.cv.notify_all();
        Ok(Ticket { window, rx })
    }

    /// [`MicroBatcher::submit`]'s work under the lock: admits `request`
    /// (`bytes` of sequence) into its window and returns the window's
    /// id. Plain arithmetic within the budget, nothing that can panic.
    fn admit(
        &self,
        state: &mut State,
        (spec, mode): (SchemeSpec, ReqKind),
        request: PendingRequest,
        bytes: u64,
        now: u64,
    ) -> Result<u64, SubmitError> {
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
        let n_pairs = request.pairs.len();
        if let Some(group) = state
            .groups
            .iter_mut()
            .find(|g| g.spec == spec && g.mode == mode)
        {
            group.requests.push(request);
            group.pairs += n_pairs;
            group.bytes += bytes;
            group.stamp_if_full(&self.cfg, now);
            return Ok(group.id);
        }
        state.last_window += 1;
        let mut group = Group {
            id: state.last_window,
            spec,
            mode,
            requests: vec![request],
            pairs: n_pairs,
            bytes,
            deadline_ns: now.saturating_add(self.cfg.max_delay_ns),
            ready_ns: 0,
        };
        group.stamp_if_full(&self.cfg, now);
        state.groups.push(group);
        Ok(state.last_window)
    }

    /// Takes window `window` if it is flushable and returns it. `None`
    /// means it is not flushable yet — or it is gone: another thread
    /// took it, and the results will arrive on the requests' channels.
    /// With `wait`, parks until one of the two holds, which the
    /// window's deadline bounds. Closing the batcher makes every
    /// window flushable, so shutdown runs the queue instead of
    /// dropping it.
    pub fn take(&self, window: u64, wait: bool) -> Option<Batch> {
        let mut state = self.state.lock();
        loop {
            let now = self.clock.now_ns();
            let idx = state.groups.iter().position(|g| g.id == window)?;
            let (closed, quiet) = (!state.open, state.inbound == 0);
            let g = &state.groups[idx];
            let ready = closed
                || g.pairs >= self.cfg.target_pairs
                || g.bytes >= self.cfg.max_batch_bytes
                || now >= g.deadline_ns
                || quiet;
            if ready {
                let mut group = state.groups.remove(idx);
                state.queued_bytes -= group.bytes;
                state.queued_requests -= group.requests.len() as u64;
                if let Some(reg) = &self.metrics {
                    reg.add_gauge(QUEUE_BYTES_GAUGE, String::new(), -(group.bytes as f64));
                    reg.add_gauge(
                        QUEUE_DEPTH_GAUGE,
                        String::new(),
                        -(group.requests.len() as f64),
                    );
                }
                let quiet_since_ns = state.quiet_since_ns;
                drop(state);
                // Its other waiters go back to their channels.
                self.cv.notify_all();
                // When the window became flushable: the earliest of
                // the triggers that hold — the count/byte stamp, the
                // deadline, the instant the last sender went quiet —
                // else this very moment (close-flush).
                let mut ready_ns = now;
                if group.ready_ns != 0 {
                    ready_ns = ready_ns.min(group.ready_ns);
                }
                if now >= group.deadline_ns {
                    ready_ns = ready_ns.min(group.deadline_ns);
                }
                if quiet {
                    ready_ns = ready_ns.min(quiet_since_ns);
                }
                for req in &mut group.requests {
                    if let Some(rec) = &mut req.rec {
                        // A request admitted into an already-ready
                        // window never waited for the trigger.
                        rec.ready_ns = ready_ns.max(rec.admit_ns);
                        rec.taken_ns = now;
                    }
                }
                return Some(Batch {
                    spec: group.spec,
                    mode: group.mode,
                    requests: group.requests,
                });
            }
            if !wait {
                return None;
            }
            let park = self.clock.max_park(g.deadline_ns.saturating_sub(now));
            self.cv.wait_for(&mut state, park);
        }
    }

    /// Stops admitting work and marks every open window ready; the
    /// threads waiting on them take and run them.
    pub fn close(&self) {
        self.state.lock().open = false;
        self.cv.notify_all();
    }

    /// Sequence bytes currently queued.
    pub fn queued_bytes(&self) -> u64 {
        self.state.lock().queued_bytes
    }

    /// Requests currently queued.
    pub fn queued_requests(&self) -> u64 {
        self.state.lock().queued_requests
    }

    /// High-water mark of queued bytes — bounded by the budget, which
    /// is the backpressure soak test's memory-ceiling assertion.
    pub fn peak_queued_bytes(&self) -> u64 {
        self.state.lock().peak_queued_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{FakeClock, SystemClock};
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

    /// Admits `pairs` and returns the window they joined. Nothing in
    /// these tests runs a window, so the reply channel is dropped.
    fn submit_pairs(
        b: &MicroBatcher,
        spec: SchemeSpec,
        mode: ReqKind,
        pairs: Vec<CodePair>,
    ) -> u64 {
        b.submit(spec, mode, pairs, None, false)
            .expect("admitted")
            .window
    }

    /// Waits for window `w` on another thread so the test can assert
    /// both "nothing flushes yet" and "flushes after advance".
    fn pull(b: &Arc<MicroBatcher>, w: u64) -> Receiver<Option<usize>> {
        let (tx, rx) = channel();
        let b = Arc::clone(b);
        std::thread::spawn(move || {
            let got = b.take(w, true).map(|batch| batch.pair_count());
            let _ = tx.send(got);
        });
        rx
    }

    #[test]
    fn deadline_flush_waits_for_the_fake_clock() {
        let clock = Arc::new(FakeClock::new());
        let b = Arc::new(MicroBatcher::new(cfg(), clock.clone() as Arc<dyn Clock>));
        // Someone is mid-send and never finishes: only the deadline
        // can flush what the others queued.
        b.begin_inbound();
        let w = submit_pairs(&b, spec(), ReqKind::Score, vec![pair(5)]);
        submit_pairs(&b, spec(), ReqKind::Score, vec![pair(5)]);
        let rx = pull(&b, w);
        // Below target pairs/bytes and before the deadline: no flush,
        // no matter how much real time passes.
        assert!(rx.recv_timeout(Duration::from_millis(40)).is_err());
        clock.advance(1_000_000);
        let got = rx.recv_timeout(Duration::from_secs(5)).expect("flushed");
        assert_eq!(got, Some(2));
        assert_eq!(b.queued_bytes(), 0);
        assert_eq!(b.queued_requests(), 0);
        assert_eq!(b.inbound_sessions(), 1);
    }

    #[test]
    fn a_quiet_window_flushes_without_time_passing() {
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(cfg(), clock as Arc<dyn Clock>);
        // The sender's own token is released with the admission, so
        // the request is never seen queued behind its own sender.
        b.begin_inbound();
        let ticket = b
            .submit(spec(), ReqKind::Score, vec![pair(5)], None, true)
            .expect("admitted");
        assert_eq!(b.inbound_sessions(), 0);
        let batch = b.take(ticket.window, false).expect("quiescence trigger");
        assert_eq!(batch.pair_count(), 1);
    }

    #[test]
    fn a_mid_send_session_holds_the_window_until_it_finishes() {
        let clock = Arc::new(FakeClock::new());
        let b = Arc::new(MicroBatcher::new(cfg(), clock as Arc<dyn Clock>));
        b.begin_inbound();
        b.begin_inbound();
        let w = submit_pairs(&b, spec(), ReqKind::Score, vec![pair(5)]);
        let rx = pull(&b, w);
        b.end_inbound();
        // One sender left: still waiting, with fake time standing still.
        assert!(rx.recv_timeout(Duration::from_millis(40)).is_err());
        b.end_inbound();
        let got = rx.recv_timeout(Duration::from_secs(5)).expect("flushed");
        assert_eq!(got, Some(1));
    }

    #[test]
    fn a_panic_under_the_lock_leaves_the_batcher_serving() {
        let clock = Arc::new(FakeClock::new());
        let b = Arc::new(MicroBatcher::new(cfg(), clock as Arc<dyn Clock>));
        // A thread dies while it holds the state lock, which poisons
        // the `std` mutex underneath.
        let holder = Arc::clone(&b);
        let died = std::thread::spawn(move || {
            let _state = holder.state.lock();
            panic!("a panic while the batcher lock is held");
        })
        .join();
        assert!(died.is_err());
        // Every later lock recovers the guard: admit, flush and answer
        // a window as if nothing had happened.
        b.begin_inbound();
        let ticket = b
            .submit(spec(), ReqKind::Score, vec![pair(3); 4], None, true)
            .expect("admitted after the panic");
        assert_eq!((b.inbound_sessions(), b.queued_requests()), (0, 1));
        let batch = b.take(ticket.window, false).expect("count trigger");
        assert_eq!(batch.pair_count(), 4);
        for req in batch.requests {
            let scores = Results::Scores(vec![7; req.pairs.len()]);
            req.tx.send((Ok(scores), None)).expect("the ticket is live");
        }
        let (got, _) = ticket
            .rx
            .recv_timeout(Duration::from_secs(5))
            .expect("answered");
        assert!(matches!(got, Ok(Results::Scores(s)) if s == vec![7; 4]));
        assert_eq!(b.queued_bytes(), 0);
        b.close();
    }

    #[test]
    fn pair_target_flushes_without_time_passing() {
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(cfg(), clock as Arc<dyn Clock>);
        let w = submit_pairs(&b, spec(), ReqKind::Score, vec![pair(2); 4]);
        let batch = b.take(w, false).expect("count trigger");
        assert_eq!(batch.pair_count(), 4);
        assert_eq!(batch.mode, ReqKind::Score);
    }

    #[test]
    fn byte_budget_flushes_without_time_passing() {
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(cfg(), clock as Arc<dyn Clock>);
        // One 600-byte pair is below both triggers; two cross 1000 B.
        let w = submit_pairs(&b, spec(), ReqKind::Align, vec![pair(300)]);
        submit_pairs(&b, spec(), ReqKind::Align, vec![pair(300)]);
        let batch = b.take(w, false).expect("byte trigger");
        assert_eq!(batch.pair_count(), 2);
    }

    #[test]
    fn windows_group_by_spec_and_mode() {
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(cfg(), clock.clone() as Arc<dyn Clock>);
        let other = SchemeSpec::global_linear(1, -2, -2);
        let w1 = submit_pairs(&b, spec(), ReqKind::Score, vec![pair(1)]);
        let w2 = submit_pairs(&b, other, ReqKind::Score, vec![pair(1)]);
        let w3 = submit_pairs(&b, spec(), ReqKind::Align, vec![pair(1)]);
        let w4 = submit_pairs(&b, spec(), ReqKind::Score, vec![pair(1)]);
        assert_eq!(w4, w1, "same (spec, mode), same window");
        clock.advance(2_000_000);
        // Three windows: (spec, Score) ×2 requests, (other, Score),
        // (spec, Align).
        let first = b.take(w1, false).expect("first window");
        assert_eq!((first.spec, first.mode), (spec(), ReqKind::Score));
        assert_eq!(first.requests.len(), 2);
        let second = b.take(w2, false).expect("second window");
        assert_eq!((second.spec, second.mode), (other, ReqKind::Score));
        let third = b.take(w3, false).expect("third window");
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
        let w = b
            .submit(spec(), ReqKind::Score, vec![pair(30)], None, false)
            .expect("60 B fits")
            .window;
        // A refusal releases the sender's token all the same.
        b.begin_inbound();
        let err = b
            .submit(spec(), ReqKind::Score, vec![pair(30)], None, true)
            .expect_err("120 B total exceeds 100 B");
        assert_eq!(b.inbound_sessions(), 0);
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
        assert!(b.take(w, false).is_some());
        assert!(b.take(w, false).is_none());
        assert_eq!(
            b.submit(spec(), ReqKind::Score, vec![pair(30)], None, false)
                .err(),
            Some(SubmitError::Closed)
        );
    }

    #[test]
    fn close_drains_then_ends() {
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(cfg(), clock as Arc<dyn Clock>);
        let w1 = submit_pairs(&b, spec(), ReqKind::Score, vec![pair(1)]);
        let w2 = submit_pairs(&b, spec(), ReqKind::Align, vec![]);
        b.close();
        // Both windows flush (deadlines unreached — close readies
        // them), including the zero-pair one, and then they are gone.
        assert_eq!(b.take(w1, false).expect("window 1").mode, ReqKind::Score);
        let empty = b.take(w2, false).expect("window 2");
        assert_eq!(empty.mode, ReqKind::Align);
        assert_eq!(empty.pair_count(), 0);
        assert!(b.take(w1, true).is_none());
        assert!(b.take(w2, true).is_none(), "a taken window stays gone");
        assert_eq!(b.queued_requests(), 0);
    }

    #[test]
    fn records_get_window_stamps_on_flush() {
        let clock = Arc::new(FakeClock::new());
        let b = Arc::new(MicroBatcher::new(cfg(), clock.clone() as Arc<dyn Clock>));
        let rec = |admit: u64| {
            Some(Box::new(RequestRecord {
                admit_ns: admit,
                ..RequestRecord::default()
            }))
        };
        let submit = |pairs: Vec<CodePair>, admit: u64, sender_done: bool| {
            b.submit(spec(), ReqKind::Score, pairs, rec(admit), sender_done)
                .unwrap()
                .window
        };
        let stamps = |w: u64, what: &str| {
            let batch = b.take(w, false).expect(what);
            let r = batch.requests[0].rec.as_ref().unwrap();
            (r.ready_ns, r.taken_ns, r.window_wait_ns())
        };
        // Deadline flush: admitted at t=0 behind a peer that stays
        // mid-send, deadline at 1 ms, taken at 3 ms — ready must be
        // the deadline, not the take time.
        b.begin_inbound();
        let w = submit(vec![pair(5)], 0, false);
        clock.advance(3_000_000);
        assert_eq!(
            stamps(w, "deadline flush"),
            (1_000_000, 3_000_000, 1_000_000)
        );
        // Count-trigger flush: the 4th pair arrives at 4 ms and makes
        // the window ready immediately; taken two fake ms later.
        // window_wait = ready - admit = 0; queue_wait starts at ready.
        clock.advance(1_000_000);
        let w = submit(vec![pair(2); 4], 4_000_000, false);
        clock.advance(2_000_000);
        assert_eq!(stamps(w, "count flush"), (4_000_000, 6_000_000, 0));
        // Quiescence, time-to-quiet: admitted at 6 ms with the peer
        // still mid-send; it finishes at 6.5 ms (well inside the
        // deadline), taken at 7 ms — the window waited for the peer.
        let w = submit(vec![pair(5)], 6_000_000, false);
        clock.advance(500_000);
        b.end_inbound();
        clock.advance(500_000);
        assert_eq!(stamps(w, "quiet flush"), (6_500_000, 7_000_000, 500_000));
        // Quiescence, already quiet: nobody else is sending when the
        // request (and its own token) arrives at 7 ms; taken at 8 ms,
        // all of which is queue wait.
        b.begin_inbound();
        let w = submit(vec![pair(5)], 7_000_000, true);
        clock.advance(1_000_000);
        assert_eq!(stamps(w, "already quiet"), (7_000_000, 8_000_000, 0));
    }

    /// A window has one taker: of two threads waiting on it, one takes
    /// it and the other returns `None` — long before the deadline, a
    /// real-time minute away.
    #[test]
    fn a_window_is_taken_once_and_its_other_waiter_returns() {
        let cfg = WindowCfg {
            max_delay_ns: 60_000_000_000,
            ..cfg()
        };
        let b = Arc::new(MicroBatcher::new(cfg, Arc::new(SystemClock::new())));
        b.begin_inbound();
        let w = submit_pairs(&b, spec(), ReqKind::Score, vec![pair(5)]);
        let waiters = [pull(&b, w), pull(&b, w)];
        b.end_inbound();
        let mut got: Vec<Option<usize>> = waiters
            .iter()
            .map(|rx| rx.recv_timeout(Duration::from_secs(5)).expect("returned"))
            .collect();
        got.sort();
        assert_eq!(got, [None, Some(1)]);
    }

    #[test]
    fn queue_gauges_return_to_zero() {
        let reg = Arc::new(MetricsRegistry::new());
        let clock = Arc::new(FakeClock::new());
        let b = MicroBatcher::new(cfg(), clock as Arc<dyn Clock>).with_metrics(reg.clone());
        let w1 = submit_pairs(&b, spec(), ReqKind::Score, vec![pair(10), pair(20)]);
        let w2 = submit_pairs(&b, spec(), ReqKind::Align, vec![pair(5)]);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges[&(QUEUE_BYTES_GAUGE, String::new())], 70.0);
        assert_eq!(snap.gauges[&(QUEUE_DEPTH_GAUGE, String::new())], 2.0);
        b.close();
        for w in [w1, w2] {
            b.take(w, false).expect("close readies every window");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.gauges[&(QUEUE_BYTES_GAUGE, String::new())], 0.0);
        assert_eq!(snap.gauges[&(QUEUE_DEPTH_GAUGE, String::new())], 0.0);
    }
}
