//! Request-scoped observability: per-request lifecycle records, a
//! bounded slow-request log, and an always-on flight recorder.
//!
//! The serving daemon coalesces concurrent requests into engine
//! batches, so batch-level spans alone cannot say *which request*
//! paid for a byte-budget flush or a deep queue. A [`RequestRecord`]
//! carries absolute clock stamps for every hand-off in a request's
//! life — frame decode, window admission, batch take, dispatch, reply
//! write — from which the stage decomposition
//! `decode → window_wait → queue_wait → dispatch → reply_write`
//! is derived (all saturating, so a missing stamp degrades to a zero
//! stage, never an underflow). Kernel time is attributed to requests
//! by their cell share of the batch and stored in
//! [`RequestRecord::kernel_share_ns`].
//!
//! Two bounded sinks consume completed records:
//! * [`SlowLog`] — a ring of the most recent over-threshold requests,
//!   dumped by the daemon's `HEALTH` verb;
//! * [`FlightRecorder`] — rings of the last N completed requests and
//!   the last M dispatched batches (with their engine spans), rendered
//!   as a Chrome trace by [`flight_trace`] on demand (`DUMP` verb) so
//!   a slow daemon can be diagnosed without restarting it.
//!
//! Stamps are nanoseconds from whatever clock the daemon injects
//! (wall-monotonic in production, a fake clock in tests); this crate
//! only does arithmetic on them.

use crate::span::Span;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Lifecycle stamps and identity for one served request. All `_ns`
/// fields are absolute nanosecond readings of the daemon's clock; a
/// stage that never happened leaves its stamp at 0 and derives as a
/// zero-length stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestRecord {
    /// Server-minted request id, unique per process.
    pub id: u64,
    /// The id the client sent in the frame (echoed in the reply).
    pub client_id: u64,
    /// Request verb: `"score"` or `"align"`.
    pub verb: &'static str,
    /// Alignment kind name (`"global"`, `"local"`, …).
    pub kind: &'static str,
    /// Scheme fingerprint (stable FNV-1a over the full spec).
    pub scheme: u64,
    /// Pairs in the request.
    pub pairs: u64,
    /// DP cells in the request (`Σ |q|·|s|`).
    pub cells: u64,
    /// Flight-recorder sequence number of the batch that served this
    /// request (0 = not recorded).
    pub batch_seq: u64,
    /// Clock reading right after the request frame was read.
    pub recv_ns: u64,
    /// Clock reading after the decoded request was admitted to a
    /// batching window.
    pub admit_ns: u64,
    /// Clock reading at which the window became flushable (deadline
    /// hit, pair target or byte budget crossed, or daemon shutdown).
    pub ready_ns: u64,
    /// Clock reading when a session thread took the window to run it.
    pub taken_ns: u64,
    /// Clock reading just before the engine ran the batch.
    pub dispatch_start_ns: u64,
    /// Clock reading just after the engine returned.
    pub dispatch_end_ns: u64,
    /// Clock reading when the writer began encoding the reply.
    pub reply_start_ns: u64,
    /// Clock reading after the reply frame was written.
    pub done_ns: u64,
    /// Kernel wall time attributed to this request: the batch's
    /// `kernel` stage total apportioned by cell share.
    pub kernel_share_ns: u64,
}

impl RequestRecord {
    /// Frame decode + admission call: `admit - recv`.
    pub fn decode_ns(&self) -> u64 {
        self.admit_ns.saturating_sub(self.recv_ns)
    }

    /// Time in the open batching window: `ready - admit`.
    pub fn window_wait_ns(&self) -> u64 {
        self.ready_ns.saturating_sub(self.admit_ns)
    }

    /// Time flushable but not yet running — waiting for a thread with
    /// a stake in the window to be free to take it:
    /// `dispatch_start - ready`.
    pub fn queue_wait_ns(&self) -> u64 {
        self.dispatch_start_ns.saturating_sub(self.ready_ns)
    }

    /// Engine wall time for the whole batch this request rode in.
    pub fn dispatch_ns(&self) -> u64 {
        self.dispatch_end_ns.saturating_sub(self.dispatch_start_ns)
    }

    /// Reply encode + socket write: `done - reply_start`.
    pub fn reply_write_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.reply_start_ns)
    }

    /// End-to-end server-observed latency: `done - recv`.
    pub fn total_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.recv_ns)
    }

    /// The scheme fingerprint as a fixed-width hex label value.
    pub fn scheme_hex(&self) -> String {
        format!("{:016x}", self.scheme)
    }
}

/// A bounded ring of the most recent requests whose end-to-end latency
/// exceeded a threshold. Old entries are evicted oldest-first; the
/// total over-threshold count is retained separately so eviction never
/// hides how often the daemon was slow.
#[derive(Debug)]
pub struct SlowLog {
    threshold_ns: u64,
    cap: usize,
    inner: Mutex<(VecDeque<RequestRecord>, u64)>,
}

impl SlowLog {
    /// A log keeping the last `cap` requests slower than
    /// `threshold_ns` end to end.
    pub fn new(threshold_ns: u64, cap: usize) -> SlowLog {
        SlowLog {
            threshold_ns,
            cap: cap.max(1),
            inner: Mutex::new((VecDeque::new(), 0)),
        }
    }

    /// The configured threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Offers a completed record; retains a copy and returns `true`
    /// iff its total latency is strictly over the threshold.
    pub fn offer(&self, rec: &RequestRecord) -> bool {
        if rec.total_ns() <= self.threshold_ns {
            return false;
        }
        let mut g = self.inner.lock().expect("slow log poisoned");
        if g.0.len() == self.cap {
            g.0.pop_front();
        }
        g.0.push_back(rec.clone());
        g.1 += 1;
        true
    }

    /// Total over-threshold requests seen (not capped by the ring).
    pub fn total(&self) -> u64 {
        self.inner.lock().expect("slow log poisoned").1
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<RequestRecord> {
        self.inner
            .lock()
            .expect("slow log poisoned")
            .0
            .iter()
            .cloned()
            .collect()
    }
}

/// One dispatched batch in the flight recorder: identity, size, and
/// the engine's per-stage spans (relative to `start_ns`).
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Monotone per-recorder sequence number, starting at 1.
    pub seq: u64,
    /// Batch verb: `"score"` or `"align"`.
    pub verb: &'static str,
    /// Clock reading when the batch's engine run started.
    pub start_ns: u64,
    /// Pairs in the batch.
    pub pairs: u64,
    /// DP cells in the batch.
    pub cells: u64,
    /// Stage spans recorded by the engine while running the batch,
    /// with `start_ns` relative to the batch's own origin.
    pub spans: Vec<Span>,
}

/// A point-in-time copy of the flight recorder contents.
#[derive(Debug, Clone, Default)]
pub struct FlightSnapshot {
    /// The last completed requests, oldest first.
    pub requests: Vec<RequestRecord>,
    /// The last dispatched batches, oldest first.
    pub batches: Vec<BatchRecord>,
}

#[derive(Debug, Default)]
struct FlightInner {
    next_seq: u64,
    requests: VecDeque<RequestRecord>,
    batches: VecDeque<BatchRecord>,
}

/// Always-on fixed-size rings of the last completed requests and the
/// last dispatched batches. Bounded memory, lock-per-completion cost;
/// cheap enough to leave enabled in production so the recent past is
/// always dumpable.
#[derive(Debug)]
pub struct FlightRecorder {
    req_cap: usize,
    batch_cap: usize,
    inner: Mutex<FlightInner>,
}

impl FlightRecorder {
    /// A recorder keeping the last `req_cap` requests and `batch_cap`
    /// batches.
    pub fn new(req_cap: usize, batch_cap: usize) -> FlightRecorder {
        FlightRecorder {
            req_cap: req_cap.max(1),
            batch_cap: batch_cap.max(1),
            inner: Mutex::new(FlightInner::default()),
        }
    }

    /// Records a dispatched batch and returns its sequence number
    /// (used to correlate request records with batch spans).
    pub fn record_batch(
        &self,
        verb: &'static str,
        start_ns: u64,
        pairs: u64,
        cells: u64,
        spans: Vec<Span>,
    ) -> u64 {
        let mut g = self.inner.lock().expect("flight recorder poisoned");
        g.next_seq += 1;
        let seq = g.next_seq;
        if g.batches.len() == self.batch_cap {
            g.batches.pop_front();
        }
        g.batches.push_back(BatchRecord {
            seq,
            verb,
            start_ns,
            pairs,
            cells,
            spans,
        });
        seq
    }

    /// Records a completed request.
    pub fn record_request(&self, rec: RequestRecord) {
        let mut g = self.inner.lock().expect("flight recorder poisoned");
        if g.requests.len() == self.req_cap {
            g.requests.pop_front();
        }
        g.requests.push_back(rec);
    }

    /// Copies out the current ring contents.
    pub fn snapshot(&self) -> FlightSnapshot {
        let g = self.inner.lock().expect("flight recorder poisoned");
        FlightSnapshot {
            requests: g.requests.iter().cloned().collect(),
            batches: g.batches.iter().cloned().collect(),
        }
    }
}

/// Renders a flight snapshot as a Chrome trace-event JSON array.
///
/// Two processes: `pid 1` holds the engine batch lanes (`tid` =
/// worker, same convention as [`crate::chrome_trace`], span timestamps
/// rebased to `batch.start_ns + span.start_ns`), `pid 2` holds one
/// lane per request (`tid` = request id) with the five lifecycle
/// stages as sequential spans; the `dispatch` span carries `pairs`,
/// `cells`, `kernel_share_ns` and the serving batch's `seq` as args so
/// a request lane can be correlated with its batch lanes in the
/// viewer.
pub fn flight_trace(snap: &FlightSnapshot) -> String {
    let mut out = String::from("[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
    };

    for (pid, name) in [(1, "engine batches"), (2, "requests")] {
        sep(&mut out);
        let _ = write!(
            out,
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{name}"}}}}"#
        );
    }
    let mut workers: Vec<u32> = snap
        .batches
        .iter()
        .flat_map(|b| b.spans.iter().map(|s| s.worker))
        .collect();
    workers.sort_unstable();
    workers.dedup();
    for &w in &workers {
        sep(&mut out);
        let name = if w == 0 {
            "coordinator".to_string()
        } else {
            format!("worker-{w}")
        };
        let _ = write!(
            out,
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{w},"args":{{"name":"{name}"}}}}"#
        );
    }

    for b in &snap.batches {
        for s in &b.spans {
            let ts = (b.start_ns + s.start_ns) as f64 / 1000.0;
            let end = (b.start_ns + s.start_ns + s.dur_ns) as f64 / 1000.0;
            sep(&mut out);
            let _ = write!(
                out,
                concat!(
                    r#"{{"name":"{}","cat":"{}","ph":"B","ts":{:.3},"pid":1,"tid":{},"#,
                    r#""args":{{"batch":{},"backend":"{}"}}}}"#
                ),
                s.stage.name(),
                s.backend,
                ts,
                s.worker,
                b.seq,
                s.backend
            );
            sep(&mut out);
            let _ = write!(
                out,
                r#"{{"name":"{}","ph":"E","ts":{end:.3},"pid":1,"tid":{}}}"#,
                s.stage.name(),
                s.worker
            );
        }
    }

    for r in &snap.requests {
        sep(&mut out);
        let _ = write!(
            out,
            r#"{{"name":"thread_name","ph":"M","pid":2,"tid":{},"args":{{"name":"req-{}"}}}}"#,
            r.id, r.id
        );
        let stages: [(&str, u64, u64); 5] = [
            ("decode", r.recv_ns, r.decode_ns()),
            ("window_wait", r.admit_ns, r.window_wait_ns()),
            ("queue_wait", r.ready_ns, r.queue_wait_ns()),
            ("dispatch", r.dispatch_start_ns, r.dispatch_ns()),
            ("reply_write", r.reply_start_ns, r.reply_write_ns()),
        ];
        for (name, start, dur) in stages {
            let ts = start as f64 / 1000.0;
            let end = (start + dur) as f64 / 1000.0;
            sep(&mut out);
            let _ = write!(
                out,
                r#"{{"name":"{name}","cat":"request","ph":"B","ts":{ts:.3},"pid":2,"tid":{}"#,
                r.id
            );
            if name == "dispatch" {
                let _ = write!(
                    out,
                    concat!(
                        r#","args":{{"verb":"{}","kind":"{}","scheme":"{}","pairs":{},"#,
                        r#""cells":{},"kernel_share_ns":{},"batch":{}}}"#
                    ),
                    r.verb,
                    r.kind,
                    r.scheme_hex(),
                    r.pairs,
                    r.cells,
                    r.kernel_share_ns,
                    r.batch_seq
                );
            } else {
                out.push_str(r#","args":{}"#);
            }
            out.push('}');
            sep(&mut out);
            let _ = write!(
                out,
                r#"{{"name":"{name}","ph":"E","ts":{end:.3},"pid":2,"tid":{}}}"#,
                r.id
            );
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;

    fn record(id: u64, recv: u64, total: u64) -> RequestRecord {
        RequestRecord {
            id,
            client_id: id,
            verb: "score",
            kind: "global",
            scheme: 0xdead_beef,
            pairs: 4,
            cells: 400,
            batch_seq: 1,
            recv_ns: recv,
            admit_ns: recv,
            ready_ns: recv + total / 2,
            taken_ns: recv + total / 2,
            dispatch_start_ns: recv + total / 2,
            dispatch_end_ns: recv + total,
            reply_start_ns: recv + total,
            done_ns: recv + total,
            kernel_share_ns: total / 4,
        }
    }

    #[test]
    fn stage_decomposition_is_saturating_and_sums_to_total() {
        let r = record(1, 1000, 800);
        assert_eq!(r.decode_ns(), 0);
        assert_eq!(r.window_wait_ns(), 400);
        assert_eq!(r.queue_wait_ns(), 0);
        assert_eq!(r.dispatch_ns(), 400);
        assert_eq!(r.reply_write_ns(), 0);
        assert_eq!(r.total_ns(), 800);
        let sum = r.decode_ns()
            + r.window_wait_ns()
            + r.queue_wait_ns()
            + r.dispatch_ns()
            + r.reply_write_ns();
        assert_eq!(sum, r.total_ns());
        // A default (all-zero) record derives zero stages, no panic.
        let zero = RequestRecord::default();
        assert_eq!(zero.total_ns(), 0);
        assert_eq!(zero.window_wait_ns(), 0);
    }

    #[test]
    fn slow_log_keeps_only_over_threshold_and_bounds_memory() {
        let log = SlowLog::new(1_000, 2);
        assert!(!log.offer(&record(1, 0, 1_000))); // exactly at threshold: not slow
        assert!(log.offer(&record(2, 0, 1_001)));
        assert!(log.offer(&record(3, 0, 5_000)));
        assert!(log.offer(&record(4, 0, 9_000)));
        let entries = log.entries();
        assert_eq!(entries.len(), 2, "ring capacity enforced");
        assert_eq!(
            entries.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![3, 4],
            "oldest evicted first"
        );
        assert_eq!(log.total(), 3, "eviction does not erase the count");
    }

    #[test]
    fn flight_recorder_rings_and_sequences() {
        let fr = FlightRecorder::new(2, 2);
        let s1 = fr.record_batch("score", 0, 4, 400, Vec::new());
        let s2 = fr.record_batch("score", 100, 4, 400, Vec::new());
        let s3 = fr.record_batch("align", 200, 4, 400, Vec::new());
        assert_eq!((s1, s2, s3), (1, 2, 3));
        for id in 1..=3 {
            fr.record_request(record(id, id * 100, 50));
        }
        let snap = fr.snapshot();
        assert_eq!(
            snap.batches.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(
            snap.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    fn flight_trace_has_two_processes_and_balanced_events() {
        let fr = FlightRecorder::new(8, 8);
        let span = Span {
            stage: Stage::Kernel,
            backend: "simd",
            unit: 0,
            worker: 0,
            start_ns: 10,
            dur_ns: 100,
        };
        fr.record_batch("score", 2_000, 4, 400, vec![span]);
        fr.record_request(record(7, 1_000, 2_000));
        let json = flight_trace(&fr.snapshot());
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert_eq!(
            json.matches(r#""ph":"B""#).count(),
            json.matches(r#""ph":"E""#).count()
        );
        // Batch span rebased onto the daemon clock: 2000 + 10 ns.
        assert!(json.contains(r#""name":"kernel","cat":"simd","ph":"B","ts":2.010"#));
        // The five request lifecycle stages on pid 2, lane = request id.
        for stage in [
            "decode",
            "window_wait",
            "queue_wait",
            "dispatch",
            "reply_write",
        ] {
            assert!(
                json.contains(&format!(r#""name":"{stage}","cat":"request""#)),
                "missing {stage}"
            );
        }
        assert!(json.contains(r#""pid":2,"tid":7"#));
        assert!(json.contains(r#""kernel_share_ns":500"#));
        assert!(json.contains(r#""scheme":"00000000deadbeef""#));
    }
}
