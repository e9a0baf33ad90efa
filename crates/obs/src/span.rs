//! Span recording with per-worker thread-local buffers.
//!
//! The hot path never takes a lock: each worker thread installs a
//! [`WorkerGuard`] that owns a thread-local buffer, spans are pushed to
//! that buffer as plain `Vec` appends, and the buffer is drained into
//! the shared [`BatchTracer`] sink exactly once, when the guard drops.
//!
//! When no guard is installed on the current thread — the default, and
//! the case whenever observability is disabled — every recording call
//! degenerates to a single thread-local read and records nothing, so
//! instrumented library code pays effectively nothing in production.
//!
//! Spans carry a context of `(backend, unit)` labels set by the
//! scheduler via [`set_context`]; library code below the scheduler (the
//! SIMD kernels, the backend adapters) only names the [`Stage`], and the
//! labels in effect at commit time are attached automatically.

use crate::stage::Stage;
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

/// Label value meaning "no unit applies to this span"
/// (scheduler-side phases such as cache probing or the final merge).
pub const NO_ID: u32 = u32::MAX;

/// One closed span: a stage interval on one worker lane, tagged with
/// the scheduling context in effect when it was committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Pipeline stage this interval belongs to.
    pub stage: Stage,
    /// Component or backend label (`"sched"` for scheduler phases,
    /// otherwise the executing engine's `Caps::name`).
    pub backend: &'static str,
    /// Unit id within the batch, or [`NO_ID`].
    pub unit: u32,
    /// Worker lane (0 = coordinator thread).
    pub worker: u32,
    /// Start offset from the tracer's origin, in nanoseconds.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

struct Recorder {
    origin: Instant,
    worker: u32,
    backend: &'static str,
    unit: u32,
    buf: Vec<Span>,
}

thread_local! {
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Collects spans from all worker lanes of one batch run.
///
/// Create one per batch, hand each worker thread a guard via
/// [`BatchTracer::worker`], and call [`BatchTracer::finish`] after all
/// guards have dropped to obtain the sorted span list.
#[derive(Debug)]
pub struct BatchTracer {
    origin: Instant,
    sink: Mutex<Vec<Span>>,
}

impl Default for BatchTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchTracer {
    /// Starts a tracer; all span timestamps are offsets from this call.
    pub fn new() -> BatchTracer {
        BatchTracer {
            origin: Instant::now(),
            sink: Mutex::new(Vec::new()),
        }
    }

    /// Installs a recorder for the current thread, labelled as worker
    /// lane `worker`. Recording calls on this thread buffer locally
    /// until the returned guard drops. One guard per thread at a time.
    pub fn worker(&self, worker: u32) -> WorkerGuard<'_> {
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            debug_assert!(cur.is_none(), "nested span recorders are not supported");
            *cur = Some(Recorder {
                origin: self.origin,
                worker,
                backend: "sched",
                unit: NO_ID,
                buf: Vec::with_capacity(64),
            });
        });
        WorkerGuard { tracer: self }
    }

    /// Consumes the tracer and returns all drained spans, sorted by
    /// `(worker, start_ns)`. Call only after every guard has dropped;
    /// spans still sitting in live thread-local buffers are not seen.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self.sink.into_inner().expect("tracer sink poisoned");
        spans.sort_by_key(|s| (s.worker, s.start_ns));
        spans
    }
}

/// Uninstalls the thread's recorder on drop, flushing its buffer into
/// the owning [`BatchTracer`].
#[must_use = "spans record only while the guard is alive"]
#[derive(Debug)]
pub struct WorkerGuard<'a> {
    tracer: &'a BatchTracer,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        let rec = CURRENT.with(|c| c.borrow_mut().take());
        if let Some(rec) = rec {
            if !rec.buf.is_empty() {
                self.tracer
                    .sink
                    .lock()
                    .expect("tracer sink poisoned")
                    .extend_from_slice(&rec.buf);
            }
        }
    }
}

/// An open interval started by [`timer`]. Inert (`None`) when the
/// current thread had no recorder at start time.
#[derive(Debug)]
pub struct Timer(Option<Instant>);

/// Whether the current thread has an active span recorder.
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Starts an interval. Cheap no-op (a thread-local read) when the
/// current thread records nothing.
pub fn timer() -> Timer {
    Timer(enabled().then(Instant::now))
}

/// Closes `t` and records it as a span for `stage` with the thread's
/// current context labels. No-op for inert timers.
pub fn commit(stage: Stage, t: Timer) {
    let Some(start) = t.0 else { return };
    let dur_ns = start.elapsed().as_nanos() as u64;
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow_mut().as_mut() {
            let start_ns = start.duration_since(rec.origin).as_nanos() as u64;
            rec.buf.push(Span {
                stage,
                backend: rec.backend,
                unit: rec.unit,
                worker: rec.worker,
                start_ns,
                dur_ns,
            });
        }
    });
}

/// Runs `f` inside a span for `stage`.
pub fn span<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    let t = timer();
    let r = f();
    commit(stage, t);
    r
}

/// Sets the `(backend, unit)` labels attached to subsequently
/// committed spans on this thread. No-op without a recorder.
pub fn set_context(backend: &'static str, unit: u32) {
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow_mut().as_mut() {
            rec.backend = backend;
            rec.unit = unit;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_with_context() {
        let tracer = BatchTracer::new();
        {
            let _g = tracer.worker(3);
            span(Stage::Hash, || ());
            set_context("simd", 7);
            let t = timer();
            std::thread::sleep(std::time::Duration::from_millis(1));
            commit(Stage::Kernel, t);
        }
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Hash);
        assert_eq!(spans[0].backend, "sched");
        assert_eq!(spans[0].unit, NO_ID);
        assert_eq!(spans[1].stage, Stage::Kernel);
        assert_eq!(spans[1].backend, "simd");
        assert_eq!((spans[1].unit, spans[1].worker), (7, 3));
        assert!(spans[1].dur_ns >= 1_000_000);
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }

    #[test]
    fn noop_without_guard() {
        assert!(!enabled());
        // Must not panic or record anywhere.
        span(Stage::Kernel, || ());
        commit(Stage::Merge, timer());
        set_context("x", 0);
        let tracer = BatchTracer::new();
        assert!(tracer.finish().is_empty());
    }

    #[test]
    fn workers_drain_into_one_sink_sorted() {
        let tracer = BatchTracer::new();
        std::thread::scope(|sc| {
            for w in 1..=4u32 {
                let tracer = &tracer;
                sc.spawn(move || {
                    let _g = tracer.worker(w);
                    for _ in 0..3 {
                        span(Stage::Kernel, || std::hint::black_box(w));
                    }
                });
            }
        });
        let spans = tracer.finish();
        assert_eq!(spans.len(), 12);
        let sorted = spans
            .windows(2)
            .all(|p| (p[0].worker, p[0].start_ns) <= (p[1].worker, p[1].start_ns));
        assert!(sorted);
    }
}
