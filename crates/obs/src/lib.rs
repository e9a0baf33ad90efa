//! # anyseq-obs — tracing spans and metrics for the batch pipeline
//!
//! A dependency-free observability layer: a fixed [`Stage`] taxonomy, a
//! per-worker span recorder ([`BatchTracer`]), a [`MetricsRegistry`] of
//! counters / gauges / log-bucketed [`Histogram`]s, two exporters —
//! [`prometheus_text`] and [`chrome_trace`] — and a request-scoped
//! layer for the serving daemon ([`RequestRecord`], [`SlowLog`],
//! [`FlightRecorder`] with its [`flight_trace`] exporter).
//!
//! The design constraint is *zero cost when disabled*: instrumentation
//! call-sites use the free functions [`timer`] / [`commit`] / [`span`],
//! which consult a thread-local recorder slot and do nothing (one TLS
//! read) unless the enclosing scheduler installed a [`WorkerGuard`] for
//! the current thread. Library crates below the scheduler therefore
//! instrument unconditionally and need no config plumbing.
//!
//! ```
//! use anyseq_obs::{BatchTracer, Stage};
//!
//! let tracer = BatchTracer::new();
//! {
//!     let _guard = tracer.worker(1);
//!     anyseq_obs::set_context("simd", 0);
//!     anyseq_obs::span(Stage::Kernel, || { /* hot work */ });
//! }
//! let spans = tracer.finish();
//! assert_eq!(spans[0].stage, Stage::Kernel);
//! let json = anyseq_obs::chrome_trace(&spans);
//! assert!(json.contains("\"ph\":\"B\""));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod export;
mod metrics;
mod request;
mod span;
mod stage;

pub use export::{chrome_trace, prometheus_text};
pub use metrics::{labels, Histogram, MetricsRegistry, MetricsSnapshot};
pub use request::{
    flight_trace, BatchRecord, FlightRecorder, FlightSnapshot, RequestRecord, SlowLog,
};
pub use span::{
    commit, enabled, set_context, span, timer, BatchTracer, Span, Timer, WorkerGuard, NO_ID,
};
pub use stage::Stage;
