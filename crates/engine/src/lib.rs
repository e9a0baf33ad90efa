//! # anyseq-engine — unified multi-backend batch execution
//!
//! The AnySeq paper gets its speed from specializing one generic DP
//! core into dedicated kernels per target; this crate turns that
//! *collection of kernels* into one schedulable system:
//!
//! * [`Engine`] — the batch-execution contract (score/align a batch,
//!   capability flags) with adapters for the scalar core, the
//!   inter-sequence SIMD batcher and the tiled wavefront
//!   ([`backends`]),
//! * [`BatchScheduler`] — one request path, probe → plan → execute →
//!   settle → report, behind two fallible entry points
//!   ([`BatchScheduler::try_score_batch`] /
//!   [`BatchScheduler::try_align_batch`]): length-bins a batch to
//!   minimize SIMD lane divergence and tile padding waste, shards bins
//!   across a worker pool (std threads + a shared counter, no external
//!   deps) and returns results in input order ([`scheduler`]),
//! * [`Dispatch`] — the policy layer: auto or explicit backend
//!   selection with graceful per-unit fallback, plus per-batch
//!   statistics (cells, GCUPS, backend utilization — [`stats`]),
//! * [`ResultCache`] — optional content-hash result caching for
//!   repeated-read workloads ([`DispatchPolicy::cache_mb`]): repeated
//!   `(scheme, q, s)` pairs — PCR duplicates, resequenced reads — are
//!   recognized before work units form and never reach a backend
//!   ([`cache`]).
//!
//! Requests are **zero-copy**: the scheduler consumes a
//! [`BatchView`](anyseq_seq::BatchView) of borrowed
//! [`PairRef`](anyseq_seq::PairRef)s (build one over owned pairs, or
//! over a [`SeqStore`](anyseq_seq::SeqStore) arena) and work units
//! carry indices into it — no sequence bytes are cloned between the
//! caller and the kernels (the SIMD lane transpose is the one
//! substrate-required copy, reported as `simd.bytes_copied`).
//!
//! ```
//! use anyseq_engine::{BatchCfg, BatchScheduler, Dispatch, Policy, SchemeSpec};
//! use anyseq_seq::{BatchView, Seq};
//!
//! let pairs = vec![
//!     (Seq::from_ascii(b"ACGTACGT").unwrap(), Seq::from_ascii(b"ACGTTACGT").unwrap()),
//!     (Seq::from_ascii(b"TTTT").unwrap(), Seq::from_ascii(b"TTAT").unwrap()),
//! ];
//! let view = BatchView::from_pairs(&pairs);
//! let spec = SchemeSpec::global_linear(2, -1, -1);
//! let dispatch = Dispatch::standard(Policy::Auto);
//! let run = BatchScheduler::new(BatchCfg::threads(2))
//!     .try_score_batch(&dispatch, &spec, &view)
//!     .expect("the standard registry refuses nothing without a unit bound");
//! assert_eq!(run.results, vec![15, 5]);
//! assert_eq!(run.stats.counters["sched.bytes_copied"], 0);
//! println!("{}", run.stats.summary());
//! ```
//!
//! ## Adding a backend
//!
//! 1. Implement [`Engine`] for your substrate. Use [`with_scheme!`]
//!    to lower the runtime [`SchemeSpec`] onto monomorphized kernels
//!    (name the kinds you implement and give the rest an `else` arm
//!    that returns [`EngineError::Unsupported`]) — never approximate,
//!    and return exactly one value per pair: the scheduler turns a
//!    miscount into a batch error. A substrate that relaxes tiles of
//!    one long pair is not a new pass: implement
//!    `anyseq_wavefront::TileKernel` and instantiate `TiledPass` with
//!    it, as [`WavefrontEngine`] does with `anyseq_simd::LaneTiles`.
//! 2. Describe yourself honestly in [`Caps`]: supported kinds for
//!    score/align, and whether one call amortizes
//!    across pairs (`batch_native`; `false` means the scheduler runs
//!    you exclusively with the whole thread budget).
//! 3. Register it: give it a [`BackendId`] variant (name, declined
//!    counter, parse) and a slot in [`DispatchPolicy::standard`];
//!    [`Dispatch::with_engine`] swaps the implementation behind an
//!    existing id (how the tests inject bounded or faulty engines).
//!    The scalar reference stays last in every candidate chain, so a
//!    refusal degrades gracefully instead of failing the batch.
//! 4. Extend `tests/cross_engine.rs` — every backend must reproduce
//!    `Scheme::score` exactly, and every alignment it returns must
//!    carry that exact score with ops that replay to it
//!    (`Alignment::validate`); traceback tie-breaks may differ from
//!    the scalar reference.
//!
//! The registry holds the three backends every workload runs. The
//! GPU and FPGA simulators (`anyseq-gpu-sim`, `anyseq-fpga-sim`) are
//! paper-figure models driven by the `anyseq-bench` figure binaries,
//! not serving backends: this crate does not depend on them.
//!
//! The full walkthrough (with the dispatch flow and the SIMD banded
//! traceback design) lives in `docs/ARCHITECTURE.md`.

#![deny(missing_docs)]
// No `unsafe`: the scheduler's pool hands results back through
// checked slots, and every thread a backend runs on comes from the
// workspace's one pool (`anyseq_wavefront::run_workers`), which returns
// each worker's output instead of sharing a buffer.
#![forbid(unsafe_code)]

pub mod backends;
pub mod cache;
pub mod dispatch;
#[allow(clippy::module_inception)]
pub mod engine;
pub mod report;
pub mod scheduler;
pub mod spec;
pub mod stats;

pub use backends::{ScalarEngine, SimdEngine, WavefrontEngine, SIMD_LANES};
pub use cache::{CacheKey, ReqKind, ResultCache, ShardStats};
pub use dispatch::{BackendId, Dispatch, DispatchPolicy, Policy, MIN_SHARD_CELLS};
pub use engine::{Caps, Engine, EngineError};
pub use report::{stats_json, summary_with_utilization};
pub use scheduler::{
    BatchCfg, BatchRun, BatchScheduler, FALLBACK_KIND_UNSUPPORTED, SCHED_BYTES_COPIED,
};
pub use spec::{GapSpec, KindSpec, SchemeSpec, SpecError};
pub use stats::{cell_share_ns, BackendUse, BatchStats};

/// The ISA tier the SIMD lane kernels run on in this process
/// (`"avx2"` / `"baseline"`).
pub use anyseq_simd::isa as simd_isa;

/// Convenience re-exports for applications.
pub mod prelude {
    pub use crate::backends::{ScalarEngine, SimdEngine, WavefrontEngine};
    pub use crate::cache::{CacheKey, ReqKind, ResultCache};
    pub use crate::dispatch::{BackendId, Dispatch, DispatchPolicy, Policy, MIN_SHARD_CELLS};
    pub use crate::engine::{Caps, Engine, EngineError};
    pub use crate::report::{stats_json, summary_with_utilization};
    pub use crate::scheduler::{
        BatchCfg, BatchRun, BatchScheduler, FALLBACK_KIND_UNSUPPORTED, SCHED_BYTES_COPIED,
    };
    pub use crate::spec::{GapSpec, KindSpec, SchemeSpec};
    pub use crate::stats::{BackendUse, BatchStats};
}
