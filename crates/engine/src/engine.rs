//! The [`Engine`] trait: one batch-execution contract every backend
//! implements, plus the capability descriptor dispatch uses to route
//! work.
//!
//! ## Trait contract
//!
//! * **Bit-exact**: a backend's scores must equal `Scheme::score` for
//!   every input it accepts, and every alignment it returns must carry
//!   that exact score with an operation sequence that replays to it
//!   (`Alignment::validate`). Tie-breaks in the traceback may differ
//!   between backends — equally optimal paths are interchangeable;
//!   wrong scores or non-replaying CIGARs are not. The scalar engine
//!   is the reference; `tests/cross_engine.rs` enforces this.
//! * **Order-stable**: results come back in input order.
//! * **Honest refusal**: a backend that cannot run a request returns
//!   [`EngineError::Unsupported`] instead of approximating — the
//!   dispatch layer falls back to the next candidate (the scalar
//!   engine accepts everything, so a batch always completes).
//! * **Thread budget**: `threads` is the parallelism the caller grants.
//!   Pool workers call engines with `threads = 1`; device-style
//!   engines that parallelize *inside* one pair (wavefront) are run
//!   exclusively and receive the whole budget.

use crate::spec::{KindSpec, SchemeSpec};
use anyseq_core::score::Score;
use anyseq_core::Alignment;
use anyseq_seq::PairRef;

/// Static capability flags a backend advertises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// Backend name (stable; used in stats and CLI flags).
    pub name: &'static str,
    /// Alignment kinds `score_batch` accepts.
    pub score_kinds: &'static [KindSpec],
    /// Alignment kinds `align_batch` accepts (empty ⇒ score-only).
    pub align_kinds: &'static [KindSpec],
    /// Whether a call runs on the calling thread (lane-packed SIMD,
    /// the scalar reference): such engines are sharded across the
    /// scheduler's pool. The rest parallelize inside one pair and run
    /// exclusively with the full thread budget.
    pub batch_native: bool,
}

impl Caps {
    /// Whether `score_batch` accepts this spec.
    pub fn supports_score(&self, spec: &SchemeSpec) -> bool {
        self.score_kinds.contains(&spec.kind)
    }

    /// Whether `align_batch` accepts this spec.
    pub fn supports_align(&self, spec: &SchemeSpec) -> bool {
        self.align_kinds.contains(&spec.kind)
    }
}

/// Why a backend declined a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The request is outside this backend's capabilities.
    Unsupported {
        /// Declining backend.
        backend: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// A single pair's resident unit — the whole matrix, or one slab
    /// when the backend's shard budget cuts it — exceeds the backend's
    /// per-unit cell bound
    /// ([`WavefrontEngine::with_max_unit_cells`](crate::WavefrontEngine::with_max_unit_cells)).
    /// Unlike [`EngineError::Unsupported`] this refusal is *terminal*:
    /// falling back to another backend would execute the very
    /// allocation the bound exists to prevent, so the scheduler
    /// surfaces it instead of degrading to scalar.
    UnitTooLarge {
        /// Refusing backend.
        backend: &'static str,
        /// DP cells of the offending unit.
        cells: u64,
        /// The backend's per-unit bound.
        max_unit_cells: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Unsupported { backend, reason } => {
                write!(f, "backend {backend} cannot run this batch: {reason}")
            }
            EngineError::UnitTooLarge {
                backend,
                cells,
                max_unit_cells,
            } => {
                write!(
                    f,
                    "backend {backend} refuses a {cells}-cell unit: exceeds max_unit_cells \
                     {max_unit_cells} and no shard plan applies (raise the bound or lower \
                     --shard-cells)"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// Convenience constructor.
    pub fn unsupported(backend: &'static str, reason: impl Into<String>) -> EngineError {
        EngineError::Unsupported {
            backend,
            reason: reason.into(),
        }
    }

    /// Convenience constructor for the oversized-unit refusal.
    pub fn unit_too_large(backend: &'static str, cells: u64, max_unit_cells: u64) -> EngineError {
        EngineError::UnitTooLarge {
            backend,
            cells,
            max_unit_cells,
        }
    }
}

/// A batch-execution backend.
///
/// Requests are **borrowed**: a slice of [`PairRef`]s (`&[u8]` code
/// slices into storage the caller keeps alive — a
/// [`SeqStore`](anyseq_seq::SeqStore) arena, a `Vec<(Seq, Seq)>`, …).
/// Implementations must not clone sequence bytes except where the
/// substrate genuinely requires a different layout (the lane-transposed
/// SIMD buffers); such copies should be reported through
/// [`Engine::drain_counters`] as a `<name>.bytes_copied` counter.
pub trait Engine: Send + Sync {
    /// Capability flags.
    fn caps(&self) -> Caps;

    /// Scores every pair, results in input order.
    ///
    /// ```
    /// use anyseq_engine::{Engine, ScalarEngine, SchemeSpec};
    /// use anyseq_seq::{BatchView, Seq};
    ///
    /// let spec = SchemeSpec::global_linear(2, -1, -1);
    /// let pairs = vec![(
    ///     Seq::from_ascii(b"ACGTACGT").unwrap(),
    ///     Seq::from_ascii(b"ACGTTACGT").unwrap(),
    /// )];
    /// let view = BatchView::from_pairs(&pairs);
    /// let scores = ScalarEngine.score_batch(&spec, view.refs(), 1).unwrap();
    /// assert_eq!(scores, vec![15]);
    /// ```
    fn score_batch(
        &self,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        threads: usize,
    ) -> Result<Vec<Score>, EngineError>;

    /// Aligns every pair with traceback, results in input order.
    ///
    /// Scores must equal `Scheme::align`; the operation sequence must
    /// replay to exactly that score (`Alignment::validate`), though
    /// tie-breaks may differ from the scalar Hirschberg traceback.
    fn align_batch(
        &self,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        threads: usize,
    ) -> Result<Vec<Alignment>, EngineError>;

    /// Returns and resets backend-internal execution counters
    /// accumulated since the last drain (e.g. the SIMD backend's
    /// band-width/overflow telemetry). The scheduler drains after
    /// every unit and merges the values into `BatchStats::counters`
    /// under the returned names; counters are additive across drains.
    ///
    /// The default implementation reports nothing — counters are an
    /// optional part of the contract.
    fn drain_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// All four kinds — capability list for fully generic backends.
pub const ALL_KINDS: &[KindSpec] = &[
    KindSpec::Global,
    KindSpec::Local,
    KindSpec::SemiGlobal,
    KindSpec::FreeEnd,
];

/// Kinds the lane-packed inter-sequence SIMD batcher implements
/// natively: the corner optimum plus the border/anywhere optima its
/// kind-generic striped kernel tracks in-register. `FreeEnd` is the
/// one hold-out (no striped kernel yet).
pub const SIMD_KINDS: &[KindSpec] = &[KindSpec::Global, KindSpec::SemiGlobal, KindSpec::Local];
