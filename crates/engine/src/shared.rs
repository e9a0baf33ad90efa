//! A `Send + Sync` dispatcher handle for serving layers.
//!
//! [`Dispatch`] and [`BatchScheduler`] are already shareable by
//! reference (every [`Engine`](crate::Engine) is `Send + Sync`), but a
//! daemon that runs many batches over one dispatch used to be on its
//! own for cross-batch accounting: each [`BatchRun`] carries the stats
//! of *that* batch, and callers had to thread a mutable
//! [`BatchStats`] accumulator and call [`BatchStats::merge`] by hand —
//! easy to forget, impossible from `&self`. [`SharedDispatcher`] bundles
//! the dispatch, a scheduler, and an internally synchronized cumulative
//! accumulator behind one handle that can sit in an `Arc` and be hit
//! from every connection thread.
//!
//! Per-batch spans are *not* retained in the cumulative accumulator
//! (they would grow without bound on a long-lived daemon); their
//! per-stage wall totals survive as the `stage.<name>_ns` counters the
//! scheduler folds in, so cross-batch stage accounting stays exact.

use crate::dispatch::Dispatch;
use crate::engine::EngineError;
use crate::scheduler::{BatchCfg, BatchRun, BatchScheduler};
use crate::spec::SchemeSpec;
use crate::stats::BatchStats;
use anyseq_core::score::Score;
use anyseq_core::Alignment;
use anyseq_seq::BatchView;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A shareable dispatcher: one [`Dispatch`] + [`BatchScheduler`] pair
/// with cumulative cross-batch statistics maintained internally.
///
/// ```
/// use anyseq_engine::{BatchCfg, DispatchPolicy, SharedDispatcher};
/// use anyseq_seq::{BatchView, Seq};
/// use std::sync::Arc;
///
/// let shared = Arc::new(SharedDispatcher::new(
///     DispatchPolicy::auto().standard(),
///     BatchCfg::threads(2),
/// ));
/// let pairs = vec![(Seq::from_ascii(b"ACGT").unwrap(), Seq::from_ascii(b"ACGA").unwrap())];
/// let spec = anyseq_engine::SchemeSpec::global_linear(2, -1, -1);
/// let run = shared.try_score_batch(&spec, &BatchView::from_pairs(&pairs)).unwrap();
/// assert_eq!(run.results, vec![5]);
/// // The handle kept the books: no manual `BatchStats::merge` needed.
/// assert_eq!(shared.batches(), 1);
/// assert_eq!(shared.cumulative().pairs, 1);
/// ```
pub struct SharedDispatcher {
    dispatch: Dispatch,
    scheduler: BatchScheduler,
    batches: AtomicU64,
    cumulative: Mutex<BatchStats>,
}

impl SharedDispatcher {
    /// Wraps a dispatch with a scheduler of the given configuration.
    pub fn new(dispatch: Dispatch, cfg: BatchCfg) -> SharedDispatcher {
        SharedDispatcher {
            dispatch,
            scheduler: BatchScheduler::new(cfg),
            batches: AtomicU64::new(0),
            cumulative: Mutex::new(BatchStats::default()),
        }
    }

    /// The wrapped dispatch (cache, metrics registry, policy).
    pub fn dispatch(&self) -> &Dispatch {
        &self.dispatch
    }

    /// The scheduler configuration batches run under.
    pub fn cfg(&self) -> BatchCfg {
        self.scheduler.cfg
    }

    /// Scores a batch and folds its stats into the cumulative snapshot
    /// (a refused batch leaves the books untouched).
    pub fn try_score_batch(
        &self,
        spec: &SchemeSpec,
        view: &BatchView<'_>,
    ) -> Result<BatchRun<Score>, EngineError> {
        let run = self.scheduler.try_score_batch(&self.dispatch, spec, view)?;
        self.absorb(&run.stats);
        Ok(run)
    }

    /// Aligns a batch and folds its stats into the cumulative snapshot
    /// (a refused batch leaves the books untouched).
    pub fn try_align_batch(
        &self,
        spec: &SchemeSpec,
        view: &BatchView<'_>,
    ) -> Result<BatchRun<Alignment>, EngineError> {
        let run = self.scheduler.try_align_batch(&self.dispatch, spec, view)?;
        self.absorb(&run.stats);
        Ok(run)
    }

    /// Number of batches dispatched through this handle.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// A copy of the cumulative cross-batch statistics: every additive
    /// [`BatchStats`] field summed over all batches run through this
    /// handle (counters including `stage.*_ns` and `cache.*`,
    /// per-backend usage, pairs/cells/bins/units/fallbacks).
    /// `wall_seconds` is the *sum* of per-batch walls — meaningful for
    /// sequential batches, an overcount for concurrent ones (see
    /// [`BatchStats::merge`]). `spans` is always empty here.
    pub fn cumulative(&self) -> BatchStats {
        self.cumulative
            .lock()
            .expect("cumulative stats poisoned")
            .clone()
    }

    fn absorb(&self, stats: &BatchStats) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let mut acc = self.cumulative.lock().expect("cumulative stats poisoned");
        acc.merge(stats);
        // Spans are per-batch artifacts (Chrome traces); retaining them
        // forever would leak on a daemon. Their stage totals already
        // merged via the `stage.<name>_ns` counters.
        acc.spans.clear();
    }
}

impl std::fmt::Debug for SharedDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDispatcher")
            .field("batches", &self.batches())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::DispatchPolicy;
    use anyseq_seq::testsupport::read_pairs;
    use std::sync::Arc;

    /// Cross-batch counters — including the observability-derived
    /// `stage.*_ns` wall totals and the result-cache `cache.*` series —
    /// must accumulate exactly: cumulative == Σ per-run stats.
    #[test]
    fn cumulative_matches_manual_merge_exactly() {
        let shared = SharedDispatcher::new(
            DispatchPolicy::auto().cache_mb(4).observe(true).standard(),
            BatchCfg::threads(2),
        );
        let batch_a = read_pairs(12, 7);
        let batch_b = read_pairs(9, 8);
        // Re-run batch_a so the second pass hits the shared cache and
        // the `cache.hits` counter has cross-batch content to check.
        let mut expected = BatchStats::default();
        for pairs in [&batch_a, &batch_b, &batch_a] {
            let run = shared
                .try_align_batch(
                    &SchemeSpec::global_linear(2, -1, -1),
                    &BatchView::from_pairs(pairs),
                )
                .unwrap();
            expected.merge(&run.stats);
        }
        assert_eq!(shared.batches(), 3);
        let got = shared.cumulative();
        assert_eq!(got.pairs, expected.pairs);
        assert_eq!(got.cells, expected.cells);
        assert_eq!(got.bins, expected.bins);
        assert_eq!(got.units, expected.units);
        assert_eq!(got.fallbacks, expected.fallbacks);
        assert_eq!(got.counters, expected.counters, "counter maps must match");
        assert!(got.counters.keys().any(|k| k.starts_with("stage.")));
        assert!(got.counters["cache.hits"] >= batch_a.len() as u64);
        assert_eq!(got.per_backend, expected.per_backend);
        assert!((got.wall_seconds - expected.wall_seconds).abs() < 1e-12);
        assert!(got.spans.is_empty(), "spans must not accumulate");
    }

    #[test]
    fn handle_is_shareable_across_threads() {
        let shared = Arc::new(SharedDispatcher::new(
            DispatchPolicy::auto().standard(),
            BatchCfg::threads(1),
        ));
        let pairs = read_pairs(6, 3);
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let baseline = shared
            .try_score_batch(&spec, &BatchView::from_pairs(&pairs))
            .unwrap()
            .results;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = Arc::clone(&shared);
                let pairs = &pairs;
                let baseline = &baseline;
                scope.spawn(move || {
                    let run = shared.try_score_batch(&spec, &BatchView::from_pairs(pairs));
                    assert_eq!(&run.unwrap().results, baseline);
                });
            }
        });
        assert_eq!(shared.batches(), 5);
        assert_eq!(shared.cumulative().pairs, 5 * pairs.len() as u64);
    }
}
