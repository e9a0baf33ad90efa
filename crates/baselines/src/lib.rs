//! # anyseq-baselines — comparator strategies, implemented from scratch
//!
//! The paper evaluates AnySeq against SeqAn 2.4 (CPU), Parasail 2.0
//! (CPU) and NVBio 1.1 (GPU). Those codebases are not portable into this
//! workspace, but the paper *names* the strategy differences responsible
//! for the observed gaps; each baseline here implements exactly those
//! strategies on top of the shared substrates:
//!
//! * [`seqan::SeqAnLike`] — dynamic wavefront with a mutex-deque queue
//!   and a masked-dataflow SIMD kernel,
//! * [`parasail::ParasailLike`] — static barrier wavefront, always-affine
//!   recurrence, minor-diagonal tile interior,
//! * [`nvbio::NvbioLike`] — GPU kernel without phasing/coalescing,
//! * [`farrar`] — the striped intra-sequence SIMD layout of SSW
//!   (paper refs \[15\], \[28\]) as an extra short-read baseline.

#![forbid(unsafe_code)]

pub mod farrar;
pub mod nvbio;
pub mod parasail;
pub mod seqan;

pub use nvbio::NvbioLike;
pub use parasail::ParasailLike;
pub use seqan::SeqAnLike;

use anyseq_core::score::Score;
use anyseq_seq::Seq;
use anyseq_wavefront::run_workers;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shared batch driver: scores pairs on `threads` workers of the shared
/// pool with a per-pair scoring closure (used by baselines whose batch
/// path has no dedicated kernel).
pub fn batch_with<F>(pairs: &[(Seq, Seq)], threads: usize, score: F) -> Vec<Score>
where
    F: Fn(&[u8], &[u8]) -> Score + Sync,
{
    let next = AtomicUsize::new(0);
    let done = run_workers(threads, |_| {
        let draw = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&k| k < pairs.len());
        std::iter::from_fn(draw)
            .map(|k| (k, score(pairs[k].0.codes(), pairs[k].1.codes())))
            .collect::<Vec<_>>()
    });
    let mut out = vec![0 as Score; pairs.len()];
    for (k, v) in done.into_iter().flatten() {
        out[k] = v;
    }
    out
}
