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

pub mod farrar;
pub mod nvbio;
pub mod parasail;
pub mod seqan;

pub use nvbio::NvbioLike;
pub use parasail::ParasailLike;
pub use seqan::SeqAnLike;

use anyseq_core::score::Score;
use anyseq_seq::Seq;

/// Shared batch driver: scores pairs in parallel with a per-pair scoring
/// closure (used by baselines whose batch path has no dedicated kernel).
pub fn batch_with<F>(pairs: &[(Seq, Seq)], threads: usize, score: F) -> Vec<Score>
where
    F: Fn(&[u8], &[u8]) -> Score + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    let threads = threads.max(1);
    let mut out = vec![0 as Score; pairs.len()];
    struct Out(*mut Score);
    unsafe impl Send for Out {}
    unsafe impl Sync for Out {}
    let optr = Out(out.as_mut_ptr());
    let next = AtomicUsize::new(0);
    {
        let optr = &optr;
        let next = &next;
        let score = &score;
        std::thread::scope(|sc| {
            for _ in 0..threads {
                sc.spawn(move || loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= pairs.len() {
                        break;
                    }
                    let v = score(pairs[k].0.codes(), pairs[k].1.codes());
                    // SAFETY: each index written exactly once.
                    unsafe { *optr.0.add(k) = v };
                });
            }
        });
    }
    out
}
