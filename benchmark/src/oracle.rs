//! Expected results and their checking: scores from the program's
//! scalar reference (`anyseq_core` `Scheme::score_codes`), alignments
//! replayed by a replayer the benchmark owns.

use crate::gen::Pool;
use anyseq_core::prelude::{affine, global, linear, semiglobal, simple};
use anyseq_core::{AffineGap, AlignOp, Alignment, Global, Scheme, SemiGlobal, SimpleSubst};
use anyseq_engine::{KindSpec, SchemeSpec};

const MATCH: i32 = 2;
const MISMATCH: i32 = -1;
const GAP_OPEN: i32 = -2;
const GAP_EXTEND: i32 = -1;
const LINEAR_GAP: i32 = -1;

/// [`Sch::GlobalAffine`] as the typed scheme the kernel-level rungs of
/// the ladder call into.
pub fn global_affine() -> Scheme<Global, AffineGap, SimpleSubst> {
    global(affine(simple(MATCH, MISMATCH), GAP_OPEN, GAP_EXTEND))
}

/// [`Sch::SemiGlobalAffine`], typed.
pub fn semiglobal_affine() -> Scheme<SemiGlobal, AffineGap, SimpleSubst> {
    semiglobal(affine(simple(MATCH, MISMATCH), GAP_OPEN, GAP_EXTEND))
}

/// The three schemes the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sch {
    GlobalAffine,
    GlobalLinear,
    SemiGlobalAffine,
}

impl Sch {
    pub fn spec(self) -> SchemeSpec {
        let affine = SchemeSpec::global_affine(MATCH, MISMATCH, GAP_OPEN, GAP_EXTEND);
        match self {
            Sch::GlobalAffine => affine,
            Sch::GlobalLinear => SchemeSpec::global_linear(MATCH, MISMATCH, LINEAR_GAP),
            Sch::SemiGlobalAffine => affine.with_kind(KindSpec::SemiGlobal),
        }
    }

    /// The scalar oracle.
    pub fn score(self, q: &[u8], s: &[u8]) -> i32 {
        let subst = simple(MATCH, MISMATCH);
        match self {
            Sch::GlobalAffine => global_affine().score_codes(q, s),
            Sch::GlobalLinear => global(linear(subst, LINEAR_GAP)).score_codes(q, s),
            Sch::SemiGlobalAffine => semiglobal_affine().score_codes(q, s),
        }
    }

    fn gap_run(self, len: usize) -> i32 {
        match self {
            Sch::GlobalLinear => LINEAR_GAP * len as i32,
            _ => GAP_OPEN + GAP_EXTEND * len as i32,
        }
    }
}

/// Oracle scores of every pool pair, computed on `threads` threads.
pub fn scores(sch: Sch, pool: &Pool, threads: usize) -> Vec<i32> {
    let mut out = vec![0i32; pool.len()];
    let chunk = pool.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for (c, slots) in out.chunks_mut(chunk).enumerate() {
            scope.spawn(move || {
                for (k, slot) in slots.iter_mut().enumerate() {
                    let (q, s) = pool.pair(c * chunk + k);
                    *slot = sch.score(q, s);
                }
            });
        }
    });
    out
}

/// Checks one alignment: it must carry the oracle score, cover a
/// region its kind allows (global: both sequences end to end;
/// semi-global: start and end on a sequence boundary), label every
/// column truthfully, and replay to the score it carries.
pub fn replay(sch: Sch, q: &[u8], s: &[u8], aln: &Alignment, expected: i32) -> Result<(), String> {
    if aln.score != expected {
        return Err(format!(
            "score {} but the oracle says {expected}",
            aln.score
        ));
    }
    let in_bounds = aln.q_start <= aln.q_end
        && aln.q_end <= q.len()
        && aln.s_start <= aln.s_end
        && aln.s_end <= s.len();
    if !in_bounds {
        return Err("region out of bounds".into());
    }
    let spans_all =
        aln.q_start == 0 && aln.s_start == 0 && aln.q_end == q.len() && aln.s_end == s.len();
    let on_borders =
        (aln.q_start == 0 || aln.s_start == 0) && (aln.q_end == q.len() || aln.s_end == s.len());
    match sch {
        Sch::GlobalAffine | Sch::GlobalLinear if !spans_all => {
            return Err("global alignment does not span both sequences".into());
        }
        Sch::SemiGlobalAffine if !aln.ops.is_empty() && !on_borders => {
            return Err("semi-global alignment does not start and end on a border".into());
        }
        _ => {}
    }

    let (mut qi, mut sj, mut score) = (aln.q_start, aln.s_start, 0i32);
    let mut k = 0;
    while k < aln.ops.len() {
        let op = aln.ops[k];
        match op {
            AlignOp::Match | AlignOp::Mismatch => {
                if qi >= aln.q_end || sj >= aln.s_end {
                    return Err(format!("op {k} runs past the region"));
                }
                if (q[qi] == s[sj]) != (op == AlignOp::Match) {
                    return Err(format!("op {k} mislabels the column"));
                }
                score += if op == AlignOp::Match {
                    MATCH
                } else {
                    MISMATCH
                };
                qi += 1;
                sj += 1;
                k += 1;
            }
            AlignOp::GapS | AlignOp::GapQ => {
                let run = aln.ops[k..].iter().take_while(|&&o| o == op).count();
                score += sch.gap_run(run);
                if op == AlignOp::GapS {
                    qi += run;
                } else {
                    sj += run;
                }
                k += run;
            }
        }
    }
    if qi != aln.q_end || sj != aln.s_end {
        return Err("ops do not consume exactly the region".into());
    }
    if score != aln.score {
        return Err(format!("ops replay to {score}, not {}", aln.score));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use anyseq_engine::{BatchCfg, BatchScheduler, DispatchPolicy};
    use anyseq_seq::{BatchView, PairRef};

    /// Program alignments of a few pairs per scheme — the replayer must
    /// accept every one of them.
    fn aligned(sch: Sch, pool: &Pool) -> Vec<Alignment> {
        let refs = (0..pool.len())
            .map(|i| {
                let (q, s) = pool.pair(i);
                PairRef::new(q, s)
            })
            .collect();
        BatchScheduler::new(BatchCfg::threads(1))
            .try_align_batch(
                &DispatchPolicy::auto().standard(),
                &sch.spec(),
                &BatchView::from_refs(refs),
            )
            .unwrap()
            .results
    }

    #[test]
    fn replayer_accepts_program_alignments_and_rejects_corruptions() {
        for (sch, pool) in [
            (Sch::GlobalAffine, gen::read_pool(1, 40)),
            (Sch::GlobalLinear, gen::read_pool(2, 40)),
            (Sch::SemiGlobalAffine, gen::contained_pool(3, 40)),
        ] {
            let expected = scores(sch, &pool, 2);
            for (i, aln) in aligned(sch, &pool).iter().enumerate() {
                let (q, s) = pool.pair(i);
                replay(sch, q, s, aln, expected[i]).unwrap();

                // A wrong score, even with consistent ops, is refused.
                assert!(replay(sch, q, s, aln, expected[i] + 1).is_err());
                let mut wrong = aln.clone();
                wrong.score += 1;
                assert!(replay(sch, q, s, &wrong, expected[i]).is_err());

                // A corrupted op is refused: flip one column's label…
                let mut flipped = aln.clone();
                let at = flipped
                    .ops
                    .iter()
                    .position(|o| matches!(o, AlignOp::Match | AlignOp::Mismatch))
                    .unwrap();
                flipped.ops[at] = match flipped.ops[at] {
                    AlignOp::Match => AlignOp::Mismatch,
                    _ => AlignOp::Match,
                };
                assert!(replay(sch, q, s, &flipped, expected[i]).is_err());
                // …or turn it into a gap, which breaks the consumption.
                let mut gapped = aln.clone();
                gapped.ops[at] = AlignOp::GapQ;
                assert!(replay(sch, q, s, &gapped, expected[i]).is_err());

                // A region its kind does not allow is refused.
                let mut shifted = aln.clone();
                shifted.q_start += 1;
                shifted.s_start += 1;
                assert!(replay(sch, q, s, &shifted, expected[i]).is_err());
            }
        }
    }

    #[test]
    fn gap_runs_are_priced_per_model() {
        assert_eq!(Sch::GlobalLinear.gap_run(3), -3);
        assert_eq!(Sch::GlobalAffine.gap_run(3), -5);
        assert_eq!(Sch::SemiGlobalAffine.gap_run(1), -3);
    }
}
