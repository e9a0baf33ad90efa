//! Parallel alignment entry points: [`TiledPass`] as the [`HalfPass`]
//! provider (so the Hirschberg recursion's dominant passes run tiled,
//! on whichever kernel the pass was built with), plus an extension
//! trait grafting `score_parallel` / `align_parallel` onto [`Scheme`].

use crate::pass::{ParallelCfg, ScalarTiles, TileKernel, TiledPass};
use anyseq_core::alignment::Alignment;
use anyseq_core::hirschberg::{align_with_pass, AlignConfig, HalfPass};
use anyseq_core::kind::AlignKind;
use anyseq_core::pass::PassOutput;
use anyseq_core::scheme::Scheme;
use anyseq_core::score::Score;
use anyseq_core::scoring::{GapModel, SubstScore};
use anyseq_seq::Seq;
use parking_lot::Mutex;

impl<G: GapModel, S: SubstScore, Kn: TileKernel<S>> HalfPass<G, S> for TiledPass<Kn> {
    fn pass<K: AlignKind>(&self, gap: &G, subst: &S, q: &[u8], s: &[u8], tb: Score) -> PassOutput {
        self.score_pass::<K, G, S>(gap, subst, q, s, tb)
    }
}

impl<Kn> TiledPass<Kn> {
    /// `scheme`'s optimal score for one pair of code slices.
    pub fn score<K, G, S>(&self, scheme: &Scheme<K, G, S>, q: &[u8], s: &[u8]) -> Score
    where
        K: AlignKind,
        G: GapModel,
        S: SubstScore,
        Kn: TileKernel<S>,
    {
        let gap = scheme.gap();
        self.score_pass::<K, G, S>(gap, scheme.subst(), q, s, gap.open())
            .score
    }

    /// Full traceback for one pair: Hirschberg with this pass as every
    /// half-pass.
    pub fn align<K, G, S>(&self, scheme: &Scheme<K, G, S>, q: &[u8], s: &[u8]) -> Alignment
    where
        K: AlignKind,
        G: GapModel,
        S: SubstScore,
        Kn: TileKernel<S>,
    {
        let cfg = AlignConfig::default();
        align_with_pass::<K, G, S, _>(self, scheme.gap(), scheme.subst(), q, s, &cfg)
    }
}

/// Parallel execution methods for [`Scheme`] — the scalar-kernel
/// instantiation of [`TiledPass`], for any substitution function.
///
/// The `*_codes` variants take borrowed code slices — the zero-copy
/// batch path (`PairRef` fields go straight through); the [`Seq`]
/// variants are thin conveniences over them.
pub trait ParallelExt {
    /// Score-only, multithreaded (dynamic wavefront).
    fn score_parallel(&self, q: &Seq, s: &Seq, cfg: &ParallelCfg) -> Score {
        self.score_parallel_codes(q.codes(), s.codes(), cfg)
    }
    /// Full traceback with multithreaded Hirschberg passes.
    fn align_parallel(&self, q: &Seq, s: &Seq, cfg: &ParallelCfg) -> Alignment {
        self.align_parallel_codes(q.codes(), s.codes(), cfg)
    }
    /// [`ParallelExt::score_parallel`] over borrowed code slices.
    fn score_parallel_codes(&self, q: &[u8], s: &[u8], cfg: &ParallelCfg) -> Score;
    /// [`ParallelExt::align_parallel`] over borrowed code slices.
    fn align_parallel_codes(&self, q: &[u8], s: &[u8], cfg: &ParallelCfg) -> Alignment;
}

impl<K: AlignKind, G: GapModel, S: SubstScore> ParallelExt for Scheme<K, G, S> {
    fn score_parallel_codes(&self, q: &[u8], s: &[u8], cfg: &ParallelCfg) -> Score {
        TiledPass::<ScalarTiles>::new(*cfg).score(self, q, s)
    }

    fn align_parallel_codes(&self, q: &[u8], s: &[u8], cfg: &ParallelCfg) -> Alignment {
        TiledPass::<ScalarTiles>::new(*cfg).align(self, q, s)
    }
}

/// Scores many independent pairs with inter-alignment parallelism — the
/// paper's short-read use case (ii): each worker pulls whole chunks of
/// alignments from a shared iterator (the multi-alignment scheduling of
/// Fig. 3 at alignment granularity).
pub fn score_batch_parallel<K, G, S>(
    scheme: &Scheme<K, G, S>,
    pairs: &[(Seq, Seq)],
    threads: usize,
) -> Vec<Score>
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
{
    const CHUNK: usize = 64;
    let threads = threads.max(1).min(pairs.len().max(1));
    let mut scores = vec![0 as Score; pairs.len()];
    // Each chunk of pairs travels with the disjoint slice of the output
    // it fills; the lock is held only to hand one out.
    let work = Mutex::new(pairs.chunks(CHUNK).zip(scores.chunks_mut(CHUNK)));
    std::thread::scope(|sc| {
        for _ in 0..threads {
            sc.spawn(|| loop {
                let Some((pairs, out)) = work.lock().next() else {
                    break;
                };
                for ((q, s), score) in pairs.iter().zip(out) {
                    *score = scheme.score(q, s);
                }
            });
        }
    });
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::kind::{Global, Local};
    use anyseq_core::prelude::{affine, global, linear, local, simple};
    use anyseq_seq::genome::GenomeSim;
    use anyseq_seq::readsim::{ReadSim, ReadSimProfile};

    fn small_cfg() -> ParallelCfg {
        ParallelCfg {
            threads: 6,
            tile: 96,
            min_parallel_area: 0,
            static_schedule: false,
            shard_cells: 0,
        }
    }

    #[test]
    fn parallel_align_equals_scalar_align() {
        let mut sim = GenomeSim::new(11);
        let q = sim.generate(2500);
        let s = sim.mutate(&q, 0.06);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let scalar = scheme.align(&q, &s);
        let par = scheme.align_parallel(&q, &s, &small_cfg());
        assert_eq!(par.score, scalar.score);
        par.validate::<Global, _, _>(&q, &s, scheme.gap(), scheme.subst())
            .unwrap();
        // Scores must equal; op sequences may differ between equally
        // optimal paths only if tie-breaking differed — ours is shared,
        // so they should be identical.
        assert_eq!(par.ops, scalar.ops);
    }

    #[test]
    fn parallel_local_align_valid() {
        let mut sim = GenomeSim::new(13);
        let q = sim.generate(1800);
        let s = sim.mutate(&q, 0.15);
        let scheme = local(linear(simple(2, -2), -2));
        let scalar = scheme.align(&q, &s);
        let par = scheme.align_parallel(&q, &s, &small_cfg());
        assert_eq!(par.score, scalar.score);
        par.validate::<Local, _, _>(&q, &s, scheme.gap(), scheme.subst())
            .unwrap();
    }

    #[test]
    fn batch_scores_match_sequential() {
        let mut sim = GenomeSim::new(5);
        let reference = sim.generate(50_000);
        let mut rs = ReadSim::new(ReadSimProfile::default(), 17);
        let pairs: Vec<(Seq, Seq)> = rs
            .simulate_pairs(&reference, 200)
            .into_iter()
            .map(|p| (p.a, p.b))
            .collect();
        let scheme = global(linear(simple(2, -1), -1));
        let batch = score_batch_parallel(&scheme, &pairs, 8);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(batch[k], scheme.score(q, s), "pair {k}");
        }
    }

    #[test]
    fn batch_empty_and_single() {
        let scheme = global(linear(simple(2, -1), -1));
        assert!(score_batch_parallel(&scheme, &[], 4).is_empty());
        let q = Seq::from_ascii(b"ACGT").unwrap();
        let out = score_batch_parallel(&scheme, &[(q.clone(), q)], 4);
        assert_eq!(out, vec![8]);
    }
}
