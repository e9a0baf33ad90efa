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

impl<G: GapModel, S: SubstScore, Kn: TileKernel<S>> HalfPass<G, S> for TiledPass<Kn> {
    fn pass<K: AlignKind>(&self, gap: &G, subst: &S, q: &[u8], s: &[u8], tb: Score) -> PassOutput {
        self.score_pass::<K, G, S>(gap, subst, q, s, tb)
    }
}

impl<Kn> TiledPass<Kn> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::kind::{Global, Local};
    use anyseq_core::prelude::{affine, global, linear, local, simple};
    use anyseq_seq::genome::GenomeSim;

    fn small_cfg() -> ParallelCfg {
        ParallelCfg::threads(6).with_tile(96)
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
}
