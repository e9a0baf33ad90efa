//! The user-facing alignment scheme: kind × scoring, composed exactly as
//! the paper's interface functions compose behaviour-controlling values
//! (§III-C: `global_scheme(linear_gap_scoring(simple_subst_scoring(2,-1),
//! -1))`).

use crate::alignment::Alignment;
use crate::kind::{AlignKind, FreeEnd, Global, Local, SemiGlobal};
use crate::pass::score_pass;
use crate::score::Score;
use crate::scoring::{GapModel, Scoring, SubstScore};
use crate::traceback::{self, AlignConfig};
use anyseq_seq::Seq;

/// A fully parameterized alignment scheme.
///
/// All three parameters are types: every distinct combination
/// monomorphizes into dedicated engine code with the unused branches
/// removed — the Rust counterpart of the paper's partially evaluated
/// algorithm variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheme<K: AlignKind, G: GapModel, S: SubstScore> {
    /// The alignment kind (global / local / semi-global / free-end).
    pub kind: K,
    /// Gap model and substitution function.
    pub scoring: Scoring<G, S>,
}

impl<K: AlignKind, G: GapModel, S: SubstScore> Scheme<K, G, S> {
    /// The gap model.
    #[inline]
    pub fn gap(&self) -> &G {
        &self.scoring.gap
    }

    /// The substitution function.
    #[inline]
    pub fn subst(&self) -> &S {
        &self.scoring.subst
    }

    /// Optimal alignment score, linear space, single-threaded
    /// (paper: "score-only computations can be performed in linear
    /// space and quadratic time").
    pub fn score(&self, q: &Seq, s: &Seq) -> Score {
        self.score_with_end(q, s).0
    }

    /// [`Scheme::score`] over borrowed code slices (the zero-copy batch
    /// path: engines hand `PairRef` slices straight through).
    pub fn score_codes(&self, q: &[u8], s: &[u8]) -> Score {
        score_pass::<K, G, S>(self.gap(), self.subst(), q, s).score
    }

    /// Optimal score plus the 1-based DP cell where it is attained.
    pub fn score_with_end(&self, q: &Seq, s: &Seq) -> (Score, (usize, usize)) {
        let out = score_pass::<K, G, S>(self.gap(), self.subst(), q.codes(), s.codes());
        (out.score, out.end)
    }

    /// Optimal alignment with traceback, linear space (a walk through
    /// kept tile lines), default base-case cutoff.
    pub fn align(&self, q: &Seq, s: &Seq) -> Alignment {
        self.align_with(q, s, &AlignConfig::default())
    }

    /// [`Scheme::align`] over borrowed code slices (the zero-copy batch
    /// path).
    pub fn align_codes(&self, q: &[u8], s: &[u8]) -> Alignment {
        traceback::align::<K, G, S>(self.gap(), self.subst(), q, s, &AlignConfig::default())
    }

    /// [`Scheme::align`] with an explicit traceback configuration.
    pub fn align_with(&self, q: &Seq, s: &Seq, cfg: &AlignConfig) -> Alignment {
        traceback::align::<K, G, S>(self.gap(), self.subst(), q.codes(), s.codes(), cfg)
    }
}

/// Builds a global (Needleman–Wunsch) scheme.
pub fn global<G: GapModel, S: SubstScore>(scoring: Scoring<G, S>) -> Scheme<Global, G, S> {
    Scheme {
        kind: Global,
        scoring,
    }
}

/// Builds a local (Smith–Waterman) scheme.
pub fn local<G: GapModel, S: SubstScore>(scoring: Scoring<G, S>) -> Scheme<Local, G, S> {
    Scheme {
        kind: Local,
        scoring,
    }
}

/// Builds a semi-global scheme (free end gaps on both ends).
pub fn semiglobal<G: GapModel, S: SubstScore>(scoring: Scoring<G, S>) -> Scheme<SemiGlobal, G, S> {
    Scheme {
        kind: SemiGlobal,
        scoring,
    }
}

/// Builds a free-end (extension-style) scheme: anchored start, free end.
pub fn free_end<G: GapModel, S: SubstScore>(scoring: Scoring<G, S>) -> Scheme<FreeEnd, G, S> {
    Scheme {
        kind: FreeEnd,
        scoring,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::{affine, linear, simple};

    fn seq(text: &[u8]) -> Seq {
        Seq::from_ascii(text).unwrap()
    }

    #[test]
    fn paper_interface_composition() {
        // The paper's construct_global_alignment parameterization:
        // global + linear(-1) + simple(2, -1).
        let scheme = global(linear(simple(2, -1), -1));
        let q = seq(b"ACGTACGT");
        let s = seq(b"ACGTTACGT");
        let score = scheme.score(&q, &s);
        let aln = scheme.align(&q, &s);
        assert_eq!(score, aln.score);
        aln.validate::<Global, _, _>(&q, &s, scheme.gap(), scheme.subst())
            .unwrap();
        assert_eq!(score, 8 * 2 - 1); // 8 matches, one 1-gap
    }

    #[test]
    fn all_four_kinds_run() {
        let q = seq(b"TTACGTACGTTT");
        let s = seq(b"ACGTACG");
        let sc = affine(simple(2, -1), -2, -1);
        let g = global(sc).align(&q, &s);
        let l = local(sc).align(&q, &s);
        let sg = semiglobal(sc).align(&q, &s);
        let fe = free_end(sc).align(&q, &s);
        g.validate::<Global, _, _>(&q, &s, &sc.gap, &sc.subst)
            .unwrap();
        l.validate::<Local, _, _>(&q, &s, &sc.gap, &sc.subst)
            .unwrap();
        sg.validate::<SemiGlobal, _, _>(&q, &s, &sc.gap, &sc.subst)
            .unwrap();
        fe.validate::<FreeEnd, _, _>(&q, &s, &sc.gap, &sc.subst)
            .unwrap();
        // local ≥ semi-global core ≥ global for this containment case
        assert!(l.score >= sg.score);
        assert!(sg.score >= g.score);
    }
}
