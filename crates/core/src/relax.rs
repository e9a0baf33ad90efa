//! The shared cell-update ("relaxation") function — paper §III-B.
//!
//! Exactly one function encodes Equations (1), (4) and (5) for *every*
//! engine in the workspace: scalar, tiled/wavefront, SIMD (ported to lanes
//! in `anyseq-simd`), GPU-sim and FPGA-sim all funnel through this
//! recurrence. The paper's `relax_global` takes accessor objects
//! (`PrevScores`, `CharPair`) whose indirections are removed by partial
//! evaluation; here the neighbours arrive as plain values that the caller's
//! view logic produced, and monomorphization plus `#[inline(always)]`
//! guarantees the same zero-cost outcome.

use crate::kind::AlignKind;
use crate::score::Score;
use crate::scoring::{GapModel, SubstScore};

/// Predecessor encoding, two direction bits plus two affine state bits.
pub mod pred {
    /// Direction mask (bits 0–1).
    pub const DIR_MASK: u8 = 0b11;
    /// ν won: local-alignment stop cell.
    pub const NONE: u8 = 0;
    /// Diagonal predecessor (substitution).
    pub const DIAG: u8 = 1;
    /// Vertical predecessor (E: subject gap, consumes a query base).
    pub const UP: u8 = 2;
    /// Horizontal predecessor (F: query gap, consumes a subject base).
    pub const LEFT: u8 = 3;
    /// E(i,j) extended E(i−1,j) rather than opening from H(i−1,j).
    pub const E_EXT: u8 = 1 << 2;
    /// F(i,j) extended F(i,j−1) rather than opening from H(i,j−1).
    pub const F_EXT: u8 = 1 << 3;
}

/// Scores of the three ancestral subproblems of a cell, plus the running
/// gap-state values (paper's `PrevScores` accessor, flattened to values).
#[derive(Debug, Clone, Copy)]
pub struct Prev {
    /// `H(i−1, j−1)`.
    pub diag_h: Score,
    /// `H(i−1, j)`.
    pub up_h: Score,
    /// `E(i−1, j)` — only meaningful for affine gap models.
    pub up_e: Score,
    /// `H(i, j−1)`.
    pub left_h: Score,
    /// `F(i, j−1)` — only meaningful for affine gap models.
    pub left_f: Score,
}

/// Result of relaxing one cell (paper's `NextStep`, plus the outgoing
/// gap-state values needed by the neighbours).
#[derive(Debug, Clone, Copy)]
pub struct Next {
    /// `H(i, j)`.
    pub h: Score,
    /// `E(i, j)` (sentinel for linear models; never read).
    pub e: Score,
    /// `F(i, j)`.
    pub f: Score,
    /// Predecessor byte (see [`pred`]); only computed when requested.
    pub pred: u8,
}

/// Relaxes one DP cell.
///
/// `WITH_PRED` selects at compile time whether the predecessor byte is
/// materialized — the score-only engines instantiate `WITH_PRED = false`
/// and the pred computation vanishes from the generated code (the paper:
/// *"no machine code is generated for calls to functions that either do
/// not contain instructions or return a compile-time constant"*).
#[inline(always)]
pub fn relax<K, G, S, const WITH_PRED: bool>(gap: &G, subst: &S, prev: Prev, qc: u8, sc: u8) -> Next
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
{
    let ext = gap.extend();

    // Equations (4)/(5) for affine models; the linear case folds E/F to
    // single candidates because H ≥ E and H ≥ F always hold, making
    // max(E(i−1,j), H(i−1,j)) + g == H(i−1,j) + g.
    let (e, e_ext) = if G::AFFINE {
        let open_cand = prev.up_h + gap.open() + ext;
        let ext_cand = prev.up_e + ext;
        if ext_cand > open_cand {
            (ext_cand, true)
        } else {
            (open_cand, false)
        }
    } else {
        (prev.up_h + ext, false)
    };
    let (f, f_ext) = if G::AFFINE {
        let open_cand = prev.left_h + gap.open() + ext;
        let ext_cand = prev.left_f + ext;
        if ext_cand > open_cand {
            (ext_cand, true)
        } else {
            (open_cand, false)
        }
    } else {
        (prev.left_h + ext, false)
    };

    // Equation (1): maximum over the no-gap, subject-gap and query-gap
    // choices, mirroring the candidate order of the paper's relax_global
    // (ties keep the earlier candidate).
    let no_gap = prev.diag_h + subst.score(qc, sc);
    let mut h = no_gap;
    let mut dir = pred::DIAG;
    if e > h {
        h = e;
        dir = pred::UP;
    }
    if f > h {
        h = f;
        dir = pred::LEFT;
    }
    // ν = 0 for local alignments: floor and mark as a traceback stop.
    if K::NU_ZERO && h <= 0 {
        h = 0;
        dir = pred::NONE;
    }

    let pred_byte = if WITH_PRED {
        dir | if e_ext { pred::E_EXT } else { 0 } | if f_ext { pred::F_EXT } else { 0 }
    } else {
        0
    };

    Next {
        h,
        e,
        f,
        pred: pred_byte,
    }
}

/// The best cell seen so far, with deterministic tie-breaking
/// (higher score, then smaller `i`, then smaller `j`) so that every
/// engine — whatever its evaluation order — reports the same optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestCell {
    /// Best score.
    pub score: Score,
    /// 1-based row of the best cell.
    pub i: usize,
    /// 1-based column of the best cell.
    pub j: usize,
}

impl Default for BestCell {
    fn default() -> Self {
        BestCell::empty()
    }
}

impl BestCell {
    /// A best-cell tracker that loses against everything.
    pub fn empty() -> BestCell {
        BestCell {
            score: crate::score::NEG_INF,
            i: usize::MAX,
            j: usize::MAX,
        }
    }

    /// Merges a candidate cell.
    #[inline(always)]
    pub fn update(&mut self, score: Score, i: usize, j: usize) {
        if score > self.score
            || (score == self.score && (i < self.i || (i == self.i && j < self.j)))
        {
            self.score = score;
            self.i = i;
            self.j = j;
        }
    }

    /// Merges another tracker (for combining per-tile results).
    #[inline]
    pub fn merge(&mut self, other: &BestCell) {
        if other.i != usize::MAX {
            self.update(other.score, other.i, other.j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{Global, Local};
    use crate::score::NEG_INF;
    use crate::scoring::{simple, AffineGap, LinearGap};

    fn prev_all(v: Score) -> Prev {
        Prev {
            diag_h: v,
            up_h: v,
            up_e: NEG_INF,
            left_h: v,
            left_f: NEG_INF,
        }
    }

    #[test]
    fn diagonal_match_wins() {
        let g = LinearGap { gap: -1 };
        let s = simple(2, -1);
        let n = relax::<Global, _, _, true>(&g, &s, prev_all(10), 1, 1);
        assert_eq!(n.h, 12);
        assert_eq!(n.pred & pred::DIR_MASK, pred::DIAG);
    }

    #[test]
    fn gap_wins_on_bad_mismatch() {
        let g = LinearGap { gap: -1 };
        let s = simple(2, -5);
        let p = Prev {
            diag_h: 10,
            up_h: 10,
            up_e: NEG_INF,
            left_h: 4,
            left_f: NEG_INF,
        };
        let n = relax::<Global, _, _, true>(&g, &s, p, 0, 1);
        // diag: 10-5=5, E: 10-1=9, F: 4-1=3
        assert_eq!(n.h, 9);
        assert_eq!(n.pred & pred::DIR_MASK, pred::UP);
    }

    #[test]
    fn tie_prefers_diagonal() {
        let g = LinearGap { gap: -1 };
        let s = simple(2, -1);
        // diag: 8+2 = 10, E: 11-1 = 10 -> tie, diag preferred
        let p = Prev {
            diag_h: 8,
            up_h: 11,
            up_e: NEG_INF,
            left_h: 0,
            left_f: NEG_INF,
        };
        let n = relax::<Global, _, _, true>(&g, &s, p, 2, 2);
        assert_eq!(n.h, 10);
        assert_eq!(n.pred & pred::DIR_MASK, pred::DIAG);
    }

    #[test]
    fn local_floors_at_zero() {
        let g = LinearGap { gap: -1 };
        let s = simple(2, -1);
        let n = relax::<Local, _, _, true>(&g, &s, prev_all(0), 0, 1);
        assert_eq!(n.h, 0);
        assert_eq!(n.pred & pred::DIR_MASK, pred::NONE);
    }

    #[test]
    fn affine_extension_beats_reopen() {
        let g = AffineGap {
            open: -5,
            extend: -1,
        };
        let s = simple(2, -2);
        let p = Prev {
            diag_h: NEG_INF,
            up_h: 10,
            up_e: 9, // an open gap: extending costs -1 -> 8; re-opening 10-6=4
            left_h: NEG_INF,
            left_f: NEG_INF,
        };
        let n = relax::<Global, _, _, true>(&g, &s, p, 0, 0);
        assert_eq!(n.e, 8);
        assert!(n.pred & pred::E_EXT != 0);
    }

    #[test]
    fn affine_reopen_beats_dead_extension() {
        let g = AffineGap {
            open: -2,
            extend: -1,
        };
        let s = simple(2, -2);
        let p = Prev {
            diag_h: NEG_INF,
            up_h: 10,
            up_e: 3,
            left_h: NEG_INF,
            left_f: NEG_INF,
        };
        let n = relax::<Global, _, _, true>(&g, &s, p, 0, 0);
        assert_eq!(n.e, 7); // 10 - 2 - 1
        assert!(n.pred & pred::E_EXT == 0);
    }

    #[test]
    fn linear_ignores_ef_inputs() {
        let g = LinearGap { gap: -3 };
        let s = simple(1, -1);
        let mut p = prev_all(5);
        p.up_e = 1_000_000; // must be ignored by the linear specialization
        p.left_f = 1_000_000;
        let n = relax::<Global, _, _, false>(&g, &s, p, 0, 0);
        assert_eq!(n.h, 6); // diag 5+1
        assert_eq!(n.e, 2); // up 5-3
        assert_eq!(n.f, 2);
    }

    #[test]
    fn best_cell_tie_breaking() {
        let mut b = BestCell::empty();
        b.update(5, 3, 7);
        b.update(5, 2, 9); // same score, smaller i wins
        assert_eq!((b.i, b.j), (2, 9));
        b.update(5, 2, 4); // same score & i, smaller j wins
        assert_eq!((b.i, b.j), (2, 4));
        b.update(6, 9, 9); // higher score beats position
        assert_eq!((b.score, b.i, b.j), (6, 9, 9));
        let mut c = BestCell::empty();
        c.merge(&b);
        assert_eq!(c, b);
        c.merge(&BestCell::empty());
        assert_eq!(c, b);
    }
}
