//! Score-only passes in linear space (paper §III-A: "score-only
//! computations can be performed in linear space").
//!
//! A pass is simply the tile kernel applied to the whole matrix as one
//! tile with the kind's initialization stripes — there is deliberately no
//! second implementation of the recurrence. The pass also returns the last
//! `H`/`E` rows, which is exactly what the Hirschberg combine step needs,
//! so the same function serves as the half-pass of the divide-and-conquer
//! traceback.

use crate::kind::{AlignKind, OptRegion};
use crate::relax::BestCell;
use crate::score::{Score, NEG_INF};
use crate::scoring::{GapModel, SubstScore};
use crate::tile::{relax_tile, NoSink, TileIn, TileOut};

/// Result of a score-only pass.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// The kind-specific optimal score.
    pub score: Score,
    /// 1-based cell where the optimum is attained; `(n, m)` for global,
    /// `(0, 0)` for empty or all-non-positive local problems.
    pub end: (usize, usize),
    /// `H(n, 0..=m)` — the final DP row including the column-0 border.
    pub last_h: Vec<Score>,
    /// `E(n, 1..=m)` — final vertical-gap row (empty for linear models).
    pub last_e: Vec<Score>,
}

/// Builds the row-0 `H` stripe `H(0, 0..=w)` for kind `K`.
pub fn init_top_h<K: AlignKind, G: GapModel>(gap: &G, w: usize) -> Vec<Score> {
    (0..=w).map(|j| K::h_init(gap, j)).collect()
}

/// Builds the row-0 `E` stripe `E(0, 1..=w)`.
///
/// Initialized to `H(0,j) + open`, which is exactly equivalent to the
/// paper's `E(0,j) = −∞` because `E(1,j) = max(E(0,j)+e, H(0,j)+o+e)`
/// collapses either way. Note the Hirschberg boundary adjustment `tb`
/// deliberately does **not** appear here: a vertical run continuing from
/// the junction above enters this rectangle at its top-left corner and
/// can only flow down column 0 — a run at any column `j ≥ 1` was
/// necessarily preceded by horizontal movement, which breaks the run, so
/// it must pay the scheme's own open.
pub fn init_top_e<K: AlignKind, G: GapModel>(gap: &G, w: usize) -> Vec<Score> {
    if !G::AFFINE {
        return Vec::new();
    }
    (1..=w).map(|j| K::h_init(gap, j) + gap.open()).collect()
}

/// Builds the column-0 `H` stripe `H(1..=h, 0)` with top-boundary
/// vertical gap-open `tb` (the column-0 run always touches the top).
pub fn init_left_h<K: AlignKind, G: GapModel>(gap: &G, h: usize, tb: Score) -> Vec<Score> {
    (1..=h)
        .map(|i| {
            if K::FREE_BEGIN {
                0
            } else {
                tb + (i as Score) * gap.extend()
            }
        })
        .collect()
}

/// Builds the column-0 `F` stripe (always −∞: Equation (5) never reads a
/// real value there).
pub fn init_left_f<G: GapModel>(h: usize) -> Vec<Score> {
    if !G::AFFINE {
        return Vec::new();
    }
    vec![NEG_INF; h]
}

/// Runs a score-only pass of kind `K` over `q × s`.
///
/// `tb` is the vertical gap-open score applied at the top boundary; pass
/// `gap.open()` for a standalone alignment (see [`init_top_e`]).
pub fn score_pass<K, G, S>(gap: &G, subst: &S, q: &[u8], s: &[u8], tb: Score) -> PassOutput
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
{
    let n = q.len();
    let m = s.len();

    // Degenerate rectangles: the init stripes *are* the result.
    if n == 0 || m == 0 {
        let last_h = init_top_h::<K, G>(gap, m);
        let last_e = init_top_e::<K, G>(gap, m);
        let (score, end) = match K::OPT {
            OptRegion::Corner => {
                if n == 0 {
                    (last_h[m], (0, m))
                } else {
                    (
                        if K::FREE_BEGIN {
                            0
                        } else {
                            tb + (n as Score) * gap.extend()
                        },
                        (n, 0),
                    )
                }
            }
            // Local / border optima of an empty rectangle: the empty
            // alignment (score 0) is always attainable and optimal among
            // the zero-width paths.
            OptRegion::Border | OptRegion::Anywhere => (0, (0, 0)),
        };
        return PassOutput {
            score,
            end,
            last_h,
            last_e,
        };
    }

    let top_h = init_top_h::<K, G>(gap, m);
    let top_e = init_top_e::<K, G>(gap, m);
    let left_h = init_left_h::<K, G>(gap, n, tb);
    let left_f = init_left_f::<G>(n);

    let mut out = TileOut::new();
    relax_tile::<K, G, S, _>(
        gap,
        subst,
        q,
        s,
        (1, 1),
        (n, m),
        TileIn {
            top_h: &top_h,
            top_e: &top_e,
            left_h: &left_h,
            left_f: &left_f,
        },
        &mut out,
        &mut NoSink,
    );

    let (score, end) = finalize_score::<K, G>(gap, out.best, n, m, tb, out.bot_h[m]);
    PassOutput {
        score,
        end,
        last_h: out.bot_h,
        last_e: out.bot_e,
    }
}

/// Applies the kind's optimum conventions to a tracked best cell and the
/// final row of a non-degenerate pass — shared with every tiled backend,
/// so their results are bit-identical with [`score_pass`].
pub fn finalize<K: AlignKind, G: GapModel>(
    gap: &G,
    best: BestCell,
    n: usize,
    m: usize,
    tb: Score,
    last_h: &[Score],
    last_e: Vec<Score>,
) -> PassOutput {
    let (score, end) = finalize_score::<K, G>(gap, best, n, m, tb, last_h[m]);
    PassOutput {
        score,
        end,
        last_h: last_h.to_vec(),
        last_e,
    }
}

/// Score-only tail of [`finalize`]: applies the kind's optimum
/// conventions given just the tracked best cell and the final corner
/// value `h_nm = H(n, m)` — all a sharded score chain retains after
/// dropping the last rows.
pub fn finalize_score<K: AlignKind, G: GapModel>(
    gap: &G,
    mut best: BestCell,
    n: usize,
    m: usize,
    tb: Score,
    h_nm: Score,
) -> (Score, (usize, usize)) {
    match K::OPT {
        OptRegion::Corner => (h_nm, (n, m)),
        OptRegion::Border | OptRegion::Anywhere => {
            if matches!(K::OPT, OptRegion::Anywhere) && !K::NU_ZERO {
                // Extension-style kinds: the empty prefix alignment
                // (ending at the origin) is always available with score 0.
                best.update(0, 0, 0);
            }
            if matches!(K::OPT, OptRegion::Border) {
                // Paths ending on the initialization borders are valid
                // border endpoints too: (0, m) skips all of q (score
                // H(0,m)) and (n, 0) skips all of s. For semi-global both
                // are 0 (the empty alignment); for free-end they cost the
                // full gap. The deterministic tie-break of BestCell keeps
                // every engine consistent here.
                let h_0m = K::h_init(gap, m);
                let h_n0 = if K::FREE_BEGIN {
                    0
                } else {
                    tb + (n as Score) * gap.extend()
                };
                best.update(h_0m, 0, m);
                best.update(h_n0, n, 0);
            }
            if K::NU_ZERO && best.score <= 0 {
                // Local alignment with nothing positive: empty alignment.
                (0, (0, 0))
            } else {
                (best.score, (best.i, best.j))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{FreeEnd, Global, Local, SemiGlobal};
    use crate::scoring::{simple, AffineGap, LinearGap};

    fn codes(text: &[u8]) -> Vec<u8> {
        anyseq_seq::Seq::from_ascii(text).unwrap().codes().to_vec()
    }

    #[test]
    fn global_identity_scores_all_matches() {
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let q = codes(b"ACGTACGT");
        let out = score_pass::<Global, _, _>(&gap, &subst, &q, &q, gap.open());
        assert_eq!(out.score, 16);
        assert_eq!(out.end, (8, 8));
    }

    #[test]
    fn global_known_small_case() {
        // q=GATTACA s=GCATGCU-ish classic; verify one hand-checked value:
        // q=AC s=AG with +2/-1, gap -1: H(2,2) = 1 (A=A then C/G mismatch
        // or gap-gap alternatives all give 1).
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let out = score_pass::<Global, _, _>(&gap, &subst, &codes(b"AC"), &codes(b"AG"), 0);
        assert_eq!(out.score, 1);
    }

    #[test]
    fn global_empty_cases() {
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let q = codes(b"ACGT");
        let empty: Vec<u8> = Vec::new();
        let out = score_pass::<Global, _, _>(&gap, &subst, &empty, &q, gap.open());
        assert_eq!(out.score, -6); // open + 4*extend
        let out = score_pass::<Global, _, _>(&gap, &subst, &q, &empty, gap.open());
        assert_eq!(out.score, -6);
        let out = score_pass::<Global, _, _>(&gap, &subst, &empty, &empty, gap.open());
        assert_eq!(out.score, 0);
    }

    #[test]
    fn local_finds_embedded_match() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        // TTTT ACGT TTTT  vs  GGGG ACGT GGGG — common core ACGT
        let q = codes(b"TTTTACGTTTTT");
        let s = codes(b"GGGGACGTGGGG");
        let out = score_pass::<Local, _, _>(&gap, &subst, &q, &s, gap.open());
        // Wait: T matches the final T? The core ACGT scores 8; extending
        // with mismatches (-3) or gaps (-2) only hurts. But q has TTTT and
        // s has GGGG around it — no extension helps.
        assert_eq!(out.score, 8);
        assert_eq!(out.end, (8, 8));
    }

    #[test]
    fn local_all_mismatch_is_empty() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        let out = score_pass::<Local, _, _>(&gap, &subst, &codes(b"AAAA"), &codes(b"CCCC"), 0);
        assert_eq!(out.score, 0);
        assert_eq!(out.end, (0, 0));
    }

    #[test]
    fn semiglobal_free_ends() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        // s contained in the middle of q: semi-global alignment should pay
        // nothing for the overhangs.
        let q = codes(b"TTTTACGTACGTTTTT");
        let s = codes(b"ACGTACGT");
        let out = score_pass::<SemiGlobal, _, _>(&gap, &subst, &q, &s, gap.open());
        assert_eq!(out.score, 16);
        // ends when s is exhausted (last column), at q position 12.
        assert_eq!(out.end, (12, 8));
    }

    #[test]
    fn free_end_reaches_a_border() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        // Shared prefix ACGT, then divergence. Free-end still requires one
        // sequence to be fully consumed: best is ACGT matches then a
        // 7-long query gap to the last column: 8 − 14 = −6 at (4, 11).
        let q = codes(b"ACGTTTTTTTT");
        let s = codes(b"ACGTGGGGGGG");
        let out = score_pass::<FreeEnd, _, _>(&gap, &subst, &q, &s, gap.open());
        assert_eq!(out.score, -6);
        assert_eq!(out.end, (4, 11));
    }

    #[test]
    fn extension_stops_after_shared_prefix() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        // Extension (anchored start, free end anywhere) stops right after
        // the shared prefix.
        let q = codes(b"ACGTTTTTTTT");
        let s = codes(b"ACGTGGGGGGG");
        let out = score_pass::<crate::kind::Extension, _, _>(&gap, &subst, &q, &s, gap.open());
        assert_eq!(out.score, 8);
        assert_eq!(out.end, (4, 4));
    }

    #[test]
    fn extension_all_mismatch_is_empty_prefix() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        let out = score_pass::<crate::kind::Extension, _, _>(
            &gap,
            &subst,
            &codes(b"AAAA"),
            &codes(b"CCCC"),
            gap.open(),
        );
        assert_eq!(out.score, 0);
        assert_eq!(out.end, (0, 0));
    }

    #[test]
    fn affine_open_zero_equals_linear() {
        let subst = simple(2, -1);
        let lin = LinearGap { gap: -1 };
        let aff = AffineGap {
            open: 0,
            extend: -1,
        };
        let q = codes(b"ACGTGGTACA");
        let s = codes(b"ACGTCGTTACA");
        let a = score_pass::<Global, _, _>(&lin, &subst, &q, &s, lin.open());
        let b = score_pass::<Global, _, _>(&aff, &subst, &q, &s, aff.open());
        assert_eq!(a.score, b.score);
        assert_eq!(a.last_h, b.last_h);
    }

    #[test]
    fn last_rows_have_expected_lengths() {
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let q = codes(b"ACGTA");
        let s = codes(b"ACG");
        let out = score_pass::<Global, _, _>(&gap, &subst, &q, &s, gap.open());
        assert_eq!(out.last_h.len(), 4);
        assert_eq!(out.last_e.len(), 3);
    }
}
