//! Score-only passes in linear space (paper §III-A: "score-only
//! computations can be performed in linear space").
//!
//! A pass is simply the tile kernel applied to the matrix tile by tile,
//! starting from the rectangle's boundary stripes — its [`Seeds`]: the
//! kind's initialization for a whole pair, or kept tile lines for a
//! block of one — and there is deliberately no second implementation of
//! the recurrence. On a grid of tiles it can keep the tile boundaries it
//! crossed ([`lines_pass`]), which the traceback walks back through.

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
/// collapses either way — so row 1 never extends a run from row 0, and
/// a traceback reaching row 0 is in the `H` state.
pub fn init_top_e<K: AlignKind, G: GapModel>(gap: &G, w: usize) -> Vec<Score> {
    if !G::AFFINE {
        return Vec::new();
    }
    (1..=w).map(|j| K::h_init(gap, j) + gap.open()).collect()
}

/// Builds the column-0 `H` stripe `H(1..=h, 0)`: the vertical run down
/// column 0, opened at `open` (`gap.open()` for kind `K`'s own
/// initialization), or 0 where leading gaps are free.
pub fn init_left_h<K: AlignKind, G: GapModel>(gap: &G, h: usize, open: Score) -> Vec<Score> {
    (1..=h)
        .map(|i| {
            if K::FREE_BEGIN {
                0
            } else {
                open + (i as Score) * gap.extend()
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

/// The boundary stripes a pass over a rectangle starts from, owned, in
/// the layout of a [`TileIn`] covering the whole rectangle.
#[derive(Debug, Clone)]
pub struct Seeds {
    /// `H(0, 0..=m)`.
    pub top_h: Vec<Score>,
    /// `E(0, 1..=m)` (empty for linear gap models).
    pub top_e: Vec<Score>,
    /// `H(1..=n, 0)`.
    pub left_h: Vec<Score>,
    /// `F(1..=n, 0)` (empty for linear gap models).
    pub left_f: Vec<Score>,
}

impl Seeds {
    /// Kind `K`'s own initialization of an `n × m` rectangle.
    pub fn init<K: AlignKind, G: GapModel>(gap: &G, n: usize, m: usize) -> Seeds {
        Seeds {
            top_h: init_top_h::<K, G>(gap, m),
            top_e: init_top_e::<K, G>(gap, m),
            left_h: init_left_h::<K, G>(gap, n, gap.open()),
            left_f: init_left_f::<G>(n),
        }
    }

    /// The stripes, borrowed.
    pub fn stripes(&self) -> TileIn<'_> {
        TileIn {
            top_h: &self.top_h,
            top_e: &self.top_e,
            left_h: &self.left_h,
            left_f: &self.left_f,
        }
    }
}

/// Which tile boundaries a kept-lines pass keeps: it runs tiles of at
/// most `edge` cells a side and keeps every `every`-th interior tile
/// boundary in each direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spacing {
    /// Largest tile edge.
    pub edge: usize,
    /// Keep the boundary after every `every`-th tile row and column.
    pub every: usize,
}

impl Spacing {
    /// Tiles of the provider's own size, nothing kept: a score pass.
    pub const NONE: Spacing = Spacing {
        edge: usize::MAX,
        every: usize::MAX,
    };

    /// Whether the boundary after tile `k` (0-based) of `tiles` is kept.
    pub fn keeps(&self, k: usize, tiles: usize) -> bool {
        k + 1 < tiles && (k + 1).is_multiple_of(self.every)
    }
}

/// Runs a score-only pass of kind `K` over `q × s` from the kind's own
/// initialization: [`lines_pass`] with one tile, which keeps no lines.
pub fn score_pass<K, G, S>(gap: &G, subst: &S, q: &[u8], s: &[u8]) -> PassOutput
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
{
    let seeds = Seeds::init::<K, G>(gap, q.len(), s.len());
    lines_pass::<K, G, S>(gap, subst, q, s, seeds.stripes(), Spacing::NONE).pass
}

/// A kept row of a pass: `H(i, 0..=m)` and `E(i, 1..=m)` (empty for
/// linear gap models) — the bottom stripes of one tile row, joined.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowLine {
    /// The row, `1 ≤ i < n`.
    pub i: usize,
    /// `H(i, 0..=m)`.
    pub h: Vec<Score>,
    /// `E(i, 1..=m)`.
    pub e: Vec<Score>,
}

/// A kept column of a pass: `H(1..=n, j)` and `F(1..=n, j)` (empty for
/// linear gap models) — the right stripes of one tile column, joined.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColLine {
    /// The column, `1 ≤ j < m`.
    pub j: usize,
    /// `H(1..=n, j)`.
    pub h: Vec<Score>,
    /// `F(1..=n, j)`.
    pub f: Vec<Score>,
}

/// What a pass that keeps its tile lines returns: everything a
/// score-only pass returns, plus the interior tile boundaries it
/// crossed — ascending rows and columns, each spanning the whole
/// matrix. [`crate::fullmatrix::walk`] traces back through them.
#[derive(Debug, Clone)]
pub struct TileLines {
    /// The score-only result.
    pub pass: PassOutput,
    /// Kept rows, ascending in `i`.
    pub rows: Vec<RowLine>,
    /// Kept columns, ascending in `j`.
    pub cols: Vec<ColLine>,
}

impl From<PassOutput> for TileLines {
    /// A pass that kept no lines.
    fn from(pass: PassOutput) -> TileLines {
        TileLines {
            pass,
            rows: Vec::new(),
            cols: Vec::new(),
        }
    }
}

impl TileLines {
    /// Score bytes the kept lines hold (the pass's own last rows
    /// excluded).
    pub fn bytes(&self) -> usize {
        let rows: usize = self.rows.iter().map(|r| r.h.len() + r.e.len()).sum();
        let cols: usize = self.cols.iter().map(|c| c.h.len() + c.f.len()).sum();
        (rows + cols) * std::mem::size_of::<Score>()
    }
}

/// Runs a pass of kind `K` over `q × s` from `seeds` as a row-major
/// loop of `spacing.edge`-square tiles on one thread, keeping the tile
/// boundaries `spacing` keeps as [`RowLine`]s and [`ColLine`]s. An edge
/// of at least `max(n, m)` is one tile and keeps nothing.
pub fn lines_pass<K, G, S>(
    gap: &G,
    subst: &S,
    q: &[u8],
    s: &[u8],
    seeds: TileIn<'_>,
    spacing: Spacing,
) -> TileLines
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
{
    let n = q.len();
    let m = s.len();

    // Degenerate rectangles: the seeds *are* the result.
    if n == 0 || m == 0 {
        let (last_h, last_e) = if n == 0 {
            (seeds.top_h.to_vec(), seeds.top_e.to_vec())
        } else {
            (vec![seeds.left_h[n - 1]], Vec::new())
        };
        let (score, end) = match K::OPT {
            OptRegion::Corner => (last_h[m], (n, m)),
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
        }
        .into();
    }

    let edge = spacing.edge.max(1);
    let span = |k: usize, len: usize| (k * edge + 1, (k * edge).saturating_add(edge).min(len));
    let (nt, mt) = (n.div_ceil(edge), m.div_ceil(edge));
    // `h_row`/`e_row` hold the bottom stripes of the tile row last
    // finished, joined: the top seeds at first.
    let mut h_row = seeds.top_h.to_vec();
    let mut e_row = seeds.top_e.to_vec();
    let mut rows = Vec::new();
    let mut cols: Vec<ColLine> = (0..mt)
        .filter(|&tj| spacing.keeps(tj, mt))
        .map(|tj| ColLine {
            j: (tj + 1) * edge,
            ..ColLine::default()
        })
        .collect();
    let (mut left_h, mut left_f) = (Vec::new(), Vec::new());
    let mut out = TileOut::new();
    let mut best = BestCell::empty();
    for ti in 0..nt {
        let (i0, i1) = span(ti, n);
        left_h.clear();
        left_h.extend_from_slice(&seeds.left_h[i0 - 1..i1]);
        left_f.clear();
        if G::AFFINE {
            left_f.extend_from_slice(&seeds.left_f[i0 - 1..i1]);
        }
        // `H(i0 − 1, j0 − 1)`: the previous tile's write-back replaced
        // it in `h_row` by `H(i1, j0 − 1)`.
        let mut corner = h_row[0];
        for tj in 0..mt {
            let (j0, j1) = span(tj, m);
            let next_corner = h_row[j1];
            h_row[j0 - 1] = corner;
            relax_tile::<K, G, S, _>(
                gap,
                subst,
                &q[i0 - 1..i1],
                &s[j0 - 1..j1],
                (i0, j0),
                (n, m),
                TileIn {
                    top_h: &h_row[j0 - 1..=j1],
                    top_e: if G::AFFINE { &e_row[j0 - 1..j1] } else { &[] },
                    left_h: &left_h,
                    left_f: &left_f,
                },
                &mut out,
                &mut NoSink,
            );
            best.merge(&out.best);
            h_row[j0 - 1..=j1].copy_from_slice(&out.bot_h);
            if G::AFFINE {
                e_row[j0 - 1..j1].copy_from_slice(&out.bot_e);
            }
            std::mem::swap(&mut left_h, &mut out.right_h);
            std::mem::swap(&mut left_f, &mut out.right_f);
            if spacing.keeps(tj, mt) {
                let col = &mut cols[tj / spacing.every];
                col.h.extend_from_slice(&left_h);
                col.f.extend_from_slice(&left_f);
            }
            corner = next_corner;
        }
        if spacing.keeps(ti, nt) {
            rows.push(RowLine {
                i: i1,
                h: h_row.clone(),
                e: e_row.clone(),
            });
        }
    }

    let (score, end) = finalize_score::<K, G>(gap, best, n, m, h_row[m]);
    TileLines {
        pass: PassOutput {
            score,
            end,
            last_h: h_row,
            last_e: e_row,
        },
        rows,
        cols,
    }
}

/// Applies the kind's optimum conventions to a tracked best cell and the
/// final row of a non-degenerate pass from the kind's own
/// initialization — shared with every tiled backend, so their results
/// are bit-identical with [`score_pass`].
pub fn finalize<K: AlignKind, G: GapModel>(
    gap: &G,
    best: BestCell,
    n: usize,
    m: usize,
    last_h: &[Score],
    last_e: Vec<Score>,
) -> PassOutput {
    let (score, end) = finalize_score::<K, G>(gap, best, n, m, last_h[m]);
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
                best.update(K::h_init(gap, m), 0, m);
                best.update(K::h_init(gap, n), n, 0);
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
        let out = score_pass::<Global, _, _>(&gap, &subst, &q, &q);
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
        let out = score_pass::<Global, _, _>(&gap, &subst, &codes(b"AC"), &codes(b"AG"));
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
        let out = score_pass::<Global, _, _>(&gap, &subst, &empty, &q);
        assert_eq!(out.score, -6); // open + 4*extend
        let out = score_pass::<Global, _, _>(&gap, &subst, &q, &empty);
        assert_eq!(out.score, -6);
        let out = score_pass::<Global, _, _>(&gap, &subst, &empty, &empty);
        assert_eq!(out.score, 0);
    }

    #[test]
    fn local_finds_embedded_match() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        // TTTT ACGT TTTT  vs  GGGG ACGT GGGG — common core ACGT
        let q = codes(b"TTTTACGTTTTT");
        let s = codes(b"GGGGACGTGGGG");
        let out = score_pass::<Local, _, _>(&gap, &subst, &q, &s);
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
        let out = score_pass::<Local, _, _>(&gap, &subst, &codes(b"AAAA"), &codes(b"CCCC"));
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
        let out = score_pass::<SemiGlobal, _, _>(&gap, &subst, &q, &s);
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
        let out = score_pass::<FreeEnd, _, _>(&gap, &subst, &q, &s);
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
        let out = score_pass::<crate::kind::Extension, _, _>(&gap, &subst, &q, &s);
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
        let a = score_pass::<Global, _, _>(&lin, &subst, &q, &s);
        let b = score_pass::<Global, _, _>(&aff, &subst, &q, &s);
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
        let out = score_pass::<Global, _, _>(&gap, &subst, &q, &s);
        assert_eq!(out.last_h.len(), 4);
        assert_eq!(out.last_e.len(), 3);
    }
}
