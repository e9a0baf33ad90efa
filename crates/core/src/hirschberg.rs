//! Traceback over a global rectangle: a walk through a pass's kept tile
//! lines, with Hirschberg's divide and conquer above a memory budget
//! (paper §III-A, ref. \[24\]: "the traceback procedure can be
//! implemented in linear space ... that recursively determines optimal
//! midpoints of the DP matrix (at the cost of at most doubling the
//! amount of computed DP cells)").
//!
//! [`diff`] sends a rectangle of at most [`AlignConfig::cutoff_area`]
//! cells to the full-matrix base case, [`base_global`]. A larger one
//! whose kept lines fit the leaf budget (see [`is_leaf`]) is a *leaf*:
//! one pass keeps its tile boundaries ([`HalfPass::lines`]) and
//! [`walk`] traces back through them, recomputing only the blocks the
//! optimal path crosses — at most `(n + m) · √cutoff_area` cells on top
//! of the pass, where Hirschberg recomputes about `n · m` — and it
//! emits [`base_global`]'s operations on the whole rectangle. This is
//! FastLSA's grid-line traceback (Driga et al., *Algorithmica* 2006)
//! with one level of lines.
//!
//! Only a rectangle over the leaf budget is split: at its middle row,
//! a forward and a backward score-only half-pass ([`HalfPass::pass`])
//! are combined to find a column where an optimal path crosses —
//! either in the `H` state or inside a vertical gap (`E` state), in
//! which case the gap's open cost is refunded once and two forced gap
//! columns are emitted (Myers–Miller). The halves recurse with
//! `tb`/`te` boundary adjustments until they fit.
//!
//! Local and semi-global alignments reduce to a global rectangle by
//! locating the optimum endpoint with a forward pass and the start with a
//! *reversed* pass of the mirror kind ([`crate::kind::Extension`] /
//! [`crate::kind::FreeEnd`]), exactly the paper's "reverse the indexing in
//! the sequence accessor" trick.
//!
//! Known theoretical corner (shared with the canonical Myers–Miller
//! formulation): a rectangle whose top *and* bottom boundary opens are
//! both waived (`tb = te = 0`, which requires two nested gap-crossing
//! splits of one run) prices a full-height vertical run optimistically;
//! the emitted alignment stays valid but may be up to `|open|` below
//! optimal in adversarial constructions. Property tests recompute every
//! alignment's score, so any occurrence would surface as a test failure.

use crate::alignment::{AlignOp, Alignment};
use crate::fullmatrix::{base_global, walk};
use crate::kind::{AlignKind, Extension, FreeEnd, Global, OptRegion};
use crate::pass::{lines_pass, score_pass, PassOutput, TileLines};
use crate::score::Score;
use crate::scoring::{GapModel, SubstScore};

/// Traceback configuration.
#[derive(Debug, Clone, Copy)]
pub struct AlignConfig {
    /// Rectangles with at most this many cells use the full-matrix base
    /// case (one predecessor byte per cell). The default keeps base-case
    /// memory around 256 KiB — the paper's "hardware-specific threshold".
    /// It also bounds every block a leaf's walk recomputes, and scales
    /// the leaf budget (see [`is_leaf`]).
    pub cutoff_area: usize,
}

impl Default for AlignConfig {
    fn default() -> Self {
        AlignConfig {
            cutoff_area: 1 << 18,
        }
    }
}

/// A provider of score-only passes — the seam through which execution
/// backends plug into the traceback.
///
/// The scalar provider is [`ScalarPass`]; `anyseq-wavefront` supplies a
/// multithreaded tiled provider, `anyseq-simd` a vectorized one. This is
/// the paper's "exchange iteration strategies by passing different
/// generator functions" applied to the traceback recursion.
pub trait HalfPass<G: GapModel, S: SubstScore>: Sync {
    /// Runs a score-only pass of kind `K` (see [`score_pass`]).
    fn pass<K: AlignKind>(&self, gap: &G, subst: &S, q: &[u8], s: &[u8], tb: Score) -> PassOutput;

    /// Runs the same pass keeping its interior tile boundaries, at most
    /// `edge` rows and columns apart (see [`lines_pass`]) — the lines a
    /// leaf walks back through.
    fn lines<K: AlignKind>(
        &self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        tb: Score,
        edge: usize,
    ) -> TileLines;

    /// Told, after a leaf's walk through lines this provider kept, how
    /// many blocks it recomputed; providers that count work add it.
    fn traced(&self, _blocks: usize) {}
}

/// Single-threaded pass provider.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarPass;

impl<G: GapModel, S: SubstScore> HalfPass<G, S> for ScalarPass {
    #[inline]
    fn pass<K: AlignKind>(&self, gap: &G, subst: &S, q: &[u8], s: &[u8], tb: Score) -> PassOutput {
        score_pass::<K, G, S>(gap, subst, q, s, tb)
    }

    fn lines<K: AlignKind>(
        &self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        tb: Score,
        edge: usize,
    ) -> TileLines {
        lines_pass::<K, G, S>(gap, subst, q, s, tb, edge)
    }
}

/// Line spacing of a leaf: the edge of the largest square block whose
/// predecessor matrix fits `cutoff_area` bytes.
pub fn leaf_edge(cutoff_area: usize) -> usize {
    cutoff_area.isqrt().max(1)
}

/// Kept-line budget of one leaf, in base-case matrices: lines may hold
/// `LEAF_LINE_BLOCKS · cutoff_area` bytes.
const LEAF_LINE_BLOCKS: usize = 16;

/// Whether an `n × m` rectangle is aligned as one leaf, from its shape
/// and `cutoff_area` alone, so that every provider splits (and so
/// answers) alike.
///
/// The budget: at spacing `e = `[`leaf_edge`]`(cutoff_area)` the kept
/// lines of a leaf are `⌊(n−1)/e⌋` rows of `2m + 1` scores (`H` and
/// `E`) and `⌊(m−1)/e⌋` columns of `2n` (`H` and `F`), ≈ `4·n·m/e`
/// scores of 4 bytes. They may take as many bytes as
/// `LEAF_LINE_BLOCKS` = 16 base-case predecessor matrices,
/// `16·cutoff_area`, which admits a square up to `n ≈ cutoff_area^¾`:
/// at the default 2¹⁸, 4 MiB of lines and squares up to ≈ 11.6 kbp, so
/// the paper's 9 kbp long-pair case (2.4 MiB at `e = 512`) is one leaf.
/// Counted for the affine case whatever the gap model. A provider that
/// keeps lines more finely than `e` holds proportionally more (the
/// wavefront engine's tiles are smaller than `e`; its
/// `wavefront.peak_trace_mb` reports what it kept). Beyond the budget,
/// each Hirschberg split costs one more pass over the rectangle and
/// halves the lines of each child.
pub fn is_leaf(n: usize, m: usize, cutoff_area: usize) -> bool {
    let e = leaf_edge(cutoff_area);
    let scores = (n.saturating_sub(1) / e).saturating_mul(2 * m + 1)
        + (m.saturating_sub(1) / e).saturating_mul(2 * n);
    scores.saturating_mul(std::mem::size_of::<Score>())
        <= LEAF_LINE_BLOCKS.saturating_mul(cutoff_area)
}

/// Aligns the leaf `q × s` (boundary opens `tb`, `te`): one pass of
/// `pass` keeps its lines at the spacing [`leaf_edge`] allows, and
/// [`walk`] traces back through them. Appends the operations of
/// [`base_global`] on the same rectangle to `ops`; returns its score.
#[allow(clippy::too_many_arguments)]
pub fn leaf<G, S, P>(
    pass: &P,
    gap: &G,
    subst: &S,
    q: &[u8],
    s: &[u8],
    tb: Score,
    te: Score,
    cfg: &AlignConfig,
    ops: &mut Vec<AlignOp>,
) -> Score
where
    G: GapModel,
    S: SubstScore,
    P: HalfPass<G, S>,
{
    let edge = leaf_edge(cfg.cutoff_area);
    let lines = pass.lines::<Global>(gap, subst, q, s, tb, edge);
    let (score, blocks) = walk(gap, subst, q, s, tb, te, &lines.rows, &lines.cols, ops);
    pass.traced(blocks);
    score
}

/// Appends the optimal global alignment of `q × s` (with boundary
/// vertical-gap opens `tb`, `te`) to `ops`; returns the adjusted score.
/// The base case, a [`leaf`], or a Hirschberg split into two halves
/// (see the module docs).
#[allow(clippy::too_many_arguments)]
pub fn diff<G, S, P>(
    pass: &P,
    gap: &G,
    subst: &S,
    q: &[u8],
    s: &[u8],
    tb: Score,
    te: Score,
    cfg: &AlignConfig,
    ops: &mut Vec<AlignOp>,
) -> Score
where
    G: GapModel,
    S: SubstScore,
    P: HalfPass<G, S>,
{
    let n = q.len();
    let m = s.len();

    // Small or degenerate rectangles: full-matrix base case (it also
    // handles n == 0 / m == 0 directly).
    if n <= 2 || m == 0 || (n + 1).saturating_mul(m + 1) <= cfg.cutoff_area {
        return base_global(gap, subst, q, s, tb, te, ops);
    }
    if is_leaf(n, m, cfg.cutoff_area) {
        return leaf(pass, gap, subst, q, s, tb, te, cfg, ops);
    }

    let mid = n / 2;

    // Forward half-pass over rows 1..=mid.
    let fwd = pass.pass::<Global>(gap, subst, &q[..mid], s, tb);
    // Backward half-pass over (reversed) rows mid+1..=n.
    let bwd = pass.pass::<Global>(gap, subst, &reversed(&q[mid..]), &reversed(s), te);

    // DD rows: E at the boundary, with the column-0 value supplied in
    // closed form (an all-delete path down column 0 pays the boundary
    // open).
    let ext = gap.extend();
    let dd_f0 = tb + (mid as Score) * ext;
    let dd_b0 = te + ((n - mid) as Score) * ext;

    // Combine: choose the crossing column (and state) maximizing the
    // total. Deterministic tie-break: H-crossing first, then smaller j.
    let mut best_score = Score::MIN;
    let mut best_j = 0usize;
    let mut best_in_gap = false;
    for j in 0..=m {
        let c1 = fwd.last_h[j] + bwd.last_h[m - j];
        if c1 > best_score {
            best_score = c1;
            best_j = j;
            best_in_gap = false;
        }
        if G::AFFINE {
            let df = if j == 0 { dd_f0 } else { fwd.last_e[j - 1] };
            let db = if j == m { dd_b0 } else { bwd.last_e[m - j - 1] };
            let c2 = df + db - gap.open();
            if c2 > best_score {
                best_score = c2;
                best_j = j;
                best_in_gap = true;
            }
        }
    }

    if best_in_gap {
        // The optimal path crosses the midline inside a vertical gap:
        // rows mid and mid+1 are forced gap columns (Myers–Miller), and
        // the junction opens are waived in both children.
        diff(
            pass,
            gap,
            subst,
            &q[..mid - 1],
            &s[..best_j],
            tb,
            0,
            cfg,
            ops,
        );
        ops.push(AlignOp::GapS);
        ops.push(AlignOp::GapS);
        diff(
            pass,
            gap,
            subst,
            &q[mid + 1..],
            &s[best_j..],
            0,
            te,
            cfg,
            ops,
        );
    } else {
        diff(
            pass,
            gap,
            subst,
            &q[..mid],
            &s[..best_j],
            tb,
            gap.open(),
            cfg,
            ops,
        );
        diff(
            pass,
            gap,
            subst,
            &q[mid..],
            &s[best_j..],
            gap.open(),
            te,
            cfg,
            ops,
        );
    }
    best_score
}

fn reversed(codes: &[u8]) -> Vec<u8> {
    codes.iter().rev().copied().collect()
}

/// Kind-dispatched linear-space alignment. The `match` is over
/// compile-time constants, so each monomorphized instance contains
/// exactly one flow — the paper's "exchange several functions ... at
/// compile time" by function composition.
pub fn align<K, G, S>(gap: &G, subst: &S, q: &[u8], s: &[u8], cfg: &AlignConfig) -> Alignment
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
{
    align_with_pass::<K, G, S, ScalarPass>(&ScalarPass, gap, subst, q, s, cfg)
}

/// [`align`] with an explicit pass provider (multithreaded / SIMD
/// backends plug in here).
///
/// Every kind reduces to one global rectangle: a forward kind-`K` pass
/// finds the end (corner kinds end at `(n, m)` and skip it), a free-begin
/// kind finds its start with a *reversed* pass of the mirror kind
/// ([`Extension`] for an optimum anywhere, [`FreeEnd`] for one on the
/// border), and [`diff`] aligns what lies between.
pub fn align_with_pass<K, G, S, P>(
    pass: &P,
    gap: &G,
    subst: &S,
    q: &[u8],
    s: &[u8],
    cfg: &AlignConfig,
) -> Alignment
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
    P: HalfPass<G, S>,
{
    let open = gap.open();
    let (opt, (ie, je)) = match K::OPT {
        OptRegion::Corner => (None, (q.len(), s.len())),
        _ => {
            let fwd = pass.pass::<K>(gap, subst, q, s, open);
            (Some(fwd.score), fwd.end)
        }
    };
    let (mut is, mut js) = (0, 0);
    if let Some(opt) = opt.filter(|_| K::FREE_BEGIN) {
        // An empty core: no positive local score, or a semi-global
        // optimum on an initialization border (all free end gaps).
        if K::NU_ZERO && opt <= 0 {
            return Alignment::empty(0);
        }
        if ie == 0 || je == 0 {
            return Alignment::empty(opt);
        }
        let (rq, rs) = (reversed(&q[..ie]), reversed(&s[..je]));
        let rev = match K::OPT {
            OptRegion::Anywhere => pass.pass::<Extension>(gap, subst, &rq, &rs, open),
            _ => pass.pass::<FreeEnd>(gap, subst, &rq, &rs, open),
        };
        debug_assert_eq!(rev.score, opt, "reverse pass must reproduce the optimum");
        (is, js) = (ie - rev.end.0, je - rev.end.1);
        debug_assert!(
            K::OPT != OptRegion::Border || is == 0 || js == 0,
            "a border kind's start lies on a sequence boundary"
        );
    }

    let mut ops = Vec::with_capacity((ie - is).max(je - js) + 16);
    let score = diff(
        pass,
        gap,
        subst,
        &q[is..ie],
        &s[js..je],
        open,
        open,
        cfg,
        &mut ops,
    );
    debug_assert!(opt.is_none_or(|opt| opt == score));
    Alignment {
        score: opt.unwrap_or(score),
        ops,
        q_start: is,
        q_end: ie,
        s_start: js,
        s_end: je,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{Local, SemiGlobal};
    use crate::scoring::{simple, AffineGap, LinearGap};
    use anyseq_seq::Seq;

    fn seq(text: &[u8]) -> Seq {
        Seq::from_ascii(text).unwrap()
    }

    /// Tiny cutoff to force deep recursion even on small inputs.
    fn deep() -> AlignConfig {
        AlignConfig { cutoff_area: 12 }
    }

    /// A walk through lines kept at any spacing emits the whole
    /// rectangle's base-case ops — gap runs that cross block edges in
    /// the `E` and `F` states included — and the kept-lines pass
    /// returns the score pass's rows.
    #[test]
    fn walks_through_lines_emit_the_base_case_ops() {
        use anyseq_seq::genome::GenomeSim;
        let mut sim = GenomeSim::new(5);
        let a = sim.generate(70);
        let run = |n: usize| seq(&[b'A'; 64][..n]);
        // A 9-long insertion and a 7-long deletion in a diverged copy.
        let mut b = a.codes()[..20].to_vec();
        b.extend_from_slice(&[3; 9]);
        b.extend_from_slice(&a.codes()[20..40]);
        b.extend_from_slice(&a.codes()[47..]);
        let b = Seq::from_codes(b).unwrap();
        let subst = simple(2, -1);
        let pairs = [(&a, &b), (&b, &a), (&a, &run(5)), (&run(1), &a)];
        let affine = AffineGap {
            open: -3,
            extend: -1,
        };
        let linear = LinearGap { gap: -1 };
        macro_rules! check {
            ($gap:expr) => {{
                let gap = $gap;
                for (q, s) in pairs {
                    let (q, s) = (q.codes(), s.codes());
                    let whole = score_pass::<Global, _, _>(&gap, &subst, q, s, gap.open());
                    for (tb, te) in [(gap.open(), gap.open()), (0, gap.open()), (gap.open(), 0)] {
                        let mut want = Vec::new();
                        let score = base_global(&gap, &subst, q, s, tb, te, &mut want);
                        for edge in [1, 2, 3, 4, 7, 16, 1000] {
                            let lines = lines_pass::<Global, _, _>(&gap, &subst, q, s, tb, edge);
                            let mut ops = Vec::new();
                            let got = walk(
                                &gap,
                                &subst,
                                q,
                                s,
                                tb,
                                te,
                                &lines.rows,
                                &lines.cols,
                                &mut ops,
                            );
                            let what = format!(
                                "{gap:?} {}x{} tb {tb} te {te} edge {edge}",
                                q.len(),
                                s.len()
                            );
                            assert_eq!((got.0, &ops), (score, &want), "{what}");
                            assert!(got.1 >= 1 && (edge < 1000 || got.1 == 1), "{what}");
                            if tb == gap.open() {
                                assert_eq!(lines.pass.last_h, whole.last_h, "{what}");
                                assert_eq!(lines.pass.last_e, whole.last_e, "{what}");
                            }
                        }
                    }
                }
            }};
        }
        check!(linear);
        check!(affine);
    }

    #[test]
    fn the_long_pair_is_one_leaf_and_larger_rectangles_split() {
        let c = AlignConfig::default().cutoff_area;
        assert!(is_leaf(9_000, 9_000, c));
        assert!(is_leaf(9_200, 8_800, c));
        assert!(!is_leaf(12_000, 12_000, c));
        assert!(is_leaf(6_000, 12_000, c));
        assert_eq!(leaf_edge(c), 512);
        assert_eq!(leaf_edge(16), 4);
    }

    #[test]
    fn recursion_matches_base_case_linear() {
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let q = seq(b"ACGTACGTTACGATCA");
        let s = seq(b"ACGACGTTAGCGTCA");
        let big = align_with_pass::<Global, _, _, _>(
            &ScalarPass,
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            &AlignConfig::default(),
        );
        let small = align_with_pass::<Global, _, _, _>(
            &ScalarPass,
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            &deep(),
        );
        assert_eq!(big.score, small.score);
        big.validate::<Global, _, _>(&q, &s, &gap, &subst).unwrap();
        small
            .validate::<Global, _, _>(&q, &s, &gap, &subst)
            .unwrap();
    }

    #[test]
    fn recursion_matches_base_case_affine() {
        let gap = AffineGap {
            open: -3,
            extend: -1,
        };
        let subst = simple(2, -1);
        let q = seq(b"ACGTTTTTACGTACGA");
        let s = seq(b"ACGTACGTACGA");
        let big = align_with_pass::<Global, _, _, _>(
            &ScalarPass,
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            &AlignConfig::default(),
        );
        let small = align_with_pass::<Global, _, _, _>(
            &ScalarPass,
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            &deep(),
        );
        assert_eq!(big.score, small.score);
        small
            .validate::<Global, _, _>(&q, &s, &gap, &subst)
            .unwrap();
    }

    #[test]
    fn gap_crossing_midline_is_handled() {
        // A 8-long insertion in the middle of q forces the vertical run to
        // cross the midline of the recursion.
        let gap = AffineGap {
            open: -4,
            extend: -1,
        };
        let subst = simple(2, -1);
        let q = seq(b"ACGTACGTAAAAAAAACGTACGTA");
        let s = seq(b"ACGTACGTCGTACGTA");
        let aln = align_with_pass::<Global, _, _, _>(
            &ScalarPass,
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            &deep(),
        );
        aln.validate::<Global, _, _>(&q, &s, &gap, &subst).unwrap();
        // 16 matches + one 8-gap: 32 - 4 - 8 = 20
        assert_eq!(aln.score, 20);
    }

    #[test]
    fn local_finds_core() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        let q = seq(b"TTTTACGTACGTTTTT");
        let s = seq(b"GGGGACGTACGGGGG");
        let aln = align_with_pass::<Local, _, _, _>(
            &ScalarPass,
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            &deep(),
        );
        aln.validate::<Local, _, _>(&q, &s, &gap, &subst).unwrap();
        // Common core ACGTACG (7 matches); extending to q's T vs s's G
        // costs a -3 mismatch and never pays off.
        assert_eq!(aln.score, 14);
    }

    #[test]
    fn local_empty_when_all_negative() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        let aln = align_with_pass::<Local, _, _, _>(
            &ScalarPass,
            &gap,
            &subst,
            seq(b"AAAA").codes(),
            seq(b"CCCC").codes(),
            &deep(),
        );
        assert_eq!(aln.score, 0);
        assert!(aln.is_empty());
    }

    #[test]
    fn semiglobal_contained_read() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        let q = seq(b"TTTTACGTACGTTTTT");
        let s = seq(b"ACGTACGT");
        let aln = align_with_pass::<SemiGlobal, _, _, _>(
            &ScalarPass,
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            &deep(),
        );
        aln.validate::<SemiGlobal, _, _>(&q, &s, &gap, &subst)
            .unwrap();
        assert_eq!(aln.score, 16);
        assert_eq!((aln.s_start, aln.s_end), (0, 8));
        assert_eq!((aln.q_start, aln.q_end), (4, 12));
    }

    #[test]
    fn free_end_shared_prefix() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        let q = seq(b"ACGTTTTTTTT");
        let s = seq(b"ACGTGGGGGGG");
        let aln = align_with_pass::<FreeEnd, _, _, _>(
            &ScalarPass,
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            &deep(),
        );
        aln.validate::<FreeEnd, _, _>(&q, &s, &gap, &subst).unwrap();
        // ACGT matched, then a 7-long query gap reaches the last column.
        assert_eq!(aln.score, -6);
        assert_eq!((aln.q_end, aln.s_end), (4, 11));
    }

    #[test]
    fn extension_shared_prefix() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        let q = seq(b"ACGTTTTTTTT");
        let s = seq(b"ACGTGGGGGGG");
        let aln = align_with_pass::<Extension, _, _, _>(
            &ScalarPass,
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            &deep(),
        );
        aln.validate::<crate::kind::Extension, _, _>(&q, &s, &gap, &subst)
            .unwrap();
        assert_eq!(aln.score, 8);
        assert_eq!((aln.q_end, aln.s_end), (4, 4));
    }
}
