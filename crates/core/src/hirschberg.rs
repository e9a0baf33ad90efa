//! Linear-space traceback: Hirschberg divide-and-conquer with
//! Myers–Miller affine-gap boundary handling (paper §III-A, ref. \[24\]:
//! "the traceback procedure can be implemented in linear space ... that
//! recursively determines optimal midpoints of the DP matrix (at the cost
//! of at most doubling the amount of computed DP cells)").
//!
//! The recursion [`diff`] splits the query at its middle row, runs a
//! forward and a backward score-only half-pass (both are just
//! [`crate::pass::score_pass`]), and combines the final rows to find a
//! column where an optimal path crosses — either in the `H` state or
//! inside a vertical gap (`E` state), in which case the gap's open cost is
//! refunded once and two forced gap columns are emitted (Myers–Miller).
//! Sub-rectangles below [`AlignConfig::cutoff_area`] fall through to the
//! full-matrix base case with `tb`/`te` boundary adjustments.
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
use crate::fullmatrix::base_global;
use crate::kind::{AlignKind, Extension, FreeEnd, Global, OptRegion};
use crate::pass::{score_pass, PassOutput};
use crate::score::Score;
use crate::scoring::{GapModel, SubstScore};

/// Traceback configuration.
#[derive(Debug, Clone, Copy)]
pub struct AlignConfig {
    /// Rectangles with at most this many cells use the full-matrix base
    /// case (one predecessor byte per cell). The default keeps base-case
    /// memory around 256 KiB — the paper's "hardware-specific threshold".
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
/// backends plug into the divide-and-conquer traceback.
///
/// The scalar provider is [`ScalarPass`]; `anyseq-wavefront` supplies a
/// multithreaded tiled provider, `anyseq-simd` a vectorized one. This is
/// the paper's "exchange iteration strategies by passing different
/// generator functions" applied to the traceback recursion.
pub trait HalfPass<G: GapModel, S: SubstScore>: Sync {
    /// Runs a score-only pass of kind `K` (see [`score_pass`]).
    fn pass<K: AlignKind>(&self, gap: &G, subst: &S, q: &[u8], s: &[u8], tb: Score) -> PassOutput;
}

/// Single-threaded pass provider.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarPass;

impl<G: GapModel, S: SubstScore> HalfPass<G, S> for ScalarPass {
    #[inline]
    fn pass<K: AlignKind>(&self, gap: &G, subst: &S, q: &[u8], s: &[u8], tb: Score) -> PassOutput {
        score_pass::<K, G, S>(gap, subst, q, s, tb)
    }
}

/// Appends the optimal global alignment of `q × s` (with boundary
/// vertical-gap opens `tb`, `te`) to `ops`; returns the adjusted score.
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
