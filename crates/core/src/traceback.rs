//! Traceback for every alignment kind and every size (paper §III-A:
//! "the traceback procedure can be implemented in linear space").
//!
//! One walk ([`crate::fullmatrix::walk`]) serves them all: a kind-`K`
//! pass keeps tile lines and reports `K`'s optimum, and the walk goes
//! back from there through the lines, recomputing only the blocks the
//! optimal path crosses. A rectangle of at most
//! [`AlignConfig::cutoff_area`] cells is one block with no lines. Above
//! the line budget (see [`spacing`]) the lines thin out, and a block
//! larger than the base case is walked through lines of its own — the
//! same pass through the same provider, seeded from the block's kept
//! top row and left column — so memory stays within the budget at
//! every level (FastLSA, Driga et al., *Algorithmica* 2006) and a
//! rectangle is never reduced to another: the alignment is the one the
//! one-block walk over the whole rectangle emits.

use crate::alignment::Alignment;
use crate::fullmatrix::walk;
use crate::kind::AlignKind;
use crate::pass::{lines_pass, Spacing, TileLines};
use crate::score::Score;
use crate::scoring::{GapModel, SubstScore};
use crate::tile::TileIn;

/// Traceback configuration.
#[derive(Debug, Clone, Copy)]
pub struct AlignConfig {
    /// Rectangles with at most this many cells are walked as one block
    /// (one predecessor byte per cell). The default keeps that matrix
    /// around 256 KiB — the paper's "hardware-specific threshold". It
    /// also bounds every block a walk through kept lines recomputes,
    /// and scales the line budget (see [`spacing`]).
    pub cutoff_area: usize,
}

impl Default for AlignConfig {
    fn default() -> Self {
        AlignConfig {
            cutoff_area: 1 << 18,
        }
    }
}

/// A provider of kept-lines passes — the seam through which execution
/// backends plug into the traceback.
///
/// The scalar provider is [`ScalarPass`]; `anyseq-wavefront` supplies a
/// multithreaded tiled provider on any tile kernel. This is the paper's
/// "exchange iteration strategies by passing different generator
/// functions" applied to the traceback.
pub trait LinesPass<G: GapModel, S: SubstScore>: Sync {
    /// Runs a pass of kind `K` over `q × s` from `seeds`, keeping the
    /// tile boundaries `spacing` asks for (see [`lines_pass`]).
    fn lines<K: AlignKind>(
        &self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        seeds: TileIn<'_>,
        spacing: Spacing,
    ) -> TileLines;

    /// Told, after a walk through lines this provider kept, how many
    /// blocks it recomputed; providers that count work add it.
    fn traced(&self, _blocks: usize) {}
}

/// Single-threaded pass provider.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarPass;

impl<G: GapModel, S: SubstScore> LinesPass<G, S> for ScalarPass {
    fn lines<K: AlignKind>(
        &self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        seeds: TileIn<'_>,
        spacing: Spacing,
    ) -> TileLines {
        lines_pass::<K, G, S>(gap, subst, q, s, seeds, spacing)
    }
}

/// Largest tile edge of a kept-lines pass: the edge of the largest
/// square block whose predecessor matrix fits `cutoff_area` bytes.
pub fn leaf_edge(cutoff_area: usize) -> usize {
    cutoff_area.isqrt().max(1)
}

/// Kept-line budget of one pass, in base-case matrices: lines may hold
/// `LINE_BLOCKS · cutoff_area` bytes.
const LINE_BLOCKS: usize = 16;

/// The lines a pass over `n × m` keeps, from its shape and
/// `cutoff_area` alone, so that every provider walks the same path.
///
/// Tiles are at most `e = `[`leaf_edge`]`(cutoff_area)` a side, and the
/// pass keeps every `k`-th boundary, `k` the smallest whose lines fit
/// the budget. At spacing `k·e` the lines are `⌊(n−1)/ke⌋` rows of
/// `2m + 1` scores (`H` and `E`) and `⌊(m−1)/ke⌋` columns of `2n` (`H`
/// and `F`), ≈ `4·n·m/ke` scores of 4 bytes, counted for the affine
/// case whatever the gap model; they may take `LINE_BLOCKS` = 16
/// base-case matrices, `16·cutoff_area` bytes. At the default 2¹⁸ that
/// is 4 MiB, and squares up to ≈ 11.6 kbp keep every line (`k = 1`):
/// the paper's 9 kbp long pair keeps 2.4 MiB at `e = 512`; a 20 kbp
/// pair keeps every third. A provider whose tiles are finer than `e`
/// keeps every `k`-th of its own boundaries, so it holds up to `e /
/// tile` times the budget (the wavefront engine's 256-cell tiles keep
/// up to 8 MiB; its `wavefront.peak_trace_mb` reports what it kept).
/// However small the budget, `k·e` stays within half the longer side,
/// so a line crosses it near the middle: every block is at most about
/// half its rectangle that way, and the nesting ends after a
/// logarithmic number of levels.
pub fn spacing(n: usize, m: usize, cutoff_area: usize) -> Spacing {
    let edge = leaf_edge(cutoff_area);
    let bytes = |e: usize| {
        let scores = (n.saturating_sub(1) / e).saturating_mul(2 * m + 1)
            + (m.saturating_sub(1) / e).saturating_mul(2 * n);
        scores.saturating_mul(std::mem::size_of::<Score>())
    };
    let budget = LINE_BLOCKS.saturating_mul(cutoff_area);
    let most = (n.max(m).div_ceil(2) / edge).max(1);
    let every = (1..most)
        .find(|&k| bytes(k * edge) <= budget)
        .unwrap_or(most);
    Spacing { edge, every }
}

/// Kind-generic linear-space alignment with the scalar pass provider.
pub fn align<K, G, S>(gap: &G, subst: &S, q: &[u8], s: &[u8], cfg: &AlignConfig) -> Alignment
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
{
    align_with_pass::<K, G, S, ScalarPass>(&ScalarPass, gap, subst, q, s, cfg)
}

/// [`align`] with an explicit pass provider (multithreaded / SIMD
/// backends plug in here): the walk (see the module docs) with every
/// pass run by `pass`. The `K` parameter reaches every relaxation, so
/// each monomorphized instance holds exactly one kind's flow — the
/// paper's "exchange several functions ... at compile time".
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
    P: LinesPass<G, S>,
{
    let (aln, blocks) = walk::<K, G, S, P>(pass, gap, subst, q, s, cfg.cutoff_area);
    pass.traced(blocks);
    aln
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{Extension, FreeEnd, Global, Local, SemiGlobal};
    use crate::scoring::{simple, AffineGap, LinearGap};
    use anyseq_seq::Seq;

    fn seq(text: &[u8]) -> Seq {
        Seq::from_ascii(text).unwrap()
    }

    /// Tiny cutoff to force deep recursion even on small inputs.
    fn deep() -> AlignConfig {
        AlignConfig { cutoff_area: 12 }
    }

    /// The one-block walk of `q × s`: the reference every walk through
    /// lines must reproduce.
    fn one_block<K: AlignKind, G: GapModel>(gap: &G, q: &[u8], s: &[u8]) -> Alignment {
        let cfg = AlignConfig {
            cutoff_area: usize::MAX,
        };
        align::<K, _, _>(gap, &simple(2, -1), q, s, &cfg)
    }

    /// A walk through lines kept at any spacing, nested however deep,
    /// emits the one-block walk's alignment for every kind — gap runs
    /// that cross block edges in the `E` and `F` states included — and
    /// a kept-lines pass from the kind's seeds returns the score pass's
    /// rows.
    #[test]
    fn walks_through_lines_emit_the_base_case_ops() {
        use crate::pass::{score_pass, Seeds};
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
            ($kind:ty, $gap:expr) => {{
                let gap = $gap;
                for (q, s) in pairs {
                    let (q, s) = (q.codes(), s.codes());
                    let want = one_block::<$kind, _>(&gap, q, s);
                    let whole = score_pass::<$kind, _, _>(&gap, &subst, q, s);
                    let seeds = Seeds::init::<$kind, _>(&gap, q.len(), s.len());
                    for edge in [0, 1, 2, 3, 4, 7, 16, 1000] {
                        let what = format!(
                            "{} {gap:?} {}x{} edge {edge}",
                            <$kind>::NAME,
                            q.len(),
                            s.len()
                        );
                        let (got, blocks) =
                            walk::<$kind, _, _, _>(&ScalarPass, &gap, &subst, q, s, edge * edge);
                        assert_eq!(got, want, "{what}");
                        assert!(edge < 1000 || blocks == 0, "{what}");
                        let spacing = Spacing { edge, every: 1 };
                        let lines =
                            lines_pass::<$kind, _, _>(&gap, &subst, q, s, seeds.stripes(), spacing);
                        assert_eq!(lines.pass.last_h, whole.last_h, "{what}");
                        assert_eq!(lines.pass.last_e, whole.last_e, "{what}");
                        assert_eq!((lines.pass.score, lines.pass.end), (whole.score, whole.end));
                    }
                }
            }};
        }
        check!(Global, linear);
        check!(Global, affine);
        check!(Local, linear);
        check!(Local, affine);
        check!(SemiGlobal, linear);
        check!(SemiGlobal, affine);
        check!(FreeEnd, linear);
        check!(FreeEnd, affine);
        check!(Extension, linear);
        check!(Extension, affine);
    }

    #[test]
    fn the_long_pair_is_one_leaf_and_larger_rectangles_split() {
        // Within the budget a pass keeps every tile line; above it the
        // lines thin out by whole multiples of the tile edge.
        let c = AlignConfig::default().cutoff_area;
        let every = |n, m| spacing(n, m, c).every;
        assert_eq!(
            spacing(9_000, 9_000, c),
            Spacing {
                edge: 512,
                every: 1
            }
        );
        assert_eq!(every(9_200, 8_800), 1);
        assert_eq!(every(6_000, 12_000), 1);
        assert_eq!(every(12_000, 12_000), 2);
        assert_eq!(every(20_000, 20_000), 3);
        assert_eq!(leaf_edge(16), 4);
        // A hopeless budget still keeps a line across the middle, so
        // every block is at most half its rectangle's longer side.
        assert_eq!(spacing(300, 280, 16), Spacing { edge: 4, every: 37 });
        assert_eq!(spacing(9, 3, 16).every, 1);
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
        // Nested lines, one block: the same alignment.
        assert_eq!(small, big);
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
        assert_eq!(small, big);
        small
            .validate::<Global, _, _>(&q, &s, &gap, &subst)
            .unwrap();
    }

    #[test]
    fn gap_crossing_midline_is_handled() {
        // An 8-long insertion in the middle of q: its vertical run
        // crosses block edges at every nesting level in the `E` state.
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
        assert_eq!(aln, one_block::<Global, _>(&gap, q.codes(), s.codes()));
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
        aln.validate::<Extension, _, _>(&q, &s, &gap, &subst)
            .unwrap();
        assert_eq!(aln.score, 8);
        assert_eq!((aln.q_end, aln.s_end), (4, 4));
    }
}
