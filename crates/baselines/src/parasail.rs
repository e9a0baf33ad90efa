//! Parasail-like baseline (paper §V).
//!
//! Two documented Parasail properties drive its numbers in the paper:
//!
//! 1. *"Parasail does not explicitly specialize the case of linear gap
//!    penalties which means that it effectively always computes affine
//!    gaps, even if Go = 0"* — this baseline always runs the affine
//!    recurrence (linear requests become `open = 0`),
//! 2. it (like AnySeq's preliminary version) uses a **static wavefront**
//!    along diagonals: "Our preliminary version \[18\] and Parasail rely on
//!    the latter strategy. This also explains the low Parasail
//!    performance in Figure 5 part a)" — tiles run behind a barrier per
//!    anti-diagonal with fixed round-robin assignment,
//!
//! and its tile interior is relaxed along **minor diagonals** (the
//! classic intra-sequence vector layout) rather than in cache-friendly
//! row-major order.

use anyseq_core::alignment::Alignment;
use anyseq_core::kind::{AlignKind, Global, OptRegion};
use anyseq_core::pass::{lines_pass, Seeds, Spacing, TileLines};
use anyseq_core::relax::BestCell;
use anyseq_core::scheme::Scheme;
use anyseq_core::score::{Score, NEG_INF};
use anyseq_core::scoring::{AffineGap, GapModel, SubstScore};
use anyseq_core::tile::TileIn;
use anyseq_core::traceback::{align_with_pass, AlignConfig, LinesPass};
use anyseq_seq::Seq;
use anyseq_wavefront::borders::{HStripe, VStripe};
use anyseq_wavefront::{ParallelCfg, Tile, TileKernel, TiledPass};

/// Parasail-like configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParasailLike {
    /// Worker threads.
    pub threads: usize,
    /// Tile edge.
    pub tile: usize,
}

impl ParasailLike {
    /// Default configuration.
    pub fn new(threads: usize) -> ParasailLike {
        ParasailLike {
            threads: threads.max(1),
            tile: 512,
        }
    }

    /// Global score. Linear schemes are converted to `open = 0` affine —
    /// the "always affine" behaviour.
    pub fn score<G, S>(&self, scheme: &Scheme<Global, G, S>, q: &Seq, s: &Seq) -> Score
    where
        G: GapModel,
        S: SubstScore,
    {
        let aff = AffineGap {
            open: scheme.gap().open(),
            extend: scheme.gap().extend(),
        };
        let (q, s) = (q.codes(), s.codes());
        let seeds = Seeds::init::<Global, AffineGap>(&aff, q.len(), s.len());
        self.pass_impl::<Global, S>(&aff, scheme.subst(), q, s, seeds.stripes(), Spacing::NONE)
            .pass
            .score
    }

    /// Global alignment through the static-wavefront passes (the pair's
    /// kept-lines pass, and the nested blocks' above the line budget).
    pub fn align<G, S>(&self, scheme: &Scheme<Global, G, S>, q: &Seq, s: &Seq) -> Alignment
    where
        G: GapModel,
        S: SubstScore,
    {
        let aff = AffineGap {
            open: scheme.gap().open(),
            extend: scheme.gap().extend(),
        };
        align_with_pass::<Global, AffineGap, S, _>(
            self,
            &aff,
            scheme.subst(),
            q.codes(),
            s.codes(),
            &AlignConfig::default(),
        )
    }

    /// A pass of kind `K` from `seeds` that keeps the tile lines
    /// `spacing` asks for.
    fn pass_impl<K, S>(
        &self,
        gap: &AffineGap,
        subst: &S,
        q: &[u8],
        s: &[u8],
        seeds: TileIn<'_>,
        spacing: Spacing,
    ) -> TileLines
    where
        K: AlignKind,
        S: SubstScore,
    {
        let n = q.len();
        let m = s.len();
        if n == 0 || m == 0 || n * m < 1 << 22 || self.threads == 1 {
            return lines_pass::<K, AffineGap, S>(gap, subst, q, s, seeds, spacing);
        }
        let mut cfg = ParallelCfg::threads(self.threads).with_tile(self.tile);
        cfg.static_schedule = true;
        TiledPass::<DiagTiles>::new(cfg).lines::<K, AffineGap, S>(gap, subst, q, s, seeds, spacing)
    }
}

impl<S: SubstScore> LinesPass<AffineGap, S> for ParasailLike {
    fn lines<K: AlignKind>(
        &self,
        gap: &AffineGap,
        subst: &S,
        q: &[u8],
        s: &[u8],
        seeds: TileIn<'_>,
        spacing: Spacing,
    ) -> TileLines {
        if matches!(K::OPT, OptRegion::Corner) {
            self.pass_impl::<K, S>(gap, subst, q, s, seeds, spacing)
        } else {
            lines_pass::<K, AffineGap, S>(gap, subst, q, s, seeds, spacing)
        }
    }
}

/// [`diag_tile_kernel`] as a [`TileKernel`], one tile at a time. It
/// tracks no optimum, so it serves corner kinds only, and it runs the
/// affine recurrence only.
#[derive(Debug, Clone, Copy, Default)]
struct DiagTiles;

impl<S: SubstScore> TileKernel<S> for DiagTiles {
    const GROUP: usize = 1;
    type Scratch = DiagScratch;

    fn relax<K: AlignKind, G: GapModel>(
        &self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        tiles: &mut [Tile],
        scratch: &mut DiagScratch,
        _: &mut BestCell,
    ) -> usize {
        assert!(
            G::AFFINE && matches!(K::OPT, OptRegion::Corner),
            "the diagonal kernel runs affine corner-optimum passes only"
        );
        for tile in tiles {
            let ((i0, j0), (h, w)) = (tile.origin, tile.shape());
            diag_tile_kernel(
                gap,
                subst,
                &q[i0 - 1..i0 - 1 + h],
                &s[j0 - 1..j0 - 1 + w],
                &mut tile.top,
                &mut tile.left,
                scratch,
            );
        }
        0
    }
}

/// Per-worker scratch for the diagonal kernel.
#[derive(Default)]
struct DiagScratch {
    a_h: Vec<Score>,
    b_h: Vec<Score>,
    a_e: Vec<Score>,
    f: Vec<Score>,
}

/// Relaxes a tile along minor diagonals, updating the stripes in place
/// (same border contract as `relax_tile`, different iteration order —
/// the strided accesses and shuffle-like data movement make it measurably
/// slower per cell, which is the historical cost of the layout).
fn diag_tile_kernel<G: GapModel, S: SubstScore>(
    gap: &G,
    subst: &S,
    q_tile: &[u8],
    s_tile: &[u8],
    top: &mut HStripe,
    left: &mut VStripe,
    scratch: &mut DiagScratch,
) {
    let h = q_tile.len();
    let w = s_tile.len();
    let ext = gap.extend();
    let open = gap.open();

    scratch.a_h.clear();
    scratch.a_h.resize(h, 0);
    scratch.b_h.clear();
    scratch.b_h.resize(h, 0);
    scratch.a_e.clear();
    scratch.a_e.resize(h, NEG_INF);
    scratch.f.clear();
    scratch.f.resize(h, NEG_INF);
    for r in 0..h {
        scratch.a_h[r] = left.h[r];
        scratch.f[r] = left.f[r];
    }
    let mut diag0 = top.h[0];
    let bottom_left_in = left.h[h - 1];

    for d in 0..(h + w - 1) {
        let r_lo = d.saturating_sub(w - 1);
        let r_hi = d.min(h - 1);
        for r in (r_lo..=r_hi).rev() {
            let c = d - r;
            let (up_h, diag_h, up_e) = if r == 0 {
                (top.h[c + 1], diag0, top.e[c])
            } else {
                (scratch.a_h[r - 1], scratch.b_h[r - 1], scratch.a_e[r - 1])
            };
            let e = (up_e + ext).max(up_h + open + ext);
            let f = (scratch.f[r] + ext).max(scratch.a_h[r] + open + ext);
            let mut hv = diag_h + subst.score(q_tile[r], s_tile[c]);
            if e > hv {
                hv = e;
            }
            if f > hv {
                hv = f;
            }
            scratch.b_h[r] = scratch.a_h[r];
            scratch.a_h[r] = hv;
            scratch.a_e[r] = e;
            scratch.f[r] = f;
            if r == h - 1 {
                top.h[c + 1] = hv;
                top.e[c] = e;
            }
            if c == w - 1 {
                left.h[r] = hv;
                left.f[r] = f;
            }
        }
        if r_lo == 0 {
            diag0 = top.h[d + 1];
        }
    }
    top.h[0] = bottom_left_in;
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::pass::init_left_h;
    use anyseq_core::prelude::{affine, global, linear, simple};
    use anyseq_seq::genome::GenomeSim;

    #[test]
    fn parasail_like_score_matches_affine_reference() {
        // Above the 2²² cutoff at 5 threads, so the tiled pass runs;
        // tile edge 128 leaves ragged tiles on the last row and column.
        // The last rows must match the row sweep, from the kind's own
        // seeds and from a nested block's (here: column 0 opened at 0).
        let mut sim = GenomeSim::new(101);
        let q = sim.generate(3000);
        let s = sim.mutate(&q, 0.1);
        let (q, s) = (q.codes(), s.codes());
        assert!(q.len() * s.len() >= 1 << 22 && q.len() % 128 != 0);
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let mut b = ParasailLike::new(5);
        b.tile = 128;
        let own = Seeds::init::<Global, _>(&gap, q.len(), s.len());
        let mut block = own.clone();
        block.left_h = init_left_h::<Global, _>(&gap, q.len(), 0);
        for (seeds, what) in [(own, "own seeds"), (block, "block seeds")] {
            let seeds = seeds.stripes();
            for spacing in [
                Spacing::NONE,
                Spacing {
                    edge: 128,
                    every: 1,
                },
                Spacing {
                    edge: 128,
                    every: 3,
                },
            ] {
                let want = lines_pass::<Global, _, _>(&gap, &subst, q, s, seeds, spacing);
                let got = b.pass_impl::<Global, _>(&gap, &subst, q, s, seeds, spacing);
                let what = format!("{what} {spacing:?}");
                let (got_pass, want_pass) = (&got.pass, &want.pass);
                assert_eq!(
                    (got_pass.score, got_pass.end),
                    (want_pass.score, want_pass.end),
                    "{what}"
                );
                assert_eq!(got_pass.last_h, want_pass.last_h, "last_h, {what}");
                assert_eq!(got_pass.last_e, want_pass.last_e, "last_e, {what}");
                // A traceback walks the kept lines: the row sweep's.
                assert_eq!(
                    (got.rows, got.cols),
                    (want.rows, want.cols),
                    "lines, {what}"
                );
            }
        }
    }

    #[test]
    fn parasail_like_linear_request_equals_open_zero_affine() {
        // The always-affine behaviour is score-neutral for open = 0.
        let mut sim = GenomeSim::new(103);
        let q = sim.generate(1500);
        let s = sim.mutate(&q, 0.08);
        let lin = global(linear(simple(2, -1), -1));
        let b = ParasailLike::new(2);
        assert_eq!(b.score(&lin, &q, &s), lin.score(&q, &s));
    }

    #[test]
    fn parasail_like_align_valid() {
        let mut sim = GenomeSim::new(107);
        let q = sim.generate(2000);
        let s = sim.mutate(&q, 0.12);
        let scheme = global(affine(simple(2, -1), -3, -1));
        let aln = ParasailLike::new(3).align(&scheme, &q, &s);
        assert_eq!(aln.score, scheme.score(&q, &s));
        aln.validate::<Global, _, _>(&q, &s, scheme.gap(), scheme.subst())
            .unwrap();
    }

    #[test]
    fn diag_kernel_bit_exact_vs_row_major() {
        use anyseq_core::pass::{init_left_f, init_top_e, init_top_h};
        use anyseq_core::tile::{relax_tile, NoSink, TileIn, TileOut};
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let mut sim = GenomeSim::new(109);
        let q = sim.generate(77);
        let s = sim.generate(53);
        let (n, m) = (q.len(), s.len());
        let top_h = init_top_h::<Global, _>(&gap, m);
        let top_e = init_top_e::<Global, _>(&gap, m);
        let left_h = init_left_h::<Global, _>(&gap, n, gap.open);
        let left_f = init_left_f::<AffineGap>(n);
        let mut out = TileOut::new();
        relax_tile::<Global, _, _, _>(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
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
        let mut top = HStripe { h: top_h, e: top_e };
        let mut left = VStripe {
            h: left_h,
            f: left_f,
        };
        let mut scratch = DiagScratch::default();
        diag_tile_kernel(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            &mut top,
            &mut left,
            &mut scratch,
        );
        assert_eq!(top.h, out.bot_h);
        assert_eq!(top.e, out.bot_e);
        assert_eq!(left.h, out.right_h);
        assert_eq!(left.f, out.right_f);
    }
}
