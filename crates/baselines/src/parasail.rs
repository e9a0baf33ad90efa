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
use anyseq_core::hirschberg::{align_with_pass, AlignConfig, HalfPass};
use anyseq_core::kind::{AlignKind, Global, OptRegion};
use anyseq_core::pass::{score_pass, PassOutput};
use anyseq_core::relax::BestCell;
use anyseq_core::scheme::Scheme;
use anyseq_core::score::{Score, NEG_INF};
use anyseq_core::scoring::{AffineGap, GapModel, SubstScore};
use anyseq_seq::Seq;
use anyseq_wavefront::borders::{BorderStore, HStripe, VStripe};
use anyseq_wavefront::grid::TileGrid;
use anyseq_wavefront::pass::finalize;
use anyseq_wavefront::scheduler::run_static;

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
        self.pass_impl::<Global, S>(&aff, scheme.subst(), q.codes(), s.codes(), aff.open)
            .score
    }

    /// Global alignment via Hirschberg over the static-wavefront passes.
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

    fn pass_impl<K, S>(
        &self,
        gap: &AffineGap,
        subst: &S,
        q: &[u8],
        s: &[u8],
        tb: Score,
    ) -> PassOutput
    where
        K: AlignKind,
        S: SubstScore,
    {
        let n = q.len();
        let m = s.len();
        if n == 0 || m == 0 || n * m < 1 << 22 || self.threads == 1 {
            return score_pass::<K, AffineGap, S>(gap, subst, q, s, tb);
        }
        let grid = TileGrid::new(n, m, self.tile);
        let borders = BorderStore::init::<K, AffineGap>(&grid, gap, tb);

        run_static(
            &grid,
            self.threads,
            1,
            || {
                (
                    HStripe::default(),
                    VStripe::default(),
                    DiagScratch::default(),
                )
            },
            |(top, left, scratch), tiles| {
                for &t in tiles {
                    let (i0, th) = grid.rows(t.ti);
                    let (j0, tw) = grid.cols(t.tj);
                    {
                        let mut slot = borders.col[t.tj as usize].lock();
                        std::mem::swap(&mut top.h, &mut slot.h);
                        std::mem::swap(&mut top.e, &mut slot.e);
                    }
                    {
                        let mut slot = borders.row[t.ti as usize].lock();
                        std::mem::swap(&mut left.h, &mut slot.h);
                        std::mem::swap(&mut left.f, &mut slot.f);
                    }
                    diag_tile_kernel(
                        gap,
                        subst,
                        &q[i0 - 1..i0 - 1 + th],
                        &s[j0 - 1..j0 - 1 + tw],
                        top,
                        left,
                        scratch,
                    );
                    {
                        let mut slot = borders.col[t.tj as usize].lock();
                        std::mem::swap(&mut slot.h, &mut top.h);
                        std::mem::swap(&mut slot.e, &mut top.e);
                    }
                    {
                        let mut slot = borders.row[t.ti as usize].lock();
                        std::mem::swap(&mut slot.h, &mut left.h);
                        std::mem::swap(&mut slot.f, &mut left.f);
                    }
                }
            },
        );

        let (last_h, last_e) = borders.assemble_last_rows(&grid);
        finalize::<K, AffineGap>(gap, BestCell::empty(), n, m, tb, &last_h, last_e)
    }
}

impl<S: SubstScore> HalfPass<AffineGap, S> for ParasailLike {
    fn pass<K: AlignKind>(
        &self,
        gap: &AffineGap,
        subst: &S,
        q: &[u8],
        s: &[u8],
        tb: Score,
    ) -> PassOutput {
        if matches!(K::OPT, OptRegion::Corner) {
            self.pass_impl::<K, S>(gap, subst, q, s, tb)
        } else {
            score_pass::<K, AffineGap, S>(gap, subst, q, s, tb)
        }
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
fn diag_tile_kernel<S: SubstScore>(
    gap: &AffineGap,
    subst: &S,
    q_tile: &[u8],
    s_tile: &[u8],
    top: &mut HStripe,
    left: &mut VStripe,
    scratch: &mut DiagScratch,
) {
    let h = q_tile.len();
    let w = s_tile.len();
    let ext = gap.extend;
    let open = gap.open;

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
    use anyseq_core::prelude::{affine, global, linear, simple};
    use anyseq_seq::genome::GenomeSim;

    #[test]
    fn parasail_like_score_matches_affine_reference() {
        let mut sim = GenomeSim::new(101);
        let q = sim.generate(3000);
        let s = sim.mutate(&q, 0.1);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let mut b = ParasailLike::new(5);
        b.tile = 100;
        let got = b.pass_impl::<Global, _>(
            &AffineGap {
                open: -2,
                extend: -1,
            },
            scheme.subst(),
            q.codes(),
            s.codes(),
            -2,
        );
        assert_eq!(got.score, scheme.score(&q, &s));
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
        use anyseq_core::pass::{init_left_f, init_left_h, init_top_e, init_top_h};
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
