//! The lane tile kernel of `anyseq_wavefront`'s [`TiledPass`]: vector
//! lanes are filled with independent ready tiles popped from the
//! dynamic work queue (paper §IV-A + Fig. 3).

use crate::kernel::{block_kernel_kind, from16, max_block_extent, to16, BlockBorders, SimdSubst};
use crate::lanes::I16s;
use anyseq_core::kind::{AlignKind, Global, OptRegion};
use anyseq_core::pass::PassOutput;
use anyseq_core::relax::BestCell;
use anyseq_core::score::Score;
use anyseq_core::scoring::GapModel;
use anyseq_core::tile::TileOut;
use anyseq_wavefront::{ParallelCfg, ScalarTiles, Tile, TileKernel, TiledPass};

/// Smallest tile edge the lane kernel shrinks a pass to.
const MIN_LANE_TILE: usize = 16;

/// The lane kernel: of the up to `L` ready tiles the driver pulls, any
/// `k ≥ 2` of equal shape ride one [`block_kernel_kind`] call, one tile
/// per 16-bit lane (`L = 16` fills one 256-bit register on the AVX2
/// tier, see [`mod@crate::isa`]); padded lanes repeat the last live
/// tile and are never written back. Falling to [`ScalarTiles`] inside
/// the same call: a tile with no equal-shape partner (one lane of a
/// block costs what the scalar tile costs), every tile of a kind whose
/// optimum needs a cell position (`K::OPT != Corner` — lanes report
/// scores, not coordinates), and tiles with `h + w` over
/// [`max_block_extent`], the extent within which 16-bit differences to
/// the incoming corner are exact. The pass runs at half that extent
/// when it is at least `MIN_LANE_TILE`; for steeper schemes no interior
/// tile fits and the pass is all scalar.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneTiles<const L: usize>;

/// Per-worker buffers of [`LaneTiles`].
#[derive(Default)]
pub struct LaneScratch<const L: usize> {
    /// i16 block representation of one lane group.
    block: BlockBorders<L>,
    q_rows: Vec<[u8; L]>,
    s_cols: Vec<[u8; L]>,
    /// The scalar fallback's buffers.
    out: TileOut,
}

impl<SS: SimdSubst, const L: usize> TileKernel<SS> for LaneTiles<L> {
    const GROUP: usize = L;
    type Scratch = LaneScratch<L>;

    fn tile_edge<G: GapModel>(gap: &G, subst: &SS, configured: usize) -> usize {
        let fit = max_block_extent(gap, subst) / 2;
        if fit >= MIN_LANE_TILE {
            configured.min(fit)
        } else {
            configured
        }
    }

    fn relax<K: AlignKind, G: GapModel>(
        gap: &G,
        subst: &SS,
        q: &[u8],
        s: &[u8],
        tiles: &mut [Tile],
        scratch: &mut LaneScratch<L>,
        best: &mut BestCell,
    ) -> usize {
        if !matches!(K::OPT, OptRegion::Corner) {
            return ScalarTiles::relax::<K, G>(gap, subst, q, s, tiles, &mut scratch.out, best);
        }
        let extent = max_block_extent(gap, subst);
        let mut lane_tiles = 0;
        tiles.sort_unstable_by_key(Tile::shape);
        for group in tiles.chunk_by_mut(|a, b| a.shape() == b.shape()) {
            let (h, w) = group[0].shape();
            if group.len() >= 2 && h + w <= extent {
                relax_lanes::<K, G, SS, L>(gap, subst, q, s, group, scratch);
                lane_tiles += group.len();
            } else {
                ScalarTiles::relax::<K, G>(gap, subst, q, s, group, &mut scratch.out, best);
            }
        }
        lane_tiles
    }
}

/// Relaxes `2 ..= L` equal-shape tiles of a corner-optimum kind in one
/// vector block.
fn relax_lanes<K: AlignKind, G: GapModel, SS: SimdSubst, const L: usize>(
    gap: &G,
    subst: &SS,
    q: &[u8],
    s: &[u8],
    tiles: &mut [Tile],
    scr: &mut LaneScratch<L>,
) {
    let (h, w) = tiles[0].shape();
    // Lane → tile; lanes past the live ones repeat the last tile so the
    // block stays well-formed, and are not written back.
    let lane: [usize; L] = std::array::from_fn(|l| l.min(tiles.len() - 1));
    // Per-lane rebase constant: the incoming corner H value.
    let base: [Score; L] = std::array::from_fn(|l| tiles[lane[l]].top.h[0]);

    // i32 stripes → the interleaved i16 block representation.
    let stripe = |l: usize| &tiles[lane[l]];
    lift(&mut scr.block.top_h, w + 1, &base, |l, c| {
        stripe(l).top.h[c]
    });
    lift(&mut scr.block.left_h, h, &base, |l, r| stripe(l).left.h[r]);
    let (ew, fh) = if G::AFFINE { (w, h) } else { (0, 0) };
    lift(&mut scr.block.top_e, ew, &base, |l, c| stripe(l).top.e[c]);
    lift(&mut scr.block.left_f, fh, &base, |l, r| stripe(l).left.f[r]);
    let (q0, s0) = (|l| stripe(l).origin.0 - 1, |l| stripe(l).origin.1 - 1);
    scr.q_rows.clear();
    scr.q_rows
        .extend((0..h).map(|r| std::array::from_fn(|l| q[q0(l) + r])));
    scr.s_cols.clear();
    scr.s_cols
        .extend((0..w).map(|c| std::array::from_fn(|l| s[s0(l) + c])));

    block_kernel_kind::<K, G, SS, false, L>(
        gap,
        subst,
        &scr.q_rows,
        &scr.s_cols,
        &mut scr.block,
        0,
    );

    // The block now holds the bottom / right stripes: back to i32, in
    // place, for the live lanes.
    for (l, tile) in tiles.iter_mut().enumerate() {
        let lower = |dst: &mut [Score], src: &[I16s<L>]| {
            for (d, v) in dst.iter_mut().zip(src) {
                *d = from16(v.0[l], base[l]);
            }
        };
        lower(&mut tile.top.h, &scr.block.top_h);
        lower(&mut tile.top.e, &scr.block.top_e);
        lower(&mut tile.left.h, &scr.block.left_h);
        lower(&mut tile.left.f, &scr.block.left_f);
    }
}

/// Fills `dst` with `len` lane vectors of `at(lane, k)` as 16-bit
/// differences to each lane's `base`.
fn lift<const L: usize>(
    dst: &mut Vec<I16s<L>>,
    len: usize,
    base: &[Score; L],
    at: impl Fn(usize, usize) -> Score,
) {
    dst.clear();
    dst.extend((0..len).map(|k| I16s(std::array::from_fn(|l| to16(at(l, k), base[l])))));
}

/// Vectorized multithreaded score-only pass for **global** alignments:
/// [`TiledPass::score_pass`] with the lane kernel at `L` lanes.
pub fn simd_tiled_score_pass<G, SS, const L: usize>(
    gap: &G,
    subst: &SS,
    q: &[u8],
    s: &[u8],
    tb: Score,
    cfg: &ParallelCfg,
) -> PassOutput
where
    G: GapModel,
    SS: SimdSubst,
{
    TiledPass::<LaneTiles<L>>::new(*cfg).score_pass::<Global, G, SS>(gap, subst, q, s, tb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::kind::{FreeEnd, Local, SemiGlobal};
    use anyseq_core::pass::score_pass;
    use anyseq_core::scoring::{simple, AffineGap, LinearGap, MatrixSubst};
    use anyseq_seq::genome::GenomeSim;
    use anyseq_wavefront::pass::finalize;
    use anyseq_wavefront::ShardSeam;
    use proptest::prelude::*;

    fn cfg(threads: usize, tile: usize) -> ParallelCfg {
        ParallelCfg::threads(threads).with_tile(tile)
    }

    /// One slab chain over `plan` on kernel `Kn`, each slab starting
    /// from the seam the one before it exported.
    fn chain<Kn: TileKernel<SS>, K: AlignKind, G: GapModel, SS: SimdSubst>(
        (gap, subst): (&G, &SS),
        (q, s): (&[u8], &[u8]),
        tb: Score,
        cfg: &ParallelCfg,
        plan: &[(usize, usize)],
    ) -> (PassOutput, Vec<ShardSeam>) {
        let pass = TiledPass::<Kn>::new(*cfg);
        let (mut last_h, mut last_e) = (Vec::new(), Vec::new());
        let mut best = BestCell::empty();
        let mut seams: Vec<ShardSeam> = Vec::new();
        for &cols in plan {
            let slab = pass.slab::<K, G, SS>(gap, subst, q, s, cols, tb, seams.last());
            let (h, e) = slab.last_rows();
            last_h.extend_from_slice(&h[(cols.0 > 0) as usize..]);
            last_e.extend_from_slice(&e);
            best.merge(&slab.best);
            seams.push(slab.seam);
        }
        let out = finalize::<K, G>(gap, best, q.len(), s.len(), tb, &last_h, last_e);
        (out, seams)
    }

    /// Both kernels against the row sweep, kind `K`, one input.
    fn check<K: AlignKind, G: GapModel, SS: SimdSubst, const L: usize>(
        scheme: (&G, &SS),
        pair: (&[u8], &[u8]),
        tb: Score,
        cfg: &ParallelCfg,
        plan: &[(usize, usize)],
    ) {
        let oracle = score_pass::<K, G, SS>(scheme.0, scheme.1, pair.0, pair.1, tb);
        let (scalar, scalar_seams) = chain::<ScalarTiles, K, G, SS>(scheme, pair, tb, cfg, plan);
        let (lanes, lane_seams) = chain::<LaneTiles<L>, K, G, SS>(scheme, pair, tb, cfg, plan);
        for (name, got) in [("scalar", &scalar), ("lane", &lanes)] {
            let what = format!("{name} kernel, {} L={L} {cfg:?} {plan:?}", K::NAME);
            assert_eq!(got.score, oracle.score, "score: {what}");
            assert_eq!(got.end, oracle.end, "end: {what}");
            assert_eq!(got.last_h, oracle.last_h, "last_h: {what}");
            assert_eq!(got.last_e, oracle.last_e, "last_e: {what}");
        }
        assert_eq!(
            scalar_seams,
            lane_seams,
            "seams: {} L={L} {plan:?}",
            K::NAME
        );
    }

    proptest! {
        // Debug builds run the lanes as scalar loops; the optimised
        // run (CI's `cargo test --release`) can afford the wide net.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 16 } else { 256 }))]

        /// The identity property of the one driver: whatever the
        /// kernel, schedule, thread count, tile edge, lane count, gap
        /// model, substitution function, Hirschberg boundary and slab
        /// plan, the pass equals `core::pass::score_pass` in every
        /// output, and both kernels export equal seams — for Global on
        /// the lanes, for the other kinds through the scalar fallback.
        #[test]
        fn both_kernels_equal_the_row_sweep_on_any_plan(
            (n, m, seed) in (1usize..=3000, 1usize..=3000, 0u64..1 << 32),
            (tile, threads, lanes) in (16usize..=96, 1usize..=3, 0usize..4),
            (affine, tb_open, matrix, static_schedule) in (0u8..2, 0u8..2, 0u8..2, 0u8..2),
            cuts in prop::collection::vec(1usize..3000, 0..4),
            other_kind in 0usize..3,
        ) {
            let mut sim = GenomeSim::new(seed);
            let q = sim.generate(n);
            // Related over the shared prefix, unrelated past it.
            let mut s = sim.mutate(&q, 0.1).codes().to_vec();
            s.resize_with(m, || (sim.generate(1).codes()[0] + 1) % 4);
            let pair = (q.codes(), &s[..]);
            let mut cuts: Vec<usize> = cuts.into_iter().filter(|&c| c < m).collect();
            cuts.extend([0, m]);
            cuts.sort_unstable();
            cuts.dedup();
            let plan: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
            let mut cfg = cfg(threads, tile);
            cfg.static_schedule = static_schedule == 1;

            macro_rules! kinds {
                ($gap:expr, $subst:expr, $l:literal) => {{
                    let scheme = (&$gap, &$subst);
                    let tb = if tb_open == 1 { $gap.open() } else { 0 };
                    check::<Global, _, _, $l>(scheme, pair, tb, &cfg, &plan);
                    match other_kind {
                        0 => check::<SemiGlobal, _, _, $l>(scheme, pair, tb, &cfg, &plan),
                        1 => check::<Local, _, _, $l>(scheme, pair, tb, &cfg, &plan),
                        _ => check::<FreeEnd, _, _, $l>(scheme, pair, tb, &cfg, &plan),
                    }
                }};
            }
            macro_rules! schemes {
                ($l:literal) => {{
                    let (lin, aff) = (LinearGap { gap: -2 }, AffineGap { open: -3, extend: -1 });
                    let (sim, mat) = (simple(2, -1), MatrixSubst::dna(3, -2, -1));
                    match (affine, matrix) {
                        (0, 0) => kinds!(lin, sim, $l),
                        (0, _) => kinds!(lin, mat, $l),
                        (_, 0) => kinds!(aff, sim, $l),
                        _ => kinds!(aff, mat, $l),
                    }
                }};
            }
            match lanes {
                0 => schemes!(4),
                1 => schemes!(8),
                2 => schemes!(16),
                _ => schemes!(32),
            }
        }
    }

    #[test]
    fn schemes_too_steep_for_i16_tiles_stay_exact() {
        // Per-step magnitudes of 1 000 and 4 000 leave an i16 extent of
        // 12 and 3 cells — below any lane tile: every tile must go
        // scalar instead of overflowing the differential scores.
        let mut sim = GenomeSim::new(37);
        let q = sim.generate(400);
        let s = sim.mutate(&q, 0.2);
        let (q, s) = (q.codes(), s.codes());
        for step in [1_000, 4_000] {
            let subst = simple(step, -step);
            let lin = LinearGap { gap: -step };
            let aff = AffineGap {
                open: -step,
                extend: -step / 2,
            };
            let want = score_pass::<Global, _, _>(&lin, &subst, q, s, lin.open());
            let got = simd_tiled_score_pass::<_, _, 4>(&lin, &subst, q, s, lin.open(), &cfg(2, 16));
            assert_eq!(
                (got.score, got.last_h),
                (want.score, want.last_h),
                "linear {step}"
            );
            let want = score_pass::<Global, _, _>(&aff, &subst, q, s, aff.open());
            let got = simd_tiled_score_pass::<_, _, 4>(&aff, &subst, q, s, aff.open(), &cfg(2, 16));
            assert_eq!(
                (got.score, got.last_e),
                (want.score, want.last_e),
                "affine {step}"
            );
        }
    }

    #[test]
    fn equal_shape_tiles_ride_lanes_and_the_rest_go_scalar() {
        let mut sim = GenomeSim::new(41);
        let q = sim.generate(6 * 32 + 7);
        let s = sim.mutate(&q, 0.1);
        let gap = LinearGap { gap: -1 };
        let counts = |len: usize, subst| {
            let pass = TiledPass::<LaneTiles<8>>::new(cfg(1, 32));
            let (q, s) = (&q.codes()[..len], &s.codes()[..len]);
            pass.score_pass::<Global, _, _>(&gap, &subst, q, s, gap.open());
            pass.tile_counts()
        };
        // One thread pulls whole anti-diagonals of the 6 × 6 grid: only
        // the two corner tiles find no equal-shape partner.
        assert_eq!(counts(6 * 32, simple(2, -1)), (34, 2));
        // A ragged 7th row and column: each anti-diagonal now ends in
        // one 7 × 32 and one 32 × 7 tile, partners of nothing.
        assert_eq!(counts(6 * 32 + 7, simple(2, -1)), (34, 15));
        // A scheme past the i16 budget declines every group.
        assert_eq!(counts(6 * 32, simple(900, -1)), (0, 36));
    }

    #[test]
    fn simd_pass_matches_scalar_affine_various_lanes() {
        let mut sim = GenomeSim::new(23);
        let q = sim.generate(3000);
        let s = sim.mutate(&q, 0.12);
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        macro_rules! lanes {
            ($l:literal) => {{
                let out = simd_tiled_score_pass::<_, _, $l>(
                    &gap,
                    &subst,
                    q.codes(),
                    s.codes(),
                    gap.open(),
                    &cfg(6, 96),
                );
                assert_eq!(out.score, scalar.score, "L = {}", $l);
                assert_eq!(out.last_h, scalar.last_h, "L = {}", $l);
                assert_eq!(out.last_e, scalar.last_e, "L = {}", $l);
            }};
        }
        lanes!(4);
        lanes!(8);
        lanes!(16);
        lanes!(32);
    }

    #[test]
    fn simd_respects_hirschberg_tb() {
        let mut sim = GenomeSim::new(29);
        let q = sim.generate(1200);
        let s = sim.generate(900);
        let gap = AffineGap {
            open: -4,
            extend: -1,
        };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), 0);
        let out =
            simd_tiled_score_pass::<_, _, 8>(&gap, &subst, q.codes(), s.codes(), 0, &cfg(3, 64));
        assert_eq!(out.score, scalar.score);
        assert_eq!(out.last_e, scalar.last_e);
    }

    #[test]
    fn matrix_subst_gather_path() {
        let mut sim = GenomeSim::new(31);
        let q = sim.generate(2000);
        let s = sim.mutate(&q, 0.05);
        let gap = LinearGap { gap: -1 };
        let subst = MatrixSubst::dna(2, -1, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        let out = simd_tiled_score_pass::<_, _, 16>(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            gap.open(),
            &cfg(4, 80),
        );
        assert_eq!(out.score, scalar.score);
    }
}
