//! SIMD-accelerated tiled wavefront pass: vector lanes are filled with
//! `L` independent ready tiles popped from the dynamic work queue
//! (paper §IV-A + Fig. 3: "A thread only computes a vectorized block, if
//! l work items are enqueued ... In these cases threads will compute
//! single submatrices using the scalar method").

use crate::kernel::{block_kernel_kind, from16, max_block_extent, to16, BlockBorders, SimdSubst};
use crate::lanes::I16s;
use anyseq_core::kind::{AlignKind, Global, OptRegion};
use anyseq_core::pass::{score_pass, PassOutput};
use anyseq_core::relax::BestCell;
use anyseq_core::score::Score;
use anyseq_core::scoring::GapModel;
use anyseq_core::tile::{relax_tile, NoSink, TileIn, TileOut};
use anyseq_wavefront::borders::BorderStore;
use anyseq_wavefront::grid::{TileGrid, TileId};
use anyseq_wavefront::pass::{finalize, ParallelCfg};
use anyseq_wavefront::scheduler::run_dynamic;

/// Per-worker scratch for the SIMD compute callback.
struct Scratch<const L: usize> {
    // Per-lane i32 stripes taken from the border store.
    top: Vec<crate::HStripeBuf>,
    left: Vec<crate::VStripeBuf>,
    base: [Score; L],
    // i16 block representation.
    block: BlockBorders<L>,
    q_rows: Vec<[u8; L]>,
    s_cols: Vec<[u8; L]>,
    // Scalar fallback buffers.
    out: TileOut,
}

/// Vectorized multithreaded score-only pass for **global** alignments.
///
/// `L` is the lane count: 16 × 16-bit fills one 256-bit register on
/// the AVX2 tier (see [`mod@crate::isa`]) and two 128-bit ones on baseline.
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
    let n = q.len();
    let m = s.len();
    if n == 0 || m == 0 || n * m < cfg.min_parallel_area {
        return score_pass::<Global, G, SS>(gap, subst, q, s, tb);
    }
    // The i16 differential budget bounds the tile extent (paper §IV-A).
    let tile = cfg.tile.min(max_block_extent(gap, subst) / 2).max(16);

    let grid = TileGrid::new(n, m, tile);
    let borders = BorderStore::init::<Global, G>(&grid, gap, tb);

    let compute = |scr: &mut Scratch<L>, tiles: &[TileId]| {
        // Full blocks of L interior-size tiles go down the vector path;
        // everything else (short batches, edge tiles) is scalar.
        let (vec_tiles, scalar_tiles): (Vec<TileId>, Vec<TileId>) = if tiles.len() == L {
            tiles.iter().partition(|t| {
                let (_, th) = grid.rows(t.ti);
                let (_, tw) = grid.cols(t.tj);
                th == tile && tw == tile
            })
        } else {
            (Vec::new(), tiles.to_vec())
        };

        if vec_tiles.len() == L {
            compute_block::<G, SS, L>(gap, subst, q, s, &grid, &borders, &vec_tiles, scr, tile);
        } else {
            for t in vec_tiles {
                compute_scalar::<G, SS>(gap, subst, q, s, &grid, &borders, t, &mut scr.out);
            }
        }
        for t in scalar_tiles {
            compute_scalar::<G, SS>(gap, subst, q, s, &grid, &borders, t, &mut scr.out);
        }
    };

    run_dynamic(
        &grid,
        cfg.threads,
        L,
        || Scratch::<L> {
            top: (0..L).map(|_| Default::default()).collect(),
            left: (0..L).map(|_| Default::default()).collect(),
            base: [0; L],
            block: BlockBorders {
                top_h: Vec::new(),
                top_e: Vec::new(),
                left_h: Vec::new(),
                left_f: Vec::new(),
            },
            q_rows: Vec::new(),
            s_cols: Vec::new(),
            out: TileOut::new(),
        },
        compute,
    );

    let (last_h, last_e) = borders.assemble_last_rows(&grid);
    finalize::<Global, G>(gap, BestCell::empty(), n, m, tb, &last_h, last_e)
}

#[allow(clippy::too_many_arguments)]
fn compute_scalar<G: GapModel, SS: SimdSubst>(
    gap: &G,
    subst: &SS,
    q: &[u8],
    s: &[u8],
    grid: &TileGrid,
    borders: &BorderStore,
    t: TileId,
    out: &mut TileOut,
) {
    let (i0, th) = grid.rows(t.ti);
    let (j0, tw) = grid.cols(t.tj);
    let mut top = crate::HStripeBuf::default();
    let mut left = crate::VStripeBuf::default();
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
    relax_tile::<Global, G, SS, _>(
        gap,
        subst,
        &q[i0 - 1..i0 - 1 + th],
        &s[j0 - 1..j0 - 1 + tw],
        (i0, j0),
        (grid.n, grid.m),
        TileIn {
            top_h: &top.h,
            top_e: &top.e,
            left_h: &left.h,
            left_f: &left.f,
        },
        out,
        &mut NoSink,
    );
    {
        let mut slot = borders.col[t.tj as usize].lock();
        std::mem::swap(&mut slot.h, &mut out.bot_h);
        std::mem::swap(&mut slot.e, &mut out.bot_e);
    }
    {
        let mut slot = borders.row[t.ti as usize].lock();
        std::mem::swap(&mut slot.h, &mut out.right_h);
        std::mem::swap(&mut slot.f, &mut out.right_f);
    }
}

#[allow(clippy::too_many_arguments)]
#[allow(clippy::needless_range_loop)]
fn compute_block<G: GapModel, SS: SimdSubst, const L: usize>(
    gap: &G,
    subst: &SS,
    q: &[u8],
    s: &[u8],
    grid: &TileGrid,
    borders: &BorderStore,
    tiles: &[TileId],
    scr: &mut Scratch<L>,
    tile: usize,
) {
    debug_assert_eq!(tiles.len(), L);
    // 1. Take all input stripes and record the per-lane rebase constant
    //    (the incoming corner H value).
    for (l, t) in tiles.iter().enumerate() {
        {
            let mut slot = borders.col[t.tj as usize].lock();
            std::mem::swap(&mut scr.top[l].h, &mut slot.h);
            std::mem::swap(&mut scr.top[l].e, &mut slot.e);
        }
        {
            let mut slot = borders.row[t.ti as usize].lock();
            std::mem::swap(&mut scr.left[l].h, &mut slot.h);
            std::mem::swap(&mut scr.left[l].f, &mut slot.f);
        }
        scr.base[l] = scr.top[l].h[0];
    }

    // 2. Convert to the interleaved i16 block representation.
    let w = tile;
    let h = tile;
    scr.block.top_h.clear();
    scr.block.top_h.extend((0..=w).map(|c| {
        let mut v = [0i16; L];
        for l in 0..L {
            v[l] = to16(scr.top[l].h[c], scr.base[l]);
        }
        I16s(v)
    }));
    scr.block.top_e.clear();
    if G::AFFINE {
        scr.block.top_e.extend((0..w).map(|c| {
            let mut v = [0i16; L];
            for l in 0..L {
                v[l] = to16(scr.top[l].e[c], scr.base[l]);
            }
            I16s(v)
        }));
    }
    scr.block.left_h.clear();
    scr.block.left_h.extend((0..h).map(|r| {
        let mut v = [0i16; L];
        for l in 0..L {
            v[l] = to16(scr.left[l].h[r], scr.base[l]);
        }
        I16s(v)
    }));
    scr.block.left_f.clear();
    if G::AFFINE {
        scr.block.left_f.extend((0..h).map(|r| {
            let mut v = [0i16; L];
            for l in 0..L {
                v[l] = to16(scr.left[l].f[r], scr.base[l]);
            }
            I16s(v)
        }));
    }
    scr.q_rows.clear();
    scr.q_rows.extend((0..h).map(|r| {
        std::array::from_fn(|l| {
            let (i0, _) = grid.rows(tiles[l].ti);
            q[i0 - 1 + r]
        })
    }));
    scr.s_cols.clear();
    scr.s_cols.extend((0..w).map(|c| {
        std::array::from_fn(|l| {
            let (j0, _) = grid.cols(tiles[l].tj);
            s[j0 - 1 + c]
        })
    }));

    // 3. Vector relaxation.
    block_kernel_kind::<Global, G, SS, false, L>(
        gap,
        subst,
        &scr.q_rows,
        &scr.s_cols,
        &mut scr.block,
        0,
    );

    // 4. Convert the output stripes back and publish them.
    for (l, t) in tiles.iter().enumerate() {
        let base = scr.base[l];
        for c in 0..=w {
            scr.top[l].h[c] = from16(scr.block.top_h[c].0[l], base);
        }
        if G::AFFINE {
            for c in 0..w {
                scr.top[l].e[c] = from16(scr.block.top_e[c].0[l], base);
            }
        }
        for r in 0..h {
            scr.left[l].h[r] = from16(scr.block.left_h[r].0[l], base);
        }
        if G::AFFINE {
            for r in 0..h {
                scr.left[l].f[r] = from16(scr.block.left_f[r].0[l], base);
            }
        }
        {
            let mut slot = borders.col[t.tj as usize].lock();
            std::mem::swap(&mut slot.h, &mut scr.top[l].h);
            std::mem::swap(&mut slot.e, &mut scr.top[l].e);
        }
        {
            let mut slot = borders.row[t.ti as usize].lock();
            std::mem::swap(&mut slot.h, &mut scr.left[l].h);
            std::mem::swap(&mut slot.f, &mut scr.left[l].f);
        }
    }
}

/// Pass provider combining the SIMD global pass with scalar-parallel
/// passes for the endpoint-locating kinds, pluggable into the Hirschberg
/// recursion.
#[derive(Debug, Clone, Copy)]
pub struct SimdPass<const L: usize> {
    /// Parallel execution parameters.
    pub cfg: ParallelCfg,
}

impl<G, SS, const L: usize> anyseq_core::hirschberg::HalfPass<G, SS> for SimdPass<L>
where
    G: GapModel,
    SS: SimdSubst,
{
    fn pass<K: AlignKind>(&self, gap: &G, subst: &SS, q: &[u8], s: &[u8], tb: Score) -> PassOutput {
        if matches!(K::OPT, OptRegion::Corner) {
            simd_tiled_score_pass::<G, SS, L>(gap, subst, q, s, tb, &self.cfg)
        } else {
            anyseq_wavefront::pass::tiled_score_pass::<K, G, SS>(gap, subst, q, s, tb, &self.cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::scoring::{simple, AffineGap, LinearGap};
    use anyseq_seq::genome::GenomeSim;

    fn cfg(threads: usize, tile: usize) -> ParallelCfg {
        ParallelCfg {
            threads,
            tile,
            min_parallel_area: 0,
            static_schedule: false,
            shard_cells: 0,
        }
    }

    #[test]
    fn simd_pass_matches_scalar_linear() {
        let mut sim = GenomeSim::new(21);
        let q = sim.generate(4000);
        let s = sim.mutate(&q, 0.07);
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        let out = simd_tiled_score_pass::<_, _, 8>(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            gap.open(),
            &cfg(4, 64),
        );
        assert_eq!(out.score, scalar.score);
        assert_eq!(out.last_h, scalar.last_h);
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
        use anyseq_core::scoring::MatrixSubst;
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
