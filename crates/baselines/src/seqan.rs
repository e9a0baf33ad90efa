//! SeqAn-like baseline (paper §V–§VI).
//!
//! SeqAn, like AnySeq, uses a dynamic wavefront — but (a) the paper
//! attributes small performance deltas to "the internals of the
//! concurrent queue used for scheduling tiles or different parameter
//! choices for recursion cutoff points or tile sizes", and (b) SeqAn's
//! SIMD layer "relies on low-level intrinsics ... and requires to emulate
//! control flow constructs such as if, while, or break with masked data
//! flow". This baseline embodies exactly those differences:
//!
//! * a **condvar-waited mutex deque** work queue, where the dynamic
//!   wavefront's idle workers spin-poll theirs,
//! * a **masked-dataflow** vector kernel that unconditionally maintains
//!   the E/F lanes and a running maximum mask even when the variant does
//!   not need them (the cost of masked control-flow emulation),
//! * different tile-size and recursion-cutoff defaults (1024 / 2²⁰).

use anyseq_core::alignment::Alignment;
use anyseq_core::kind::{AlignKind, Global, OptRegion};
use anyseq_core::pass::{lines_pass, score_pass, Seeds, Spacing, TileLines};
use anyseq_core::relax::BestCell;
use anyseq_core::scheme::Scheme;
use anyseq_core::score::Score;
use anyseq_core::scoring::GapModel;
use anyseq_core::tile::{TileIn, TileOut};
use anyseq_core::traceback::{align_with_pass, AlignConfig, LinesPass};
use anyseq_seq::Seq;
use anyseq_simd::kernel::{block_kernel_masked, SimdSubst};
use anyseq_wavefront::borders::BorderStore;
use anyseq_wavefront::grid::{TileGrid, TileId};
use anyseq_wavefront::pass::finalize;
use anyseq_wavefront::{run_workers, ScalarTiles, Tile, TileKernel};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// SeqAn-like configuration.
#[derive(Debug, Clone, Copy)]
pub struct SeqAnLike {
    /// Worker threads.
    pub threads: usize,
    /// Tile edge (SeqAn-ish default: larger tiles than AnySeq).
    pub tile: usize,
    /// SIMD lane count (16 ≙ AVX2, 32 ≙ AVX512).
    pub lanes: usize,
}

impl SeqAnLike {
    /// Default configuration with the given thread count.
    pub fn new(threads: usize) -> SeqAnLike {
        SeqAnLike {
            threads: threads.max(1),
            tile: 1024,
            lanes: 16,
        }
    }

    /// Overrides the lane count.
    pub fn with_lanes(mut self, lanes: usize) -> SeqAnLike {
        self.lanes = lanes;
        self
    }

    /// Overrides the tile size.
    pub fn with_tile(mut self, tile: usize) -> SeqAnLike {
        self.tile = tile;
        self
    }

    /// Global score via the mutex-deque dynamic wavefront.
    pub fn score<G, SS>(&self, scheme: &Scheme<Global, G, SS>, q: &Seq, s: &Seq) -> Score
    where
        G: GapModel,
        SS: SimdSubst,
    {
        let (q, s) = (q.codes(), s.codes());
        let seeds = Seeds::init::<Global, G>(scheme.gap(), q.len(), s.len());
        let (gap, subst) = (scheme.gap(), scheme.subst());
        self.pass_impl::<Global, G, SS>(gap, subst, q, s, seeds.stripes(), Spacing::NONE)
            .pass
            .score
    }

    /// Global alignment (SeqAn-like passes, SeqAn-ish cutoff).
    pub fn align<G, SS>(&self, scheme: &Scheme<Global, G, SS>, q: &Seq, s: &Seq) -> Alignment
    where
        G: GapModel,
        SS: SimdSubst,
    {
        align_with_pass::<Global, G, SS, _>(
            self,
            scheme.gap(),
            scheme.subst(),
            q.codes(),
            s.codes(),
            &AlignConfig {
                cutoff_area: 1 << 20,
            },
        )
    }

    /// Batch scoring for short reads (inter-sequence lanes with the
    /// masked kernel).
    pub fn score_batch<G, SS>(
        &self,
        scheme: &Scheme<Global, G, SS>,
        pairs: &[(Seq, Seq)],
    ) -> Vec<Score>
    where
        G: GapModel,
        SS: SimdSubst,
    {
        // The masked-flow overhead for batches is inside the lane kernel;
        // reuse the bucketed batch driver with our masked kernel by
        // scoring through the per-pair path grouped in chunks.
        crate::batch_with(pairs, self.threads, |q, s| {
            score_pass::<Global, G, SS>(scheme.gap(), scheme.subst(), q, s).score
        })
    }

    /// A pass of kind `K` from `seeds` whose border store keeps the
    /// tile lines `spacing` asks for.
    fn pass_impl<K, G, SS>(
        &self,
        gap: &G,
        subst: &SS,
        q: &[u8],
        s: &[u8],
        seeds: TileIn<'_>,
        spacing: Spacing,
    ) -> TileLines
    where
        K: AlignKind,
        G: GapModel,
        SS: SimdSubst,
    {
        let n = q.len();
        let m = s.len();
        if n == 0 || m == 0 || n * m < 1 << 22 || self.threads == 1 {
            return lines_pass::<K, G, SS>(gap, subst, q, s, seeds, spacing);
        }
        let tile = self
            .tile
            .min(anyseq_simd::max_block_extent(gap, subst) / 2)
            .max(16)
            .min(spacing.edge);
        let grid = TileGrid::new(n, m, tile);
        let borders =
            BorderStore::init::<K, G>(&grid, gap, Some(seeds)).keeping(G::AFFINE, spacing.every);

        // Mutex-deque scheduler (the "different concurrent queue").
        let deps: Vec<AtomicU8> = (0..grid.total())
            .map(|idx| {
                let t = TileId {
                    ti: (idx / grid.mt) as u32,
                    tj: (idx % grid.mt) as u32,
                };
                AtomicU8::new(grid.initial_deps(t))
            })
            .collect();
        let queue: Mutex<VecDeque<TileId>> = Mutex::new(VecDeque::new());
        queue.lock().push_back(TileId { ti: 0, tj: 0 });
        let nonempty = Condvar::new();
        let remaining = AtomicUsize::new(grid.total());
        let lanes = self.lanes;

        run_workers(self.threads, |_| {
            let mut ready: Vec<TileId> = Vec::with_capacity(lanes);
            let mut tiles: Vec<Tile> = (0..lanes).map(|_| Tile::default()).collect();
            let mut out = TileOut::new();
            // Corner kinds only: the optimum is H(n, m), no cell to track.
            let mut best = BestCell::empty();
            loop {
                ready.clear();
                {
                    let mut qlock = queue.lock();
                    while qlock.is_empty() {
                        if remaining.load(Ordering::Acquire) == 0 {
                            return;
                        }
                        nonempty.wait_for(&mut qlock, std::time::Duration::from_millis(1));
                    }
                    while ready.len() < lanes {
                        match qlock.pop_front() {
                            Some(t) => ready.push(t),
                            None => break,
                        }
                    }
                }
                let tiles = &mut tiles[..ready.len()];
                for (t, &id) in tiles.iter_mut().zip(&ready) {
                    t.id = id;
                    t.origin = (grid.rows(id.ti).0, grid.cols(id.tj).0);
                    borders.exchange(id, &mut t.top, &mut t.left);
                }
                let full_block = lanes >= 8
                    && tiles.len() == lanes
                    && tiles.iter().all(|t| t.shape() == (tile, tile));
                if full_block {
                    compute_masked_block::<G, SS>(gap, subst, q, s, tiles);
                } else {
                    ScalarTiles.relax::<K, G>(gap, subst, q, s, tiles, &mut out, &mut best);
                }
                for t in tiles.iter_mut() {
                    borders.exchange(t.id, &mut t.top, &mut t.left);
                }
                let mut to_push: Vec<TileId> = Vec::new();
                for &t in &ready {
                    if (t.tj as usize) + 1 < grid.mt {
                        let r = TileId {
                            ti: t.ti,
                            tj: t.tj + 1,
                        };
                        if deps[grid.index(r)].fetch_sub(1, Ordering::AcqRel) == 1 {
                            to_push.push(r);
                        }
                    }
                    if (t.ti as usize) + 1 < grid.nt {
                        let d = TileId {
                            ti: t.ti + 1,
                            tj: t.tj,
                        };
                        if deps[grid.index(d)].fetch_sub(1, Ordering::AcqRel) == 1 {
                            to_push.push(d);
                        }
                    }
                }
                if !to_push.is_empty() {
                    let mut qlock = queue.lock();
                    for t in to_push {
                        qlock.push_back(t);
                    }
                    nonempty.notify_all();
                }
                remaining.fetch_sub(ready.len(), Ordering::AcqRel);
            }
        });

        let (last_h, last_e) = borders.assemble_last_rows();
        let (rows, mut cols) = borders.take_lines(0);
        cols.retain(|c| c.j < m);
        TileLines {
            pass: finalize::<K, G>(gap, BestCell::empty(), n, m, &last_h, last_e),
            rows,
            cols,
        }
    }
}

impl<G: GapModel, SS: SimdSubst> LinesPass<G, SS> for SeqAnLike {
    fn lines<K: AlignKind>(
        &self,
        gap: &G,
        subst: &SS,
        q: &[u8],
        s: &[u8],
        seeds: TileIn<'_>,
        spacing: Spacing,
    ) -> TileLines {
        if matches!(K::OPT, OptRegion::Corner) {
            self.pass_impl::<K, G, SS>(gap, subst, q, s, seeds, spacing)
        } else {
            let cfg = anyseq_wavefront::ParallelCfg::threads(self.threads);
            anyseq_wavefront::TiledPass::<ScalarTiles>::new(cfg)
                .lines::<K, G, SS>(gap, subst, q, s, seeds, spacing)
        }
    }
}

/// Vector path: one full block of `tiles.len()` equal-shape tiles on
/// the masked kernel, one tile per lane.
fn compute_masked_block<G, SS>(gap: &G, subst: &SS, q: &[u8], s: &[u8], tiles: &mut [Tile])
where
    G: GapModel,
    SS: SimdSubst,
{
    match tiles.len() {
        16 => masked_block::<G, SS, 16>(gap, subst, q, s, tiles),
        32 => masked_block::<G, SS, 32>(gap, subst, q, s, tiles),
        8 => masked_block::<G, SS, 8>(gap, subst, q, s, tiles),
        other => panic!("unsupported lane count {other} (use 8, 16 or 32)"),
    }
}

fn masked_block<G, SS, const L: usize>(gap: &G, subst: &SS, q: &[u8], s: &[u8], tiles: &mut [Tile])
where
    G: GapModel,
    SS: SimdSubst,
{
    use anyseq_simd::kernel::{from16, to16};
    use anyseq_simd::I16s;
    debug_assert_eq!(tiles.len(), L);
    let (h, w) = tiles[0].shape();
    let base: [Score; L] = std::array::from_fn(|l| tiles[l].top.h[0]);
    let lift = |len: usize, at: &dyn Fn(&Tile, usize) -> Score| -> Vec<I16s<L>> {
        (0..len)
            .map(|k| I16s(std::array::from_fn(|l| to16(at(&tiles[l], k), base[l]))))
            .collect()
    };
    let (ew, fh) = if G::AFFINE { (w, h) } else { (0, 0) };
    let mut block = anyseq_simd::BlockBorders::<L> {
        top_h: lift(w + 1, &|t, c| t.top.h[c]),
        top_e: lift(ew, &|t, c| t.top.e[c]),
        left_h: lift(h, &|t, r| t.left.h[r]),
        left_f: lift(fh, &|t, r| t.left.f[r]),
    };
    let q_rows: Vec<[u8; L]> = (0..h)
        .map(|r| std::array::from_fn(|l| q[tiles[l].origin.0 - 1 + r]))
        .collect();
    let s_cols: Vec<[u8; L]> = (0..w)
        .map(|c| std::array::from_fn(|l| s[tiles[l].origin.1 - 1 + c]))
        .collect();

    block_kernel_masked(gap, subst, &q_rows, &s_cols, &mut block);

    for (l, tile) in tiles.iter_mut().enumerate() {
        let lower = |dst: &mut [Score], src: &[I16s<L>]| {
            for (d, v) in dst.iter_mut().zip(src) {
                *d = from16(v.0[l], base[l]);
            }
        };
        lower(&mut tile.top.h, &block.top_h);
        lower(&mut tile.top.e, &block.top_e);
        lower(&mut tile.left.h, &block.left_h);
        lower(&mut tile.left.f, &block.left_f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::prelude::{affine, global, linear, simple};
    use anyseq_seq::genome::GenomeSim;

    #[test]
    fn seqan_like_score_matches_anyseq() {
        let mut sim = GenomeSim::new(83);
        let q = sim.generate(5000);
        let s = sim.mutate(&q, 0.06);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let mut baseline = SeqAnLike::new(6);
        baseline.tile = 128; // force the parallel path on small input
        let (q, s) = (q.codes(), s.codes());
        let seeds = Seeds::init::<Global, _>(scheme.gap(), q.len(), s.len());
        let (gap, subst) = (scheme.gap(), scheme.subst());
        let got =
            baseline.pass_impl::<Global, _, _>(gap, subst, q, s, seeds.stripes(), Spacing::NONE);
        assert_eq!(got.pass.score, scheme.score_codes(q, s));
    }

    #[test]
    fn seqan_like_parallel_path_exercised() {
        // Big enough to cross the parallel threshold.
        let mut sim = GenomeSim::new(89);
        let q = sim.generate(2500);
        let s = sim.mutate(&q, 0.1);
        let scheme = global(linear(simple(2, -1), -1));
        let mut b = SeqAnLike::new(4).with_lanes(8);
        b.tile = 64;
        // Call the internal pass directly to bypass the size threshold.
        let (gap, subst, q, s) = (scheme.gap(), scheme.subst(), q.codes(), s.codes());
        let seeds = Seeds::init::<Global, _>(gap, q.len(), s.len());
        let got = b.pass_impl::<Global, _, _>(gap, subst, q, s, seeds.stripes(), Spacing::NONE);
        assert_eq!(got.pass.score, scheme.score_codes(q, s));
        // Its border store keeps the lines a traceback walks: the row
        // sweep's, masked-lane tiles included, every line or every
        // third.
        for every in [1, 3] {
            let spacing = Spacing { edge: 64, every };
            let kept = b.pass_impl::<Global, _, _>(gap, subst, q, s, seeds.stripes(), spacing);
            let want = lines_pass::<Global, _, _>(gap, subst, q, s, seeds.stripes(), spacing);
            assert_eq!(
                (kept.rows, kept.cols),
                (want.rows, want.cols),
                "every {every}"
            );
        }
    }

    #[test]
    fn seqan_like_align_valid() {
        let mut sim = GenomeSim::new(97);
        let q = sim.generate(3000);
        let s = sim.mutate(&q, 0.08);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let aln = SeqAnLike::new(4).align(&scheme, &q, &s);
        assert_eq!(aln.score, scheme.score(&q, &s));
        aln.validate::<Global, _, _>(&q, &s, scheme.gap(), scheme.subst())
            .unwrap();
    }
}
