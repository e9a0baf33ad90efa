//! The tiled score pass — the paper's CPU parallelization (§IV-A) of
//! the linear-space score computation: one driver
//! ([`TiledPass::slab`]) over the border store and the wavefront
//! scheduler, generic over the [`TileKernel`] that relaxes each group
//! of ready tiles. Score passes, their shard chains and Hirschberg
//! half-passes are instantiations of it.

use crate::borders::{BorderStore, HStripe, VStripe};
use crate::grid::{TileGrid, TileId};
use crate::scheduler::{run_dynamic, run_static};
use crate::shard::{plan_columns, ShardSeam, SlabOutput};
use anyseq_core::kind::AlignKind;
pub use anyseq_core::pass::{finalize, finalize_score};
use anyseq_core::pass::{score_pass, PassOutput};
use anyseq_core::relax::BestCell;
use anyseq_core::scheme::Scheme;
use anyseq_core::score::Score;
use anyseq_core::scoring::{GapModel, SubstScore};
use anyseq_core::tile::{relax_tile, NoSink, TileIn, TileOut};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Parallel execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParallelCfg {
    /// Worker threads.
    pub threads: usize,
    /// Square tile edge length.
    pub tile: usize,
    /// Use the static barrier-per-diagonal schedule instead of the
    /// dynamic queue (Fig. 6 comparison; dynamic is the default).
    pub static_schedule: bool,
    /// Shard budget in DP cells: a pass over a larger pair runs as a
    /// serial chain of subject slabs with seam hand-off. What stays
    /// resident is one slab's borders and grid — plus, for a
    /// Hirschberg half-pass, the `O(m)` last rows it returns. 0 (the
    /// default) disables sharding.
    pub shard_cells: u64,
}

impl ParallelCfg {
    /// Dynamic wavefront with the given thread count and 512-wide tiles.
    pub fn threads(threads: usize) -> ParallelCfg {
        ParallelCfg {
            threads: threads.max(1),
            tile: 512,
            static_schedule: false,
            shard_cells: 0,
        }
    }

    /// Overrides the tile size.
    pub fn with_tile(mut self, tile: usize) -> ParallelCfg {
        assert!(tile > 0);
        self.tile = tile;
        self
    }

    /// Sets the shard budget (0 disables sharding).
    pub fn with_shard_cells(mut self, cells: u64) -> ParallelCfg {
        self.shard_cells = cells;
        self
    }
}

/// One ready tile in a worker's hands.
#[derive(Debug, Default)]
pub struct Tile {
    /// Grid position (which border slots the stripes belong to).
    pub id: TileId,
    /// Absolute 1-based pair coordinates of the tile's first cell.
    pub origin: (usize, usize),
    /// Stripe crossing the top edge (`w + 1` `H` values, corner first);
    /// the kernel leaves the bottom stripe here.
    pub top: HStripe,
    /// Stripe crossing the left edge (`h` values); the kernel leaves
    /// the right stripe here.
    pub left: VStripe,
}

impl Tile {
    /// `(height, width)` in cells.
    pub fn shape(&self) -> (usize, usize) {
        (self.left.h.len(), self.top.h.len() - 1)
    }
}

/// How a group of ready tiles is relaxed — the driver's type
/// parameter. `S` is the substitution function a kernel can evaluate.
pub trait TileKernel<S: SubstScore> {
    /// Ready tiles the driver pulls per [`TileKernel::relax`] call.
    const GROUP: usize;
    /// Per-worker buffers, reused from call to call.
    type Scratch: Default + Send;

    /// Tile edge to run at, given the configured one — a kernel with a
    /// narrower in-tile score type shrinks it to what that type holds.
    fn tile_edge<G: GapModel>(_gap: &G, _subst: &S, configured: usize) -> usize {
        configured
    }

    /// Relaxes `tiles` — `1 ..= GROUP` mutually independent tiles of
    /// the pair `(q, s)` — in place: each tile's `top` becomes its
    /// bottom stripe and `left` its right stripe, bit-identical to
    /// [`relax_tile`]. Kind-`K` optimum candidates merge into `best`.
    /// Returns how many of the tiles rode vector lanes.
    fn relax<K: AlignKind, G: GapModel>(
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        tiles: &mut [Tile],
        scratch: &mut Self::Scratch,
        best: &mut BestCell,
    ) -> usize;
}

/// The scalar kernel: [`relax_tile`], one tile at a time, any
/// substitution function — the paper's "scalar multithreaded" variant
/// and every other kernel's fallback.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarTiles;

impl<S: SubstScore> TileKernel<S> for ScalarTiles {
    const GROUP: usize = 1;
    type Scratch = TileOut;

    fn relax<K: AlignKind, G: GapModel>(
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        tiles: &mut [Tile],
        out: &mut TileOut,
        best: &mut BestCell,
    ) -> usize {
        for tile in tiles {
            let ((i0, j0), (h, w)) = (tile.origin, tile.shape());
            relax_tile::<K, G, S, _>(
                gap,
                subst,
                &q[i0 - 1..i0 - 1 + h],
                &s[j0 - 1..j0 - 1 + w],
                tile.origin,
                (q.len(), s.len()),
                TileIn {
                    top_h: &tile.top.h,
                    top_e: &tile.top.e,
                    left_h: &tile.left.h,
                    left_f: &tile.left.f,
                },
                out,
                &mut NoSink,
            );
            best.merge(&out.best);
            std::mem::swap(&mut tile.top.h, &mut out.bot_h);
            std::mem::swap(&mut tile.top.e, &mut out.bot_e);
            std::mem::swap(&mut tile.left.h, &mut out.right_h);
            std::mem::swap(&mut tile.left.f, &mut out.right_f);
        }
        0
    }
}

/// Per-worker state of the driver.
struct Worker<W> {
    tiles: Vec<Tile>,
    scratch: W,
    best: BestCell,
    lane_tiles: u64,
}

/// The tiled wavefront pass on tile kernel `Kn`: score passes, slab
/// chains and — as a [`HalfPass`](anyseq_core::hirschberg::HalfPass)
/// provider — Hirschberg's half-passes. Counts the tiles it relaxes,
/// split by whether they rode vector lanes, and the slabs of the
/// passes its shard budget cut.
#[derive(Debug)]
pub struct TiledPass<Kn> {
    /// Parallel execution parameters.
    pub cfg: ParallelCfg,
    lane_tiles: AtomicU64,
    scalar_tiles: AtomicU64,
    shards: AtomicU64,
    kernel: PhantomData<fn() -> Kn>,
}

impl<Kn> TiledPass<Kn> {
    /// A pass over `cfg` with zeroed counts.
    pub fn new(cfg: ParallelCfg) -> TiledPass<Kn> {
        TiledPass {
            cfg,
            lane_tiles: AtomicU64::new(0),
            scalar_tiles: AtomicU64::new(0),
            shards: AtomicU64::new(0),
            kernel: PhantomData,
        }
    }

    /// `(lane, scalar)` tiles relaxed so far.
    pub fn tile_counts(&self) -> (u64, u64) {
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (count(&self.lane_tiles), count(&self.scalar_tiles))
    }

    /// Slabs run so far by passes the shard budget cut (a pass that
    /// fits the budget runs as one slab and counts none).
    pub fn shard_count(&self) -> u64 {
        self.shards.load(Ordering::Relaxed)
    }

    /// The driver: a tiled score-only pass over one subject slab
    /// `cols = (c0, c1)` of the full pair `(q, s)`, seeded from `seam`
    /// (the frontier at column `c0`) or from the kind's standard
    /// initialization when `seam` is `None` (first slab). Only the
    /// slab's own `O(n + width)` border stripes are resident.
    /// Bit-identical to the same columns of an unsharded pass.
    #[allow(clippy::too_many_arguments)]
    pub fn slab<K: AlignKind, G: GapModel, S: SubstScore>(
        &self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        cols: (usize, usize),
        tb: Score,
        seam: Option<&ShardSeam>,
    ) -> SlabOutput
    where
        Kn: TileKernel<S>,
    {
        let (n, (c0, c1), cfg) = (q.len(), cols, &self.cfg);
        assert!(
            n > 0 && c0 < c1 && c1 <= s.len(),
            "degenerate slab {cols:?}"
        );
        if let Some(seam) = seam {
            assert_eq!(seam.col, c0, "seam column does not meet the slab");
            assert_eq!(seam.h.len(), n, "seam height does not match the query");
        }
        let grid = TileGrid::new(n, c1 - c0, Kn::tile_edge(gap, subst, cfg.tile));
        let borders = BorderStore::init_slab::<K, G>(&grid, gap, tb, c0, seam);

        let compute = |w: &mut Worker<Kn::Scratch>, ready: &[TileId]| {
            let tiles = &mut w.tiles[..ready.len()];
            for (tile, &id) in tiles.iter_mut().zip(ready) {
                // Absolute subject columns: slab-local column `j` is
                // `c0 + j` in the pair, whose true dimensions the
                // kind's border-optimum detection needs.
                tile.id = id;
                tile.origin = (grid.rows(id.ti).0, c0 + grid.cols(id.tj).0);
                borders.exchange(id, &mut tile.top, &mut tile.left);
            }
            w.lane_tiles +=
                Kn::relax::<K, G>(gap, subst, q, s, tiles, &mut w.scratch, &mut w.best) as u64;
            for tile in tiles {
                borders.exchange(tile.id, &mut tile.top, &mut tile.left);
            }
        };
        let make_worker = || Worker {
            tiles: (0..Kn::GROUP).map(|_| Tile::default()).collect(),
            scratch: Default::default(),
            best: BestCell::empty(),
            lane_tiles: 0,
        };
        let run = if cfg.static_schedule {
            run_static
        } else {
            run_dynamic
        };
        // No anti-diagonal holds more than `min(nt, mt)` tiles, so more
        // workers would only spin; a one-tile slab runs inline.
        let threads = cfg.threads.clamp(1, grid.nt.min(grid.mt));
        let workers = run(&grid, threads, Kn::GROUP, make_worker, compute);

        let lane_tiles: u64 = workers.iter().map(|w| w.lane_tiles).sum();
        self.lane_tiles.fetch_add(lane_tiles, Ordering::Relaxed);
        let scalar_tiles = grid.total() as u64 - lane_tiles;
        self.scalar_tiles.fetch_add(scalar_tiles, Ordering::Relaxed);
        let mut best = BestCell::empty();
        for w in &workers {
            best.merge(&w.best);
        }
        SlabOutput {
            seam: borders.export_seam(&grid, c1),
            best,
            grid,
            borders,
        }
    }

    /// Runs the pass of kind `K` over `(q, s)` slab by slab — one slab,
    /// unless the pair is over `cfg.shard_cells` and [`plan_columns`]
    /// cuts it — and hands each slab's output to `each` in column
    /// order. Resident at a time: the slab in flight and the seam it
    /// started from; what outlives a slab is whatever `each` keeps.
    fn for_each_slab<K: AlignKind, G: GapModel, S: SubstScore>(
        &self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        tb: Score,
        mut each: impl FnMut((usize, usize), &SlabOutput),
    ) where
        Kn: TileKernel<S>,
    {
        let (n, m, cfg) = (q.len(), s.len(), &self.cfg);
        let plan = if cfg.shard_cells > 0 && m > 1 && (n as u64) * (m as u64) > cfg.shard_cells {
            plan_columns(n, m, cfg.shard_cells)
        } else {
            vec![(0, m)]
        };
        if plan.len() > 1 {
            self.shards.fetch_add(plan.len() as u64, Ordering::Relaxed);
        }
        let mut seam: Option<ShardSeam> = None;
        for cols in plan {
            let slab = self.slab::<K, G, S>(gap, subst, q, s, cols, tb, seam.as_ref());
            each(cols, &slab);
            seam = Some(slab.seam);
        }
    }

    /// Score-only pass of kind `K` (same contract as
    /// [`anyseq_core::pass::score_pass`], including the Hirschberg
    /// `tb` boundary adjustment) — the half-pass Hirschberg runs, so
    /// alignments shard too. It returns the last rows, so besides one
    /// slab (see [`TiledPass::score`]) their `O(m)` stays resident.
    pub fn score_pass<K: AlignKind, G: GapModel, S: SubstScore>(
        &self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        tb: Score,
    ) -> PassOutput
    where
        Kn: TileKernel<S>,
    {
        let (n, m) = (q.len(), s.len());
        if n == 0 || m == 0 {
            // An empty rectangle has no tiles: its init stripes are
            // the result.
            return score_pass::<K, G, S>(gap, subst, q, s, tb);
        }
        let (mut last_h, mut last_e) = (Vec::with_capacity(m + 1), Vec::with_capacity(m));
        let mut best = BestCell::empty();
        self.for_each_slab::<K, G, S>(gap, subst, q, s, tb, |cols, slab| {
            let (h, e) = slab.last_rows();
            // Every slab but the first repeats its left corner.
            last_h.extend_from_slice(&h[(cols.0 > 0) as usize..]);
            last_e.extend_from_slice(&e);
            best.merge(&slab.best);
        });
        finalize::<K, G>(gap, best, n, m, tb, &last_h, last_e)
    }

    /// `scheme`'s optimal score for one pair of code slices. Of each
    /// slab it keeps only the running best cell and the corner
    /// `H(n, m)` of the last one, and it assembles no rows, so a pair
    /// over the shard budget holds one slab's borders and grid plus
    /// its incoming seam, however long the subject.
    pub fn score<K, G, S>(&self, scheme: &Scheme<K, G, S>, q: &[u8], s: &[u8]) -> Score
    where
        K: AlignKind,
        G: GapModel,
        S: SubstScore,
        Kn: TileKernel<S>,
    {
        let (gap, subst, (n, m)) = (scheme.gap(), scheme.subst(), (q.len(), s.len()));
        if n == 0 || m == 0 {
            return score_pass::<K, G, S>(gap, subst, q, s, gap.open()).score;
        }
        let (mut best, mut h_nm) = (BestCell::empty(), 0);
        self.for_each_slab::<K, G, S>(gap, subst, q, s, gap.open(), |_, slab| {
            best.merge(&slab.best);
            h_nm = *slab.seam.h.last().expect("a slab has at least one row");
        });
        finalize_score::<K, G>(gap, best, n, m, gap.open(), h_nm).0
    }
}

/// [`TiledPass::score_pass`] on the scalar kernel.
pub fn tiled_score_pass<K: AlignKind, G: GapModel, S: SubstScore>(
    gap: &G,
    subst: &S,
    q: &[u8],
    s: &[u8],
    tb: Score,
    cfg: &ParallelCfg,
) -> PassOutput {
    TiledPass::<ScalarTiles>::new(*cfg).score_pass::<K, G, S>(gap, subst, q, s, tb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::kind::{Global, Local, SemiGlobal};
    use anyseq_core::scoring::{simple, AffineGap, LinearGap};
    use anyseq_seq::genome::GenomeSim;

    fn test_cfg(threads: usize, tile: usize) -> ParallelCfg {
        ParallelCfg::threads(threads).with_tile(tile)
    }

    #[test]
    fn matches_scalar_pass_affine_all_kinds() {
        let mut sim = GenomeSim::new(7);
        let q = sim.generate(1500);
        let s = sim.mutate(&q, 0.10);
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let cfg = test_cfg(6, 100);
        macro_rules! check {
            ($kind:ty) => {{
                let scalar =
                    score_pass::<$kind, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
                let par = tiled_score_pass::<$kind, _, _>(
                    &gap,
                    &subst,
                    q.codes(),
                    s.codes(),
                    gap.open(),
                    &cfg,
                );
                assert_eq!(
                    par.score,
                    scalar.score,
                    "{} score",
                    <$kind as AlignKind>::NAME
                );
                assert_eq!(par.end, scalar.end, "{} end", <$kind as AlignKind>::NAME);
                assert_eq!(par.last_h, scalar.last_h);
                assert_eq!(par.last_e, scalar.last_e);
            }};
        }
        check!(Global);
        check!(Local);
        check!(SemiGlobal);
    }

    #[test]
    fn tiny_pair_scores_exactly_through_the_tiled_pass() {
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let q = [0u8, 1, 2, 3];
        let cfg = ParallelCfg::threads(8); // one tile, run inline
        let out = tiled_score_pass::<Global, _, _>(&gap, &subst, &q, &q, gap.open(), &cfg);
        assert_eq!(out.score, 8);
    }

    #[test]
    fn hirschberg_tb_respected_in_parallel() {
        // tb != open must flow into the left column init.
        let mut sim = GenomeSim::new(9);
        let q = sim.generate(900);
        let s = sim.generate(700);
        let gap = AffineGap {
            open: -5,
            extend: -1,
        };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), 0);
        let par = tiled_score_pass::<Global, _, _>(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            0,
            &test_cfg(4, 64),
        );
        assert_eq!(par.score, scalar.score);
        assert_eq!(par.last_h, scalar.last_h);
        assert_eq!(par.last_e, scalar.last_e);
    }
}
