//! Multithreaded tiled score passes — the paper's CPU parallelization
//! (§IV-A) of the linear-space score computation, built from the core
//! tile kernel plus the dynamic wavefront scheduler.

use crate::borders::BorderStore;
use crate::grid::{TileGrid, TileId};
use crate::scheduler::{run_dynamic, run_static};
use anyseq_core::kind::{AlignKind, OptRegion};
use anyseq_core::pass::{score_pass, PassOutput};
use anyseq_core::relax::BestCell;
use anyseq_core::score::Score;
use anyseq_core::scoring::{GapModel, SubstScore};
use anyseq_core::tile::{relax_tile, NoSink, TileIn, TileOut};

/// Parallel execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParallelCfg {
    /// Worker threads.
    pub threads: usize,
    /// Square tile edge length.
    pub tile: usize,
    /// Matrices smaller than this many cells run single-threaded (the
    /// scheduling overhead would dominate).
    pub min_parallel_area: usize,
    /// Use the static barrier-per-diagonal schedule instead of the
    /// dynamic queue (Fig. 6 comparison; dynamic is the default).
    pub static_schedule: bool,
    /// Shard budget in DP cells: pairs larger than this run as a serial
    /// chain of subject slabs with seam hand-off
    /// ([`crate::sharded_score_pass`]), bounding peak resident border +
    /// grid memory to one slab. 0 (the default) disables sharding.
    pub shard_cells: u64,
}

impl ParallelCfg {
    /// Dynamic wavefront with the given thread count and 512-wide tiles.
    pub fn threads(threads: usize) -> ParallelCfg {
        ParallelCfg {
            threads: threads.max(1),
            tile: 512,
            min_parallel_area: 1 << 22,
            static_schedule: false,
            shard_cells: 0,
        }
    }

    /// Uses all available cores.
    pub fn auto() -> ParallelCfg {
        ParallelCfg::threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
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

/// Per-worker scratch: reusable tile output plus the worker's running
/// optimum.
struct Scratch {
    out: TileOut,
    top: crate::borders::HStripe,
    left: crate::borders::VStripe,
    best: BestCell,
}

/// Parallel tiled score-only pass of kind `K` (same contract as
/// [`anyseq_core::pass::score_pass`], including the Hirschberg `tb`
/// boundary adjustment).
pub fn tiled_score_pass<K, G, S>(
    gap: &G,
    subst: &S,
    q: &[u8],
    s: &[u8],
    tb: Score,
    cfg: &ParallelCfg,
) -> PassOutput
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
{
    let n = q.len();
    let m = s.len();
    // Shard oversized pairs regardless of thread count — the memory
    // bound matters even single-threaded. Because every Hirschberg
    // half-pass routes through here, alignment shards automatically.
    if cfg.shard_cells > 0 && n > 0 && m > 1 && (n as u64) * (m as u64) > cfg.shard_cells {
        return crate::shard::sharded_score_pass::<K, G, S>(gap, subst, q, s, tb, cfg);
    }
    if n == 0 || m == 0 || n * m < cfg.min_parallel_area || cfg.threads == 1 {
        return score_pass::<K, G, S>(gap, subst, q, s, tb);
    }

    let grid = TileGrid::new(n, m, cfg.tile);
    let borders = BorderStore::init::<K, G>(&grid, gap, tb);

    let compute = |scratch: &mut Scratch, tiles: &[TileId]| {
        for &t in tiles {
            let (i0, th) = grid.rows(t.ti);
            let (j0, tw) = grid.cols(t.tj);
            // Take the input stripes (swap avoids reallocation; the slots
            // are refilled with our outputs below).
            {
                let mut slot = borders.col[t.tj as usize].lock();
                std::mem::swap(&mut scratch.top.h, &mut slot.h);
                std::mem::swap(&mut scratch.top.e, &mut slot.e);
            }
            {
                let mut slot = borders.row[t.ti as usize].lock();
                std::mem::swap(&mut scratch.left.h, &mut slot.h);
                std::mem::swap(&mut scratch.left.f, &mut slot.f);
            }
            relax_tile::<K, G, S, _>(
                gap,
                subst,
                &q[i0 - 1..i0 - 1 + th],
                &s[j0 - 1..j0 - 1 + tw],
                (i0, j0),
                (n, m),
                TileIn {
                    top_h: &scratch.top.h,
                    top_e: &scratch.top.e,
                    left_h: &scratch.left.h,
                    left_f: &scratch.left.f,
                },
                &mut scratch.out,
                &mut NoSink,
            );
            scratch.best.merge(&scratch.out.best);
            {
                let mut slot = borders.col[t.tj as usize].lock();
                std::mem::swap(&mut slot.h, &mut scratch.out.bot_h);
                std::mem::swap(&mut slot.e, &mut scratch.out.bot_e);
            }
            {
                let mut slot = borders.row[t.ti as usize].lock();
                std::mem::swap(&mut slot.h, &mut scratch.out.right_h);
                std::mem::swap(&mut slot.f, &mut scratch.out.right_f);
            }
        }
    };
    let make_scratch = || Scratch {
        out: TileOut::new(),
        top: Default::default(),
        left: Default::default(),
        best: BestCell::empty(),
    };

    let scratches = if cfg.static_schedule {
        run_static(&grid, cfg.threads, make_scratch, compute)
    } else {
        run_dynamic(&grid, cfg.threads, 1, make_scratch, compute)
    };

    let (last_h, last_e) = borders.assemble_last_rows(&grid);
    let mut best = BestCell::empty();
    for scr in &scratches {
        best.merge(&scr.best);
    }
    finalize::<K, G>(gap, best, n, m, tb, &last_h, last_e)
}

/// Applies the kind's optimum conventions to a tracked best cell and the
/// final row — shared by every tiled backend so results are bit-identical
/// with `anyseq_core::pass::score_pass`.
pub fn finalize<K: AlignKind, G: GapModel>(
    gap: &G,
    best: BestCell,
    n: usize,
    m: usize,
    tb: Score,
    last_h: &[Score],
    last_e: Vec<Score>,
) -> PassOutput {
    let (score, end) = finalize_score::<K, G>(gap, best, n, m, tb, last_h[m]);
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
    tb: Score,
    h_nm: Score,
) -> (Score, (usize, usize)) {
    match K::OPT {
        OptRegion::Corner => (h_nm, (n, m)),
        OptRegion::Border | OptRegion::Anywhere => {
            if matches!(K::OPT, OptRegion::Anywhere) && !K::NU_ZERO {
                best.update(0, 0, 0);
            }
            if matches!(K::OPT, OptRegion::Border) {
                let h_0m = K::h_init(gap, m);
                let h_n0 = if K::FREE_BEGIN {
                    0
                } else {
                    tb + (n as Score) * gap.extend()
                };
                best.update(h_0m, 0, m);
                best.update(h_n0, n, 0);
            }
            if K::NU_ZERO && best.score <= 0 {
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
    use anyseq_core::kind::{Global, Local, SemiGlobal};
    use anyseq_core::scoring::{simple, AffineGap, LinearGap};
    use anyseq_seq::genome::GenomeSim;

    fn test_cfg(threads: usize, tile: usize) -> ParallelCfg {
        ParallelCfg {
            threads,
            tile,
            min_parallel_area: 0,
            static_schedule: false,
            shard_cells: 0,
        }
    }

    #[test]
    fn matches_scalar_pass_linear_global() {
        let mut sim = GenomeSim::new(1);
        let q = sim.generate(3000);
        let s = sim.mutate(&q, 0.05);
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        for (threads, tile) in [(1, 128), (4, 128), (8, 64), (23, 256)] {
            let par = tiled_score_pass::<Global, _, _>(
                &gap,
                &subst,
                q.codes(),
                s.codes(),
                gap.open(),
                &test_cfg(threads, tile),
            );
            assert_eq!(par.score, scalar.score, "threads={threads} tile={tile}");
            assert_eq!(par.last_h, scalar.last_h);
        }
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
    fn static_schedule_same_result() {
        let mut sim = GenomeSim::new(3);
        let q = sim.generate(2000);
        let s = sim.mutate(&q, 0.08);
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let scalar = score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
        let mut cfg = test_cfg(5, 128);
        cfg.static_schedule = true;
        let par =
            tiled_score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open(), &cfg);
        assert_eq!(par.score, scalar.score);
    }

    #[test]
    fn small_inputs_fall_back_to_scalar() {
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let q = [0u8, 1, 2, 3];
        let cfg = ParallelCfg::threads(8); // min_parallel_area big
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
