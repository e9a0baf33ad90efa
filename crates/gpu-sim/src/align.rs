//! Host-side GPU execution: a wavefront of kernel launches over tile
//! diagonals (paper §IV-B: "This is done in host code that starts a GPU
//! kernel for each diagonal. The GPU kernel uses a one-dimensional grid
//! of thread-blocks where each block computes one matrix tile.").
//!
//! The host loop is [`TiledPass`] on its static schedule at one thread,
//! so each tile diagonal is one launch; its kernel, `GpuTiles`, runs
//! [`striped_tile_kernel`] as one thread-block per tile.

use crate::device::{Device, GpuStats, MEMORY_PARALLELISM};
use crate::kernel::{striped_tile_kernel, GpuTileIo, KernelShape};
use crate::mem::MemTracker;
use anyseq_core::alignment::Alignment;
use anyseq_core::kind::{AlignKind, Global, OptRegion};
use anyseq_core::pass::{
    init_left_f, init_left_h, init_top_e, init_top_h, lines_pass, score_pass, PassOutput, Spacing,
    TileLines,
};
use anyseq_core::relax::BestCell;
use anyseq_core::scheme::Scheme;
use anyseq_core::score::Score;
use anyseq_core::scoring::{GapModel, SubstScore};
use anyseq_core::tile::TileIn;
use anyseq_core::traceback::{align_with_pass, AlignConfig, LinesPass};
use anyseq_seq::{PairRef, Seq};
use anyseq_wavefront::{ParallelCfg, Tile, TileKernel, TiledPass};
use parking_lot::Mutex;

/// A GPU-simulated aligner: device + kernel shape + tile geometry.
pub struct GpuAligner {
    /// The modeled device.
    pub device: Device,
    /// Kernel structure (striping, phasing, coalescing).
    pub shape: KernelShape,
    /// Tile edge (tiles are `tile × tile`, edges smaller).
    pub tile: usize,
}

/// Result of a GPU-simulated scoring run.
#[derive(Debug, Clone)]
pub struct GpuRun {
    /// The (bit-exact) optimal score.
    pub score: Score,
    /// 1-based optimum cell.
    pub end: (usize, usize),
    /// Modeled execution statistics.
    pub stats: GpuStats,
}

/// The simulated device as a [`TileKernel`]: one thread-block per
/// tile, [`striped_tile_kernel`] on the tile's stripes in place.
struct GpuTiles<'d> {
    device: &'d Device,
    shape: KernelShape,
    account: Mutex<Account>,
}

/// What one pass launched, as the launch model prices it.
#[derive(Default)]
struct Account {
    /// Per tile diagonal `ti + tj`: its blocks and the slowest block's
    /// cycles.
    diagonals: Vec<(usize, f64)>,
    /// The blocks' stats and memory transactions, merged.
    blocks: GpuStats,
}

impl<S: SubstScore> TileKernel<S> for GpuTiles<'_> {
    const GROUP: usize = 1;
    type Scratch = ();

    fn relax<K: AlignKind, G: GapModel>(
        &self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        tiles: &mut [Tile],
        _: &mut (),
        best: &mut BestCell,
    ) -> usize {
        assert!(
            !matches!(K::OPT, OptRegion::Anywhere),
            "the GPU backend supports corner/border kinds (the paper's \
             GPU evaluation is global); use the CPU engines for local"
        );
        let (n, m) = (q.len(), s.len());
        for tile in tiles {
            let ((i0, j0), (th, tw)) = (tile.origin, tile.shape());
            let (mut block, mut mem) = (GpuStats::default(), MemTracker::new());
            striped_tile_kernel(
                self.device,
                &self.shape,
                gap,
                subst,
                &q[i0 - 1..i0 - 1 + th],
                &s[j0 - 1..j0 - 1 + tw],
                GpuTileIo {
                    h_row: &mut tile.top.h,
                    e_row: &mut tile.top.e,
                    h_col: &mut tile.left.h,
                    f_col: &mut tile.left.f,
                },
                &mut block,
                &mut mem,
            );
            // Track the kind's optimum on the freshly written borders
            // (GPU kernels keep the running maximum in registers; we
            // read it off the border stripes, which is equivalent for
            // border/corner kinds).
            if matches!(K::OPT, OptRegion::Border) {
                if i0 + th - 1 == n {
                    for (k, &v) in tile.top.h[1..].iter().enumerate() {
                        best.update(v, n, j0 + k);
                    }
                }
                if j0 + tw - 1 == m {
                    for (k, &v) in tile.left.h.iter().enumerate() {
                        best.update(v, i0 + k, m);
                    }
                }
            }
            let d = (tile.id.ti + tile.id.tj) as usize;
            let mut account = self.account.lock();
            if account.diagonals.len() <= d {
                account.diagonals.resize(d + 1, (0, 0.0));
            }
            let (blocks, max_cycles) = &mut account.diagonals[d];
            *blocks += 1;
            *max_cycles = max_cycles.max(block.cycles);
            block.transactions = mem.transactions();
            account.blocks.merge(&block);
        }
        0
    }
}

impl GpuTiles<'_> {
    /// The pass's modeled stats. Each diagonal is one launch; the
    /// device runs `concurrent_blocks()` tiles at a time, so its
    /// duration is the slowest block's cycles times the occupancy
    /// waves (blocks on one diagonal have identical dimensions except
    /// at the ragged edge). Memory transactions contribute
    /// bandwidth-limited cycles on top.
    fn stats(self) -> GpuStats {
        let account = self.account.into_inner();
        let mut stats = GpuStats {
            cycles: 0.0,
            ..account.blocks
        };
        for (blocks, max_cycles) in account.diagonals {
            stats.launches += 1;
            stats.cycles += self.device.launch_cycles;
            let waves = blocks.div_ceil(self.device.concurrent_blocks());
            stats.cycles += waves as f64 * max_cycles;
        }
        stats.cycles +=
            stats.transactions as f64 * self.device.transaction_cycles / MEMORY_PARALLELISM;
        stats
    }
}

impl GpuAligner {
    /// An AnySeq-configured aligner on the given device.
    pub fn new(device: Device) -> GpuAligner {
        GpuAligner {
            device,
            shape: KernelShape::default(),
            tile: 1024,
        }
    }

    /// Overrides the kernel shape (baselines use this).
    pub fn with_shape(mut self, shape: KernelShape) -> GpuAligner {
        self.shape = shape;
        self
    }

    /// Overrides the tile size.
    pub fn with_tile(mut self, tile: usize) -> GpuAligner {
        assert!(tile > 0);
        self.tile = tile;
        self
    }

    /// Score-only pass of kind `K` on the simulated device.
    pub fn pass<K, G, S>(&self, gap: &G, subst: &S, q: &[u8], s: &[u8]) -> PassOutput
    where
        K: AlignKind,
        G: GapModel,
        S: SubstScore,
    {
        self.run_pass::<K, G, S>(gap, subst, q, s).0
    }

    /// [`GpuAligner::pass`] and its modeled statistics.
    fn run_pass<K, G, S>(&self, gap: &G, subst: &S, q: &[u8], s: &[u8]) -> (PassOutput, GpuStats)
    where
        K: AlignKind,
        G: GapModel,
        S: SubstScore,
    {
        self.on_device(|pass| pass.score_pass::<K, G, S>(gap, subst, q, s))
    }

    /// Runs `f` on a fresh tiled pass whose tiles the simulated device
    /// relaxes, and returns what it returned with the modeled stats of
    /// what the device ran.
    fn on_device<T>(&self, f: impl FnOnce(&TiledPass<GpuTiles<'_>>) -> T) -> (T, GpuStats) {
        // One host thread; the static schedule's barrier after each
        // tile diagonal is the boundary between two launches.
        let mut cfg = ParallelCfg::threads(1).with_tile(self.tile);
        cfg.static_schedule = true;
        let kernel = GpuTiles {
            device: &self.device,
            shape: self.shape,
            account: Mutex::default(),
        };
        let pass = TiledPass::with_kernel(cfg, kernel);
        let out = f(&pass);
        (out, pass.kernel.stats())
    }

    /// Global score on the simulated device.
    pub fn score<G, S>(&self, scheme: &Scheme<Global, G, S>, q: &Seq, s: &Seq) -> GpuRun
    where
        G: GapModel,
        S: SubstScore,
    {
        let (out, stats) =
            self.run_pass::<Global, G, S>(scheme.gap(), scheme.subst(), q.codes(), s.codes());
        GpuRun {
            score: out.score,
            end: out.end,
            stats,
        }
    }
    /// Scores a batch of independent pairs (short-read use case): each
    /// alignment is one thread-block computing its whole matrix as a
    /// single tile; blocks are packed into launches of
    /// `concurrent_blocks()` waves (NVBio-style inter-sequence batching).
    ///
    /// Takes borrowed [`PairRef`]s — the simulated host never copies
    /// sequence bytes onto the device (a real device queue would DMA
    /// from exactly these slices).
    pub fn score_batch<G, S>(
        &self,
        scheme: &Scheme<Global, G, S>,
        pairs: &[PairRef<'_>],
    ) -> (Vec<Score>, GpuStats)
    where
        G: GapModel,
        S: SubstScore,
    {
        let gap = scheme.gap();
        let subst = scheme.subst();
        let mut stats = GpuStats::default();
        let mut mem = MemTracker::new();
        let mut scores = Vec::with_capacity(pairs.len());
        let mut wave_max = 0.0f64;
        for (k, pair) in pairs.iter().enumerate() {
            let (q, s) = (pair.q, pair.s);
            let n = q.len();
            let m = s.len();
            if n == 0 || m == 0 {
                scores.push(score_pass::<Global, G, S>(gap, subst, q, s).score);
                continue;
            }
            let mut h_row = init_top_h::<Global, G>(gap, m);
            let mut e_row = init_top_e::<Global, G>(gap, m);
            let mut h_col = init_left_h::<Global, G>(gap, n, gap.open());
            let mut f_col = init_left_f::<G>(n);
            let mut block_stats = GpuStats::default();
            striped_tile_kernel(
                &self.device,
                &self.shape,
                gap,
                subst,
                q,
                s,
                GpuTileIo {
                    h_row: &mut h_row,
                    e_row: &mut e_row,
                    h_col: &mut h_col,
                    f_col: &mut f_col,
                },
                &mut block_stats,
                &mut mem,
            );
            scores.push(h_row[m]);
            wave_max = wave_max.max(block_stats.cycles);
            let c = block_stats.cycles;
            stats.merge(&block_stats);
            stats.cycles -= c;
            // Close a wave when the device is full.
            if (k + 1) % self.device.concurrent_blocks() == 0 {
                stats.cycles += wave_max;
                wave_max = 0.0;
            }
        }
        stats.cycles += wave_max;
        stats.launches += 1 + (pairs.len() / 65_535) as u64;
        stats.cycles += stats.launches as f64 * self.device.launch_cycles;
        stats.transactions = mem.transactions();
        stats.cycles +=
            stats.transactions as f64 * self.device.transaction_cycles / MEMORY_PARALLELISM;
        (scores, stats)
    }

    /// Global alignment with traceback: the traceback runs on the host,
    /// every pass on the simulated device — one pass that keeps its tile
    /// lines (and, above the line budget, one per nested block on the
    /// path), then the host walks back through the blocks on the path
    /// (the paper's GPU traceback measurements cover the same division
    /// of labor). The stats are those of all the passes the device ran.
    pub fn align<G, S>(
        &self,
        scheme: &Scheme<Global, G, S>,
        q: &[u8],
        s: &[u8],
    ) -> (Alignment, GpuStats)
    where
        G: GapModel,
        S: SubstScore,
    {
        let passes = self.passes();
        let aln = align_with_pass::<Global, G, S, _>(
            &passes,
            scheme.gap(),
            scheme.subst(),
            q,
            s,
            &AlignConfig::default(),
        );
        (aln, passes.stats.into_inner())
    }
}

/// The traceback's passes on the simulated device, summing the modeled
/// statistics of the passes it runs there: the device as a
/// [`LinesPass`] provider for corner and border kinds.
pub struct DevicePasses<'a> {
    gpu: &'a GpuAligner,
    stats: Mutex<GpuStats>,
}

impl GpuAligner {
    /// This device as a traceback pass provider, with zeroed stats.
    pub fn passes(&self) -> DevicePasses<'_> {
        DevicePasses {
            gpu: self,
            stats: Mutex::default(),
        }
    }
}

impl<G: GapModel, S: SubstScore> LinesPass<G, S> for DevicePasses<'_> {
    fn lines<K: AlignKind>(
        &self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        seeds: TileIn<'_>,
        spacing: Spacing,
    ) -> TileLines {
        // Small blocks are not worth a kernel launch; the paper's
        // recursion cutoff plays the same role.
        if q.len().saturating_mul(s.len()) < 1 << 16 {
            return lines_pass::<K, G, S>(gap, subst, q, s, seeds, spacing);
        }
        let (lines, stats) = self
            .gpu
            .on_device(|pass| pass.lines::<K, G, S>(gap, subst, q, s, seeds, spacing));
        self.stats.lock().merge(&stats);
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::kind::{Local, SemiGlobal};
    use anyseq_core::prelude::{affine, global, linear, simple};
    use anyseq_core::scoring::{AffineGap, LinearGap};
    use anyseq_seq::genome::GenomeSim;

    fn aligner(tile: usize, threads: usize) -> GpuAligner {
        GpuAligner::new(Device::titan_v())
            .with_tile(tile)
            .with_shape(KernelShape {
                block_threads: threads,
                phased: true,
                coalesced: true,
            })
    }

    #[test]
    fn gpu_score_matches_cpu_linear() {
        let mut sim = GenomeSim::new(41);
        let q = sim.generate(3000);
        let s = sim.mutate(&q, 0.08);
        let scheme = global(linear(simple(2, -1), -1));
        let gpu = aligner(256, 64);
        let run = gpu.score(&scheme, &q, &s);
        assert_eq!(run.score, scheme.score(&q, &s));
        assert_eq!(run.stats.cells, (q.len() * s.len()) as u64);
        assert!(run.stats.launches > 0);
        assert!(run.stats.gcups(&gpu.device) > 0.0);
    }

    #[test]
    fn gpu_score_matches_cpu_affine() {
        let mut sim = GenomeSim::new(43);
        let q = sim.generate(2500);
        let s = sim.mutate(&q, 0.12);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let gpu = aligner(300, 96);
        let run = gpu.score(&scheme, &q, &s);
        assert_eq!(run.score, scheme.score(&q, &s));
    }

    #[test]
    fn gpu_semiglobal_pass_matches_cpu() {
        // The last rows must match the row sweep as exactly as the
        // score and end do (the bit-identity suites compare them). At tile edge 200
        // every pair leaves ragged tiles on the last row and column.
        // Against a diverged copy of a 1100 bp prefix of `q`, the
        // semi-global optimum ends inside the last column (and, with
        // the pair swapped, inside the last row): the border read-out
        // of both stripes counts.
        let mut sim = GenomeSim::new(47);
        let q = sim.generate(1500);
        let s = sim.mutate(&q, 0.1);
        let p = sim.mutate(&q.subseq(0..1100), 0.1);
        let (q, s, p) = (q.codes(), s.codes(), p.codes());
        let subst = simple(2, -1);
        let gpu = aligner(200, 64);
        macro_rules! check {
            ($kind:ty, $gap:expr) => {{
                let gap = $gap;
                for (q, s) in [(q, s), (q, p), (p, q)] {
                    assert!(q.len() % 200 != 0 && s.len() % 200 != 0);
                    let cpu = score_pass::<$kind, _, _>(&gap, &subst, q, s);
                    let out = GpuAligner::pass::<$kind, _, _>(&gpu, &gap, &subst, q, s);
                    let what = format!(
                        "{} {gap:?} {}×{}",
                        <$kind as AlignKind>::NAME,
                        q.len(),
                        s.len()
                    );
                    assert_eq!(out.score, cpu.score, "score: {what}");
                    assert_eq!(out.end, cpu.end, "end: {what}");
                    assert_eq!(out.last_h, cpu.last_h, "last_h: {what}");
                    assert_eq!(out.last_e, cpu.last_e, "last_e: {what}");
                }
            }};
        }
        let (lin, aff) = (
            LinearGap { gap: -1 },
            AffineGap {
                open: -2,
                extend: -1,
            },
        );
        check!(Global, lin);
        check!(Global, aff);
        check!(SemiGlobal, lin);
        check!(SemiGlobal, aff);
    }

    #[test]
    #[should_panic(expected = "the GPU backend supports corner/border kinds")]
    fn gpu_pass_refuses_local_before_relaxing() {
        let mut sim = GenomeSim::new(61);
        let q = sim.generate(300);
        let s = sim.mutate(&q, 0.1);
        let gap = LinearGap { gap: -1 };
        GpuAligner::pass::<Local, _, _>(
            &aligner(128, 64),
            &gap,
            &simple(2, -1),
            q.codes(),
            s.codes(),
        );
    }

    /// The cost model the `fig5`, `table2` and `ablation` numbers rest
    /// on, pinned field by field (integers equal, `cycles` bit-equal)
    /// for a fresh aligner per call: `score` linear and affine, then
    /// `align` on the same ~3 kbp pair.
    #[test]
    fn gpu_cost_model_is_pinned() {
        let mut sim = GenomeSim::new(41);
        let q = sim.generate(3000);
        let s = sim.mutate(&q, 0.08);
        let lin = global(linear(simple(2, -1), -1));
        let aff = global(affine(simple(2, -1), -2, -1));
        let gpu = || GpuAligner::new(Device::titan_v()).with_tile(256);
        let stats = |cells, cycles, transactions, launches, blocks, warp_steps, peak| GpuStats {
            cells,
            cycles,
            transactions,
            launches,
            blocks,
            warp_steps,
            peak_shared_bytes: peak,
        };
        let lin_run = gpu().score(&lin, &q, &s);
        let aff_run = gpu().score(&aff, &q, &s);
        assert_eq!((lin_run.score, lin_run.end), (5199, (3000, 3033)));
        assert_eq!((aff_run.score, aff_run.end), (5076, (3000, 3033)));
        let (lin_aln, lin_aln_stats) = gpu().align(&lin, q.codes(), s.codes());
        let (aff_aln, aff_aln_stats) = gpu().align(&aff, q.codes(), s.codes());
        assert_eq!((lin_aln.score, aff_aln.score), (5199, 5076));
        for (what, got, want) in [
            (
                "score linear",
                lin_run.stats,
                stats(9_099_000, 1_146_988.0, 20_652, 23, 144, 319_878, 2372),
            ),
            (
                "score affine",
                aff_run.stats,
                stats(9_099_000, 1_371_796.0, 38_772, 23, 144, 319_878, 3396),
            ),
            // The pair's lines fit the budget: the device runs one pass
            // that keeps its tile lines, priced as the score pass, and
            // the host walks back through the blocks on the path.
            (
                "align linear",
                lin_aln_stats,
                stats(9_099_000, 1_146_988.0, 20_652, 23, 144, 319_878, 2372),
            ),
            (
                "align affine",
                aff_aln_stats,
                stats(9_099_000, 1_371_796.0, 38_772, 23, 144, 319_878, 3396),
            ),
        ] {
            assert_eq!(got, want, "{what}");
            assert_eq!(got.cycles.to_bits(), want.cycles.to_bits(), "{what} cycles");
        }
    }

    #[test]
    fn gpu_traceback_alignment_valid_and_optimal() {
        let mut sim = GenomeSim::new(53);
        let q = sim.generate(2000);
        let s = sim.mutate(&q, 0.07);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let gpu = aligner(256, 64);
        let (aln, stats) = gpu.align(&scheme, q.codes(), s.codes());
        assert_eq!(aln.score, scheme.score(&q, &s));
        aln.validate::<Global, _, _>(&q, &s, scheme.gap(), scheme.subst())
            .unwrap();
        // The device runs one pass over the pair (its lines fit the
        // budget).
        assert!(stats.cells as usize >= q.len() * s.len());
    }

    #[test]
    fn affine_is_modeled_slower_than_linear() {
        let mut sim = GenomeSim::new(59);
        let q = sim.generate(4000);
        let s = sim.mutate(&q, 0.05);
        let gpu = aligner(512, 64);
        let lin = gpu.score(&global(linear(simple(2, -1), -1)), &q, &s);
        let aff = gpu.score(&global(affine(simple(2, -1), -2, -1)), &q, &s);
        assert_eq!(lin.stats.cells, aff.stats.cells);
        assert!(
            aff.stats.cycles > lin.stats.cycles,
            "affine must cost more modeled cycles"
        );
        assert!(aff.stats.transactions > lin.stats.transactions);
    }
}
