//! # anyseq-wavefront — tiled wavefront execution substrate
//!
//! Multithreaded CPU parallelization of the anyseq alignment core,
//! reproducing the paper's §IV-A: DP submatrices (tiles) are relaxed in
//! wavefront order, scheduled **dynamically** through a thread-safe
//! queue with per-tile atomic dependency counters. The preliminary
//! static barrier-per-diagonal schedule is retained: it is the Fig. 6
//! scalability comparison, the GPU simulator's one-launch-per-diagonal
//! host loop and the Parasail-like baseline's schedule.
//!
//! Only `O(n + m)` boundary stripes are ever materialized (paper Fig. 2);
//! tile interiors live in per-worker rolling rows.
//!
//! There is one pass, [`TiledPass`]: a driver ([`TiledPass::slab`])
//! generic over the [`TileKernel`] that relaxes each group of ready
//! tiles — [`ScalarTiles`] here, the vector-lane kernel in
//! `anyseq-simd`, the GPU simulator's block kernel and the
//! Parasail-like baseline's minor-diagonal kernel. Whole score passes,
//! [`ShardSeam`]-stitched slab chains and the kept-lines passes of the
//! traceback behind [`ParallelExt`] are instantiations of it.
//!
//! [`run_workers`] is the workspace's one compute-thread pool: the tile
//! schedulers here, the SIMD batch paths, the baselines and the
//! engine's batch scheduler all start their threads through it.
//!
//! ```
//! use anyseq_core::prelude::*;
//! use anyseq_wavefront::{ParallelCfg, ParallelExt};
//! use anyseq_seq::genome::GenomeSim;
//!
//! let mut sim = GenomeSim::new(42);
//! let q = sim.generate(10_000);
//! let s = sim.mutate(&q, 0.05);
//! let scheme = global(affine(simple(2, -1), -2, -1));
//! let cfg = ParallelCfg::threads(4).with_tile(512);
//! let score = scheme.score_parallel(&q, &s, &cfg);
//! assert_eq!(score, scheme.score(&q, &s));
//! ```

#![forbid(unsafe_code)]

pub mod aligner;
pub mod borders;
pub mod grid;
pub mod pass;
pub mod scheduler;
pub mod shard;

pub use aligner::ParallelExt;
pub use grid::{TileGrid, TileId};
pub use pass::{
    finalize_score, tiled_score_pass, ParallelCfg, ScalarTiles, Tile, TileKernel, TiledPass,
};
pub use scheduler::{run_dynamic, run_static, run_workers};
pub use shard::{plan_columns, ShardSeam, SlabOutput};
