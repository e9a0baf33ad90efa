//! Long-genome pairwise alignment: the paper's use case (i).
//!
//! Simulates a bacterial-scale genome and a diverged relative, then
//! runs the tiled pass on both of its tile kernels — `ScalarTiles`
//! (through `ParallelExt`) and the vector-lane `LaneTiles` — reporting
//! GCUPS and the lane/scalar tile split for each — and finally
//! dispatches the same pair through the engine's `BatchScheduler` as a
//! borrowed `BatchView`, showing that the exclusive wavefront unit
//! runs without cloning a single genome byte (`sched.bytes_copied = 0`).
//!
//! Run: `cargo run --release --example long_genome [len] [threads]`

use anyseq::prelude::*;
use anyseq::simd::LaneTiles;
use anyseq::wavefront::TiledPass;
use anyseq_seq::BatchView;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let len: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(200_000);
    let threads: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8)
    });

    println!("simulating a {len} bp genome pair (2% divergence)...");
    let mut sim = GenomeSim::new(2024);
    let a = sim.generate(len);
    let b = sim.mutate(&a, 0.02);
    let cells = (a.len() * b.len()) as f64;

    let scheme = global(affine(simple(2, -1), -2, -1));
    let cfg = ParallelCfg::threads(threads).with_tile(512);

    let t0 = Instant::now();
    let score = scheme.score_parallel(&a, &b, &cfg);
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "tiled pass, scalar kernel ({threads} threads): score {score}, {:.2} GCUPS",
        cells / dt / 1e9
    );

    let t0 = Instant::now();
    let lanes = TiledPass::<LaneTiles<16>>::new(cfg);
    let simd_score = lanes.score(&scheme, a.codes(), b.codes());
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(simd_score, score);
    let (lane_tiles, scalar_tiles) = lanes.tile_counts();
    println!(
        "tiled pass, lane kernel (16 lanes):     score {simd_score}, {:.2} GCUPS \
         ({lane_tiles} lane / {scalar_tiles} scalar tiles)",
        cells / dt / 1e9
    );

    let t0 = Instant::now();
    let aln = scheme.align_parallel(&a, &b, &cfg);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(aln.score, score);
    println!(
        "traceback (Hirschberg, parallel):      {} ops, identity {:.2}%, {:.2} GCUPS",
        aln.len(),
        100.0 * aln.identity(),
        2.0 * cells / dt / 1e9 // divide-and-conquer relaxes ~2x the cells
    );

    // The engine path: the pair enters the scheduler as a borrowed
    // view; the exclusive wavefront unit receives PairRefs (pointers),
    // so the multi-Mbp genomes are never deep-cloned at gather time.
    let pairs = vec![(a, b)];
    let view = BatchView::from_pairs(&pairs);
    let spec = SchemeSpec::global_affine(2, -1, -2, -1);
    let dispatch = Dispatch::standard(Policy::Auto);
    let run = BatchScheduler::new(BatchCfg::threads(threads))
        .try_score_batch(&dispatch, &spec, &view)
        .expect("no unit bound is configured, so nothing is refused");
    assert_eq!(run.results[0], score);
    assert_eq!(
        run.stats.counters["sched.bytes_copied"], 0,
        "exclusive dispatch must not clone the genomes"
    );
    println!(
        "engine batch (auto, zero-copy):        score {}, {:.2} GCUPS [{}]",
        run.results[0],
        run.stats.gcups(),
        run.stats.summary()
    );
}
