//! Short-read batch scoring: the paper's use case (ii), driven through
//! the `anyseq-engine` batch subsystem.
//!
//! Simulates Illumina-style 150 bp read pairs (Mason-like) and scores
//! them three ways — a plain scalar loop and the SIMD batch entry point, then
//! the engine's `BatchScheduler` with auto dispatch (exact-shape order,
//! worker pool, per-backend stats) — asserting bit-identical results.
//!
//! Run: `cargo run --release --example read_batch [pairs] [threads]`

use anyseq::prelude::*;
use anyseq::simd::score_batch_simd;
use anyseq_seq::BatchView;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let count: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(50_000);
    let threads: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8)
    });

    println!("simulating {count} read pairs from a 2 Mbp reference...");
    let reference = GenomeSim::new(7).generate(2_000_000);
    let mut rs = ReadSim::new(ReadSimProfile::default(), 99);
    let pairs: Vec<(Seq, Seq)> = rs
        .simulate_pairs(&reference, count)
        .into_iter()
        .map(|p| (p.a, p.b))
        .collect();
    let cells: f64 = pairs.iter().map(|(q, s)| (q.len() * s.len()) as f64).sum();

    let scheme = global(linear(simple(2, -1), -1));

    let t0 = Instant::now();
    let scalar: Vec<Score> = pairs.iter().map(|(q, s)| scheme.score(q, s)).collect();
    let dt = t0.elapsed().as_secs_f64();
    println!("scalar loop   (1 thread):   {:.2} GCUPS", cells / dt / 1e9);

    // Borrowed zero-copy view over the owned batch: every layer below
    // this point moves 32-byte PairRefs, never sequence bytes.
    let view = BatchView::from_pairs(&pairs);

    let t0 = Instant::now();
    let simd = score_batch_simd::<_, _, _, 16>(&scheme, view.refs(), threads);
    let dt = t0.elapsed().as_secs_f64();
    println!("SIMD batch    (16 lanes):   {:.2} GCUPS", cells / dt / 1e9);
    assert_eq!(scalar, simd, "engines must agree bit-exactly");

    // The same batch through the engine subsystem: one SchemeSpec, one
    // dispatch policy, scheduling and backend choice handled for you.
    let spec = SchemeSpec::global_linear(2, -1, -1);
    let dispatch = Dispatch::standard(Policy::Auto);
    let scheduler = BatchScheduler::new(BatchCfg::threads(threads));
    let run = scheduler
        .try_score_batch(&dispatch, &spec, &view)
        .expect("no unit bound is configured, so nothing is refused");
    println!("engine batch  (auto):       {:.2} GCUPS", run.stats.gcups());
    println!("  {}", run.stats.summary());
    assert_eq!(scalar, run.results, "the engine must agree bit-exactly");
    assert_eq!(
        run.stats.counters["sched.bytes_copied"], 0,
        "the scheduler gather must stay zero-copy"
    );

    let mean: f64 = scalar.iter().map(|&v| v as f64).sum::<f64>() / scalar.len() as f64;
    println!("mean pair score: {mean:.1} (max possible 300)");
}
