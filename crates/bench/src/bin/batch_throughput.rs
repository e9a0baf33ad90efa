//! Batch-throughput workload over the `anyseq-engine` subsystem:
//! per-backend GCUPS on a Mason-like short-read batch, single-thread
//! versus multi-thread, in **both** execution modes — score-only and
//! alignment (banded SIMD traceback) — plus the engine's own per-batch
//! statistics (utilization, fallbacks, band telemetry, copy counters).
//!
//! Run: `cargo run --release -p anyseq-bench --bin batch_throughput \
//!       [pairs] [threads] [repeats] [long_len] [dup_frac] [semi_len] [local_len] [huge_len]`
//!
//! `long_len > 0` appends a long-genome section: one `long_len` bp
//! pair (2% divergence) scored and aligned through `Policy::Auto`
//! (exclusive wavefront bin) — the workload the zero-copy gather was
//! built for. JSON keys: `long.score_gcups` / `long.align_gcups`.
//!
//! `huge_len > 0` appends a chromosome-scale *sharded* section: one
//! asymmetric pair (`huge_len/16` bp query × `huge_len` bp subject)
//! run through `--shard-cells`-style sharding on the fixed wavefront —
//! the pair is cut into subject slabs stitched through serialized
//! border seams, and the bench asserts the sharded results are
//! bit-identical to the unsharded run while the resident peak
//! (`wavefront.peak_shard_mb`) stays within the unsharded border
//! budget. JSON keys: `huge.{score,align}_gcups`,
//! `huge.score_gcups_unsharded`, `huge.peak_shard_mb`,
//! `huge.budget_mb`, `huge.seam_bytes` and `sched.shards`.
//!
//! `semi_len > 0` appends a semi-global bin: `semi_len` bp reads
//! contained in 1.5× windows, scored and aligned through
//! `Policy::Auto` (which routes the short non-global bins to the
//! kind-generic SIMD kernels) with a `Fixed(Scalar)` baseline for the
//! speedup ratio. A second score run enables X-drop on a half-decoy
//! batch (off-target filtering, the workload the knob exists for).
//! JSON keys: `semi.{score,align}_gcups`, `semi.score_gcups_scalar`,
//! `semi.score_speedup`, `semi.score_gcups_xdrop` and
//! `xdrop.retired_lanes`. `local_len > 0` does the same for Local
//! over amplicon pairs (no X-drop sub-run): `local.{score,align}_gcups`,
//! `local.score_gcups_scalar`, `local.score_speedup`.
//!
//! `dup_frac > 0` appends a duplicated-read section modeling PCR /
//! resequencing duplication: a batch where `dup_frac` of the pairs
//! repeat earlier content, run cache-off and cache-on
//! (`DispatchPolicy::cache_mb`) on the same config, results asserted
//! bit-identical. GCUPS count *logical* cells, so the cache-on number
//! is effective throughput. JSON keys: `dup.hit_rate`,
//! `dup.{score,align}_gcups` (+ `_nocache` baselines and
//! `dup.{score,align}_speedup`), plus the cache counters
//! `cache.{hits,misses,bytes,evictions}` from the score run.
//!
//! An observability section always runs last: the same read batch is
//! scored through a plain dispatch and one with `observe(true)`, and
//! the enabled overhead must stay within 3% (asserted once
//! `pairs >= 2000` so fixed costs and median noise cannot dominate).
//! JSON keys: `obs.score_gcups_off` / `obs.score_gcups_on` /
//! `obs.overhead_frac`, the per-stage `stage.*_ns` wall totals,
//! `obs.kernel_p{50,95,99}_ns` from the merged kernel-latency
//! histogram, and `obs.trace_spans`; the observed run's Chrome trace
//! is written to `target/bench-results/batch_trace.json` for
//! `scripts/check_trace.py`.
//!
//! An ISA-tier section follows: the bare L = 16 lane kernel on one
//! 150 × 150 block, once pinned to the build's baseline features and
//! once on the tier `anyseq-simd` picked at run time. JSON keys:
//! `simd.isa` (`"avx2"` / `"baseline"`), `simd.kernel_gcups_baseline`,
//! `simd.kernel_gcups_tier`; `scripts/check_bench_report.py` fails the
//! run when the ISA is `avx2` and tier ÷ baseline < 1.4 — the loud
//! failure for a relaxation that stopped inlining into its
//! `#[target_feature]` trampoline.
//!
//! Report format (documented in `docs/ARCHITECTURE.md`): one section
//! per mode, opened by an unambiguous `== mode: … ==` header so saved
//! reports can never mix the two up. Alignment-mode cells are counted
//! with the shared `TRACEBACK_CELL_FACTOR` convention, so GCUPS are
//! comparable across the engine's stats, this bench and the paper's
//! traceback rows. JSON keys are `<mode>.<backend>_<threads>t`, plus
//! per mode:
//!
//! * `<mode>.bytes_copied` — sequence bytes copied below the batch
//!   view (scheduler gather + SIMD lane transpose) on the final
//!   full-thread run, summed across backends. The gather contribution
//!   (`sched.bytes_copied`) must be 0 — the zero-copy contract.
//! * `<mode>.peak_batch_mb` — estimated peak batch memory: pair bytes
//!   resident (borrowed, not cloned) plus the worst-case in-flight
//!   lane-transpose buffers (`threads × lanes × (max |q| + max |s|)`).

use anyseq_bench::gcups::measure_gcups;
use anyseq_bench::report::{dump_json_labelled, Table};
use anyseq_bench::workloads::{amplicon_batch, contained_read_batch, read_batch};
use anyseq_engine::stats::TRACEBACK_CELL_FACTOR;
use anyseq_engine::{
    BackendId, BatchCfg, BatchScheduler, Dispatch, DispatchPolicy, GapSpec, KindSpec, Policy,
    SchemeSpec, SCHED_BYTES_COPIED, SIMD_LANES,
};
use anyseq_seq::genome::GenomeSim;
use anyseq_seq::{BatchView, Seq};
use std::collections::BTreeMap;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pairs_n: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(5_000);
    let threads: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8)
    });
    let repeats: usize = args.get(3).and_then(|a| a.parse().ok()).unwrap_or(3);
    let long_len: usize = args.get(4).and_then(|a| a.parse().ok()).unwrap_or(0);
    let dup_frac: f64 = args.get(5).and_then(|a| a.parse().ok()).unwrap_or(0.0);
    let semi_len: usize = args.get(6).and_then(|a| a.parse().ok()).unwrap_or(0);
    let local_len: usize = args.get(7).and_then(|a| a.parse().ok()).unwrap_or(0);
    let huge_len: usize = args.get(8).and_then(|a| a.parse().ok()).unwrap_or(0);

    println!("simulating {pairs_n} read pairs...");
    let pairs = read_batch(pairs_n, 7);
    let view = BatchView::from_pairs(&pairs);
    let spec = SchemeSpec::global_linear(2, -1, -1);
    let mut json: BTreeMap<String, f64> = BTreeMap::new();
    // One reference for BOTH modes: alignment scores must equal
    // score-only scores, backend by backend, mode by mode.
    let mut expected_scores: Option<Vec<i32>> = None;

    // Peak-memory estimate: the batch itself stays resident (borrowed
    // by the view, never cloned by the scheduler); the only transient
    // sequence buffers are the SIMD lane transposes — at most one per
    // worker in flight.
    let resident_mb = view.resident_bytes() as f64 / 1e6;
    let max_extent = view
        .iter()
        .map(|p| (p.q.len() + p.s.len()) as u64)
        .max()
        .unwrap_or(0);
    // Lane count of the standard dispatch's SIMD backend, for the
    // transpose-buffer term of the memory estimate.
    let transpose_mb = (threads as u64 * SIMD_LANES as u64 * max_extent) as f64 / 1e6;
    // Align mode additionally keeps one DirStore per in-flight lane
    // group: 4 u32 bit-planes (16 bytes) per band cell at the default
    // initial band width (adaptive widening can grow this).
    let max_q = view.iter().map(|p| p.q.len() as u64).max().unwrap_or(0);
    let band_width = 2 * anyseq_simd::BandCfg::default().initial as u64 + 1;
    let dirstore_mb = (threads as u64 * max_q * band_width * 16) as f64 / 1e6;
    let peak_score_mb = resident_mb + transpose_mb;
    let peak_align_mb = peak_score_mb + dirstore_mb;
    println!(
        "peak batch memory (est.): score {peak_score_mb:.1} MB / align {peak_align_mb:.1} MB \
         ({resident_mb:.1} resident + {transpose_mb:.1} transpose buffers \
         + {dirstore_mb:.1} align direction store)"
    );

    for (mode, align) in [("score", false), ("align", true)] {
        println!(
            "\n== mode: {} ==",
            if align {
                "alignment (banded traceback, cells ×2)"
            } else {
                "score-only"
            }
        );
        let cells = view.total_cells() * if align { TRACEBACK_CELL_FACTOR } else { 1 };
        let mut table = Table::new(vec!["backend", "threads", "GCUPS", "scaling", "util%"]);
        let mut mode_bytes_copied = 0u64;

        for backend in [BackendId::Scalar, BackendId::Simd] {
            let dispatch = Dispatch::standard(Policy::Fixed(backend));
            let mut single = None;
            for t in [1usize, threads] {
                let scheduler = BatchScheduler::new(BatchCfg::threads(t));
                let mut last_stats = None;
                let m = measure_gcups(cells, repeats, || {
                    let (scores, stats) = if align {
                        let run = scheduler.try_align_batch(&dispatch, &spec, &view).unwrap();
                        (run.results.iter().map(|a| a.score).collect(), run.stats)
                    } else {
                        let run = scheduler.try_score_batch(&dispatch, &spec, &view).unwrap();
                        (run.results.clone(), run.stats)
                    };
                    // Scores must agree across every backend and mode;
                    // alignment CIGARs may break ties differently.
                    match &expected_scores {
                        None => expected_scores = Some(scores),
                        Some(reference) => assert_eq!(
                            reference,
                            &scores,
                            "{} {mode} results diverged from the reference",
                            backend.name()
                        ),
                    }
                    last_stats = Some(stats);
                });
                let stats = last_stats.expect("at least one repeat ran");
                // The scheduler gather must never clone sequence bytes.
                assert_eq!(
                    stats.counters.get(SCHED_BYTES_COPIED).copied(),
                    Some(0),
                    "{} {mode}: gather copied sequence bytes",
                    backend.name()
                );
                if t == threads {
                    mode_bytes_copied += stats.bytes_copied();
                }
                let scaling = match (t, single) {
                    (1, _) => {
                        single = Some(m.gcups);
                        "1.00x".to_string()
                    }
                    (_, Some(base)) if base > 0.0 => format!("{:.2}x", m.gcups / base),
                    _ => "-".to_string(),
                };
                table.row(vec![
                    backend.name().to_string(),
                    t.to_string(),
                    format!("{:.3}", m.gcups),
                    scaling,
                    format!("{:.0}", 100.0 * stats.utilization(t)),
                ]);
                json.insert(format!("{mode}.{}_{t}t", backend.name()), m.gcups);
                if t == threads && !stats.counters.is_empty() {
                    println!("[{} counters] {}", backend.name(), stats.summary());
                }
                if t == 1 && t == threads {
                    break; // single-core machine: one row is the whole story
                }
            }
        }
        println!("{}", table.render());
        println!("{mode}.bytes_copied = {mode_bytes_copied} (lane transposes only; gather = 0)");
        json.insert(format!("{mode}.bytes_copied"), mode_bytes_copied as f64);
        json.insert(
            format!("{mode}.peak_batch_mb"),
            if align { peak_align_mb } else { peak_score_mb },
        );
    }

    println!(
        "(median of {repeats} runs over {} pairs; scores cross-checked between backends and modes)",
        pairs.len()
    );
    if threads > 1 {
        for mode in ["score", "align"] {
            let s1 = json.get(&format!("{mode}.simd_1t")).copied().unwrap_or(0.0);
            let sn = json
                .get(&format!("{mode}.simd_{threads}t"))
                .copied()
                .unwrap_or(0.0);
            if s1 > 0.0 {
                println!(
                    "simd {mode} {threads}-thread scaling over 1-thread: {:.2}x",
                    sn / s1
                );
            }
        }
    }

    // Optional long-genome bin: one huge pair through Auto dispatch —
    // the exclusive-wavefront workload whose gather used to deep-clone
    // both genomes per unit.
    if long_len > 0 {
        println!("\n== mode: long-genome ({long_len} bp pair, auto dispatch) ==");
        let mut sim = GenomeSim::new(2024);
        let a = sim.generate(long_len);
        let b = sim.mutate(&a, 0.02);
        let long_pairs = vec![(a, b)];
        let long_view = BatchView::from_pairs(&long_pairs);
        let dispatch = Dispatch::standard(Policy::Auto);
        let scheduler = BatchScheduler::new(BatchCfg::threads(threads));
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);

        let score_run = scheduler
            .try_score_batch(&dispatch, &spec, &long_view)
            .unwrap();
        println!("score: {}", score_run.stats.summary());
        json.insert("long.score_gcups".into(), score_run.stats.gcups());

        let align_run = scheduler
            .try_align_batch(&dispatch, &spec, &long_view)
            .unwrap();
        println!("align: {}", align_run.stats.summary());
        json.insert("long.align_gcups".into(), align_run.stats.gcups());
        assert_eq!(
            align_run.stats.counters.get(SCHED_BYTES_COPIED).copied(),
            Some(0),
            "long-genome gather copied sequence bytes"
        );
        assert_eq!(align_run.results[0].score, score_run.results[0]);
    }

    // Optional chromosome-scale sharded bin: one asymmetric pair too
    // big for a resident border set, cut into subject slabs stitched
    // through serialized seams. The unsharded run supplies both the
    // bit-identity reference and the memory budget (its full-grid
    // border estimate); the sharded run must match the scores exactly
    // and keep its resident peak under that budget.
    if huge_len > 0 {
        let q_len = (huge_len / 16).max(64);
        println!(
            "\n== mode: huge sharded ({q_len} bp query x {huge_len} bp subject, \
             fixed wavefront, seam-stitched slabs) =="
        );
        let mut sim = GenomeSim::new(4096);
        let subject = sim.generate(huge_len);
        // The query is a mutated prefix window of the subject — a real
        // containment mapping, so the global DP has signal everywhere.
        let query = sim.mutate(&subject.subseq(0..q_len.min(subject.len())), 0.03);
        let huge_pairs = vec![(query, subject)];
        let huge_view = BatchView::from_pairs(&huge_pairs);
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);
        let cells = huge_view.total_cells();
        // One eighth of the matrix per slab (the policy clamps tiny
        // budgets up to one 512×512 tile), so the chain genuinely runs
        // multiple shards even on the CI smoke config.
        let shard_cells = (cells / 8).max(1);
        let scheduler = BatchScheduler::new(BatchCfg::threads(threads));
        let plain = Dispatch::standard(Policy::Fixed(BackendId::Wavefront));
        let sharded = DispatchPolicy::fixed(BackendId::Wavefront)
            .shard_cells(shard_cells)
            .standard();

        let mut base_scores: Vec<i32> = Vec::new();
        let mut base_stats = None;
        let um = measure_gcups(cells, repeats, || {
            let run = scheduler
                .try_score_batch(&plain, &spec, &huge_view)
                .unwrap();
            base_scores = run.results.clone();
            base_stats = Some(run.stats);
        });
        let base_stats = base_stats.expect("at least one repeat ran");
        // Budget: the unsharded pass's resident border working set —
        // the O(n + m) stripe bytes the sharded chain exists to beat.
        let budget_mb =
            (base_stats.counters["wavefront.border_bytes"] as f64 / (1u64 << 20) as f64).max(1.0);

        let mut last_stats = None;
        let sm = measure_gcups(cells, repeats, || {
            let run = scheduler
                .try_score_batch(&sharded, &spec, &huge_view)
                .unwrap();
            assert_eq!(
                run.results, base_scores,
                "huge: sharded scores diverged from unsharded"
            );
            last_stats = Some(run.stats);
        });
        let stats = last_stats.expect("at least one repeat ran");
        let shards = stats.counters.get("sched.shards").copied().unwrap_or(0);
        let seam_bytes = stats.counters.get("sched.seam_bytes").copied().unwrap_or(0);
        let peak_mb = stats
            .counters
            .get("wavefront.peak_shard_mb")
            .copied()
            .unwrap_or(0);
        assert!(shards >= 2, "huge bin must actually shard (got {shards})");
        assert!(seam_bytes > 0, "shard hand-offs must serialize seams");
        assert!(
            (peak_mb as f64) <= budget_mb,
            "sharded resident peak {peak_mb} MB exceeds the unsharded budget {budget_mb:.1} MB"
        );

        let mut aligned_score = 0i32;
        let am = measure_gcups(cells * TRACEBACK_CELL_FACTOR, repeats, || {
            let run = scheduler
                .try_align_batch(&sharded, &spec, &huge_view)
                .unwrap();
            aligned_score = run.results[0].score;
            assert_eq!(
                aligned_score, base_scores[0],
                "huge: sharded align score diverged from unsharded"
            );
        });
        println!(
            "score: unsharded {:.3} GCUPS, sharded {:.3} GCUPS ({shards} shards, \
             {seam_bytes} seam bytes); align sharded {:.3} GCUPS",
            um.gcups, sm.gcups, am.gcups
        );
        println!(
            "resident peak: sharded {peak_mb} MB <= unsharded border budget {budget_mb:.1} MB"
        );
        json.insert("huge.score_gcups".into(), sm.gcups);
        json.insert("huge.score_gcups_unsharded".into(), um.gcups);
        json.insert("huge.align_gcups".into(), am.gcups);
        json.insert("huge.peak_shard_mb".into(), peak_mb as f64);
        json.insert("huge.budget_mb".into(), budget_mb);
        json.insert("huge.seam_bytes".into(), seam_bytes as f64);
        json.insert("sched.shards".into(), shards as f64);
    }

    // Optional semi-global bin: reads contained in longer windows, the
    // headline workload of the kind-generic SIMD kernels. Auto routes
    // the whole (uniform-dims) bin to the lanes; the Fixed(Scalar) run
    // is the speedup denominator. A second score run turns on X-drop
    // against a half-decoy batch — the off-target filtering scenario
    // the knob exists for — and reports how many lanes retired early.
    if semi_len > 0 {
        let window = semi_len + semi_len / 2;
        println!(
            "\n== mode: semi-global ({semi_len} bp reads in {window} bp windows, auto dispatch) =="
        );
        let semi_pairs = contained_read_batch(pairs_n, semi_len, window, 0x5e31);
        let semi_view = BatchView::from_pairs(&semi_pairs);
        let spec = SchemeSpec {
            kind: KindSpec::SemiGlobal,
            match_score: 2,
            mismatch: -1,
            gap: GapSpec::Affine {
                open: -2,
                extend: -1,
            },
        };
        run_kind_bin("semi", &spec, &semi_view, threads, repeats, &mut json);

        // X-drop sub-run: every other read replaced by a chimera —
        // first half copied from the window (a strong seed match),
        // second half a poly-C artifact tail (adapter read-through /
        // index-hopping regime). SemiGlobal frees both begin borders,
        // so a read that is junk from base 0 never climbs and never
        // drops far below its running max; it is exactly the
        // climb-then-diverge lanes X-drop exists to retire. Scores are
        // intentionally not compared to scalar here — X-drop is
        // inexact by design on retired lanes.
        let decoy_pairs: Vec<_> = semi_pairs
            .iter()
            .enumerate()
            .map(|(k, (q, s))| {
                if k % 2 == 1 {
                    let mut codes = s.subseq(0..semi_len / 2).codes().to_vec();
                    codes.resize(semi_len, 1u8);
                    (Seq::from_codes(codes).expect("codes 0..4"), s.clone())
                } else {
                    (q.clone(), s.clone())
                }
            })
            .collect();
        let decoy_view = BatchView::from_pairs(&decoy_pairs);
        let xdrop = 20;
        let xdispatch = DispatchPolicy::auto().xdrop(xdrop).standard();
        let scheduler = BatchScheduler::new(BatchCfg::threads(threads));
        let mut last_stats = None;
        let xm = measure_gcups(decoy_view.total_cells(), repeats, || {
            last_stats = Some(
                scheduler
                    .try_score_batch(&xdispatch, &spec, &decoy_view)
                    .unwrap()
                    .stats,
            );
        });
        let stats = last_stats.expect("at least one repeat ran");
        let retired = stats
            .counters
            .get("simd.xdrop_retired")
            .copied()
            .unwrap_or(0);
        println!(
            "xdrop {xdrop} (half-decoy batch): {:.3} GCUPS, {retired} of {} lanes retired early",
            xm.gcups,
            decoy_pairs.len()
        );
        json.insert("semi.score_gcups_xdrop".into(), xm.gcups);
        json.insert("xdrop.retired_lanes".into(), retired as f64);
    }

    // Optional local bin: amplicon pairs under Local — same harness,
    // no X-drop sub-run (Local seeds keep every lane competitive).
    if local_len > 0 {
        println!("\n== mode: local ({local_len} bp amplicon pairs, auto dispatch) ==");
        let local_pairs = amplicon_batch(pairs_n, local_len, 0x10ca);
        let local_view = BatchView::from_pairs(&local_pairs);
        let spec = SchemeSpec {
            kind: KindSpec::Local,
            match_score: 2,
            mismatch: -1,
            gap: GapSpec::Affine {
                open: -2,
                extend: -1,
            },
        };
        run_kind_bin("local", &spec, &local_view, threads, repeats, &mut json);
    }

    // Optional duplicated-read bin: the result-cache workload. The
    // batch keeps `dup_frac` of its pairs as repeats of earlier
    // content (PCR duplicates / resequenced reads); the cache-on run
    // recognizes them before units form, so only the unique fraction
    // is computed while GCUPS still count the batch's logical cells —
    // effective throughput vs. the cache-off baseline on the same
    // config.
    if dup_frac > 0.0 {
        let dup_frac = dup_frac.min(0.95);
        let dup_n = ((pairs_n as f64) * dup_frac).round() as usize;
        let unique_n = pairs_n.saturating_sub(dup_n).max(1);
        // Amplicon-style reads (1000 bp, substitution errors only):
        // the regime the cache targets — per-pair DP work is O(L²)
        // while the probe (hash + verify + retain) is O(L), so the
        // duplicated fraction converts almost entirely into
        // throughput, and the uniform dimensions keep SIMD lane fill
        // identical between the cache-on and cache-off runs. On
        // 150 bp reads the DP is only ~20 µs/pair and the probe
        // overhead eats a visible slice of the win.
        let dup_read_len = 1000;
        println!(
            "\n== mode: duplicated reads ({dup_n} of {pairs_n} {dup_read_len} bp amplicon pairs \
             repeat earlier content, auto dispatch, cache off vs on) =="
        );
        let mut dup_pairs = amplicon_batch(unique_n, dup_read_len, 0x0d5e);
        for k in 0..pairs_n - unique_n {
            dup_pairs.push(dup_pairs[k % unique_n].clone());
        }
        let dup_view = BatchView::from_pairs(&dup_pairs);
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let scheduler = BatchScheduler::new(BatchCfg::threads(threads));
        let plain = Dispatch::standard(Policy::Auto);
        let cached = DispatchPolicy::auto().cache_mb(256).standard();
        let cache = cached.cache().expect("cache_mb enables the cache");
        let mut hit_rate = 0.0f64;

        for (mode, align) in [("score", false), ("align", true)] {
            let cells = dup_view.total_cells() * if align { TRACEBACK_CELL_FACTOR } else { 1 };
            let mut base_scores: Vec<i32> = Vec::new();
            let mut base_ops_len: Vec<usize> = Vec::new();
            let off = measure_gcups(cells, repeats, || {
                if align {
                    let run = scheduler.try_align_batch(&plain, &spec, &dup_view).unwrap();
                    base_scores = run.results.iter().map(|a| a.score).collect();
                    base_ops_len = run.results.iter().map(|a| a.ops.len()).collect();
                } else {
                    let run = scheduler.try_score_batch(&plain, &spec, &dup_view).unwrap();
                    base_scores = run.results.clone();
                }
            });
            let mut last_stats = None;
            let on = measure_gcups(cells, repeats, || {
                // Each repeat measures the cold-batch case (in-batch
                // dedup only), not an already-warm cache.
                cache.clear();
                if align {
                    let run = scheduler
                        .try_align_batch(&cached, &spec, &dup_view)
                        .unwrap();
                    let scores: Vec<i32> = run.results.iter().map(|a| a.score).collect();
                    assert_eq!(scores, base_scores, "cached {mode} scores diverged");
                    let ops_len: Vec<usize> = run.results.iter().map(|a| a.ops.len()).collect();
                    assert_eq!(ops_len, base_ops_len, "cached {mode} CIGARs diverged");
                    last_stats = Some(run.stats);
                } else {
                    let run = scheduler
                        .try_score_batch(&cached, &spec, &dup_view)
                        .unwrap();
                    assert_eq!(run.results, base_scores, "cached {mode} scores diverged");
                    last_stats = Some(run.stats);
                }
            });
            let stats = last_stats.expect("at least one repeat ran");
            let hits = stats.counters["cache.hits"];
            let misses = stats.counters["cache.misses"];
            assert_eq!(
                hits + misses,
                stats.pairs,
                "{mode}: cache.hits + cache.misses must equal the pair count"
            );
            hit_rate = hits as f64 / stats.pairs as f64;
            let speedup = if off.gcups > 0.0 {
                on.gcups / off.gcups
            } else {
                0.0
            };
            println!(
                "{mode}: cache off {:.3} GCUPS, cache on {:.3} effective GCUPS \
                 ({speedup:.2}x, hit rate {:.0}%)",
                off.gcups,
                on.gcups,
                100.0 * hit_rate
            );
            json.insert(format!("dup.{mode}_gcups"), on.gcups);
            json.insert(format!("dup.{mode}_gcups_nocache"), off.gcups);
            json.insert(format!("dup.{mode}_speedup"), speedup);
            if mode == "score" {
                for key in [
                    "cache.hits",
                    "cache.misses",
                    "cache.bytes",
                    "cache.evictions",
                ] {
                    json.insert(key.into(), stats.counters[key] as f64);
                }
            }
        }
        json.insert("dup.hit_rate".into(), hit_rate);
    }

    // Observability section: the span/metrics layer must be close to
    // free when enabled. Score the same batch through a plain dispatch
    // and one with `observe(true)` and compare GCUPS; the observed run
    // also supplies the per-stage counters, the merged kernel-latency
    // histogram, and a Chrome-trace artifact for the CI validator.
    {
        println!("\n== mode: observability (spans + metrics vs plain dispatch) ==");
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let scheduler = BatchScheduler::new(BatchCfg::threads(threads));
        let plain = Dispatch::standard(Policy::Auto);
        let observed = DispatchPolicy::auto().observe(true).standard();
        let cells = view.total_cells();

        let off = measure_gcups(cells, repeats, || {
            scheduler.try_score_batch(&plain, &spec, &view).unwrap();
        });
        let mut last_stats = None;
        let on = measure_gcups(cells, repeats, || {
            last_stats = Some(
                scheduler
                    .try_score_batch(&observed, &spec, &view)
                    .unwrap()
                    .stats,
            );
        });
        let stats = last_stats.expect("at least one repeat ran");
        let overhead = if off.gcups > 0.0 {
            (1.0 - on.gcups / off.gcups).max(0.0)
        } else {
            0.0
        };
        println!(
            "score: observe off {:.3} GCUPS, on {:.3} GCUPS ({:.1}% overhead)",
            off.gcups,
            on.gcups,
            100.0 * overhead
        );
        json.insert("obs.score_gcups_off".into(), off.gcups);
        json.insert("obs.score_gcups_on".into(), on.gcups);
        json.insert("obs.overhead_frac".into(), overhead);
        // Tiny batches are all fixed cost and median noise; only hold
        // the 3% budget once the kernel work dominates.
        if pairs_n >= 2000 {
            assert!(
                overhead <= 0.03,
                "observability overhead {:.1}% exceeds the 3% budget",
                100.0 * overhead
            );
        }

        // Per-stage wall totals (ns) from the observed run's drained
        // spans — the same `stage.*` counters the CLI summary prints.
        for (name, value) in &stats.counters {
            if name.starts_with("stage.") {
                json.insert((*name).to_string(), *value as f64);
            }
        }

        // Kernel latency distribution, merged across every
        // (backend, bin) series the registry accumulated.
        let registry = observed
            .metrics()
            .expect("observe(true) enables the registry");
        let kernel = registry.merged_histogram("anyseq_stage_duration_ns", "stage=\"kernel\"");
        if kernel.count() > 0 {
            println!(
                "kernel spans: n={} p50={:.0}us p95={:.0}us p99={:.0}us",
                kernel.count(),
                kernel.quantile(0.50) as f64 / 1e3,
                kernel.quantile(0.95) as f64 / 1e3,
                kernel.quantile(0.99) as f64 / 1e3
            );
            json.insert("obs.kernel_spans".into(), kernel.count() as f64);
            json.insert("obs.kernel_p50_ns".into(), kernel.quantile(0.50) as f64);
            json.insert("obs.kernel_p95_ns".into(), kernel.quantile(0.95) as f64);
            json.insert("obs.kernel_p99_ns".into(), kernel.quantile(0.99) as f64);
        }

        // Trace artifact: the CI smoke job validates this with
        // `scripts/check_trace.py` (balanced B/E, monotone timestamps,
        // wall-time coverage).
        let dir = std::path::Path::new("target/bench-results");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: could not create {}: {e}", dir.display());
        } else {
            let path = dir.join("batch_trace.json");
            match std::fs::write(&path, anyseq_obs::chrome_trace(&stats.spans)) {
                Ok(()) => println!("trace: {} ({} spans)", path.display(), stats.spans.len()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
        json.insert("obs.trace_spans".into(), stats.spans.len() as f64);
    }

    // ISA-tier codegen guard: the same relaxation on the same block,
    // compiled for the build's baseline features and for the tier the
    // crate picked at run time.
    {
        use anyseq_core::{AffineGap, Global};
        use anyseq_simd::kernel::{block_kernel_kind, block_kernel_kind_baseline};
        use anyseq_simd::BlockBorders;
        const LEN: usize = 150;
        println!(
            "\n== mode: ISA tier (bare {SIMD_LANES}-lane kernel, {LEN} x {LEN} block, isa {}) ==",
            anyseq_simd::isa()
        );
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = anyseq_core::scoring::simple(2, -1);
        let mut sim = GenomeSim::new(0x15a);
        let codes = sim.generate(2 * LEN * SIMD_LANES).codes().to_vec();
        let transposed = |offset: usize| -> Vec<[u8; SIMD_LANES]> {
            (0..LEN)
                .map(|r| std::array::from_fn(|l| codes[offset + l * LEN + r]))
                .collect()
        };
        let (q_rows, s_cols) = (transposed(0), transposed(LEN * SIMD_LANES));
        let fresh = BlockBorders::<SIMD_LANES>::init::<Global, _>(&gap, LEN, LEN);
        let mut block = BlockBorders::<SIMD_LANES>::init::<Global, _>(&gap, LEN, LEN);
        let blocks = 400;
        let cells = (blocks * LEN * LEN * SIMD_LANES) as u64;
        let mut time = |tiered: bool| {
            let mut best = [0i16; SIMD_LANES];
            let m = measure_gcups(cells, repeats.max(5), || {
                for _ in 0..blocks {
                    block.top_h.clone_from(&fresh.top_h);
                    block.top_e.clone_from(&fresh.top_e);
                    block.left_h.clone_from(&fresh.left_h);
                    block.left_f.clone_from(&fresh.left_f);
                    let opt = if tiered {
                        block_kernel_kind::<Global, _, _, false, SIMD_LANES>(
                            &gap, &subst, &q_rows, &s_cols, &mut block, 0,
                        )
                    } else {
                        block_kernel_kind_baseline::<Global, _, _, false, SIMD_LANES>(
                            &gap, &subst, &q_rows, &s_cols, &mut block, 0,
                        )
                    };
                    best = std::hint::black_box(opt.best.0);
                }
            });
            (m.gcups, best)
        };
        let (baseline, expected) = time(false);
        let (tier, got) = time(true);
        assert_eq!(got, expected, "tiers must agree bit for bit");
        println!(
            "kernel: baseline {baseline:.3} GCUPS, {} {tier:.3} GCUPS ({:.2}x)",
            anyseq_simd::isa(),
            tier / baseline
        );
        json.insert("simd.kernel_gcups_baseline".into(), baseline);
        json.insert("simd.kernel_gcups_tier".into(), tier);
    }

    dump_json_labelled(
        "batch_throughput",
        &json,
        &[("simd.isa", anyseq_simd::isa())],
    );
}

/// Shared harness for the non-global short-read bins: score via
/// `Fixed(Scalar)` (the speedup denominator), score and align via
/// `Policy::Auto` — asserting the auto runs stay on the SIMD path with
/// scores bit-identical to scalar — and emit
/// `<label>.{score,align}_gcups`, `<label>.score_gcups_scalar` and
/// `<label>.score_speedup`.
fn run_kind_bin(
    label: &str,
    spec: &SchemeSpec,
    view: &BatchView,
    threads: usize,
    repeats: usize,
    json: &mut BTreeMap<String, f64>,
) {
    let scheduler = BatchScheduler::new(BatchCfg::threads(threads));
    let auto = Dispatch::standard(Policy::Auto);
    let scalar = Dispatch::standard(Policy::Fixed(BackendId::Scalar));
    let cells = view.total_cells();

    let mut expected: Vec<i32> = Vec::new();
    let base = measure_gcups(cells, repeats, || {
        expected = scheduler
            .try_score_batch(&scalar, spec, view)
            .unwrap()
            .results;
    });
    let mut last_stats = None;
    let fast = measure_gcups(cells, repeats, || {
        let run = scheduler.try_score_batch(&auto, spec, view).unwrap();
        assert_eq!(
            run.results, expected,
            "{label}: auto scores diverged from scalar"
        );
        last_stats = Some(run.stats);
    });
    let stats = last_stats.expect("at least one repeat ran");
    assert_eq!(stats.fallbacks, 0, "{label}: auto score left the SIMD path");
    let speedup = if base.gcups > 0.0 {
        fast.gcups / base.gcups
    } else {
        0.0
    };
    println!(
        "score: scalar {:.3} GCUPS, auto(simd) {:.3} GCUPS ({speedup:.2}x)",
        base.gcups, fast.gcups
    );
    json.insert(format!("{label}.score_gcups"), fast.gcups);
    json.insert(format!("{label}.score_gcups_scalar"), base.gcups);
    json.insert(format!("{label}.score_speedup"), speedup);

    let align_cells = cells * TRACEBACK_CELL_FACTOR;
    let aln = measure_gcups(align_cells, repeats, || {
        let run = scheduler.try_align_batch(&auto, spec, view).unwrap();
        let scores: Vec<i32> = run.results.iter().map(|a| a.score).collect();
        assert_eq!(
            scores, expected,
            "{label}: align scores diverged from scalar"
        );
    });
    println!("align: auto(simd) {:.3} GCUPS", aln.gcups);
    json.insert(format!("{label}.align_gcups"), aln.gcups);
}
