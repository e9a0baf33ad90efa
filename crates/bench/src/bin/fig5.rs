//! Regenerates paper **Figure 5**: median GCUPS for
//! a) pairs of long DNA sequences, b) batches of short Illumina reads,
//! each as {scores-only, traceback} × {linear, affine} across devices
//! (CPU scalar / 16-lane SIMD / 32-lane SIMD / simulated Titan V
//! / simulated ZCU104) and libraries (AnySeq, SeqAn-like, Parasail-like,
//! NVBio-like).
//!
//! CPU rows are wall-clock measurements on this host; GPU/FPGA rows are
//! the simulators' modeled GCUPS (marked `*`). Compare *shapes* (who
//! wins, by what factor), not absolute values. The SIMD columns run
//! on the ISA tier `anyseq-simd` picks at run time (AVX2 or baseline):
//! L = 32 is two AVX2 registers per block, not an AVX-512 kernel.
//!
//! Usage:
//!   fig5 --part a [--scale F] [--gpu-scale F] [--threads N] [--repeats N]
//!   fig5 --part b [--pairs N] [--threads N] [--repeats N]

use anyseq_baselines::{NvbioLike, ParasailLike, SeqAnLike};
use anyseq_bench::gcups::{measure_gcups, median};
use anyseq_bench::report::{dump_json, Table};
use anyseq_bench::workloads::{genome_pairs, read_batch};
use anyseq_core::prelude::*;
use anyseq_core::scheme::Scheme;
use anyseq_core::traceback::{align_with_pass, AlignConfig};
use anyseq_engine::stats::TRACEBACK_CELL_FACTOR;
use anyseq_engine::{BackendId, BatchCfg, BatchScheduler, Dispatch, Policy, SchemeSpec};
use anyseq_fpga_sim::SystolicArray;
use anyseq_gpu_sim::{Device, GpuAligner};
use anyseq_seq::{BatchView, Seq};
use anyseq_simd::{simd_tiled_score_pass, LaneTiles};
use anyseq_wavefront::pass::{tiled_score_pass, ParallelCfg};
use anyseq_wavefront::{ScalarTiles, TiledPass};
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq)]
enum GapKind {
    Linear,
    Affine,
}

#[derive(Clone, Copy, PartialEq)]
enum Output {
    ScoresOnly,
    Traceback,
}

struct Cfg {
    part: char,
    scale: f64,
    gpu_scale: f64,
    pairs: usize,
    threads: usize,
    repeats: usize,
}

fn parse_args() -> Cfg {
    let mut cfg = Cfg {
        part: 'a',
        scale: 0.004,
        gpu_scale: 0.01,
        pairs: 20_000,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8),
        repeats: 3,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut k = 1;
    while k < args.len() {
        match args[k].as_str() {
            "--part" => {
                cfg.part = args[k + 1].chars().next().unwrap();
                k += 2;
            }
            "--scale" => {
                cfg.scale = args[k + 1].parse().unwrap();
                k += 2;
            }
            "--gpu-scale" => {
                cfg.gpu_scale = args[k + 1].parse().unwrap();
                k += 2;
            }
            "--pairs" => {
                cfg.pairs = args[k + 1].parse().unwrap();
                k += 2;
            }
            "--threads" => {
                cfg.threads = args[k + 1].parse().unwrap();
                k += 2;
            }
            "--repeats" => {
                cfg.repeats = args[k + 1].parse().unwrap();
                k += 2;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    cfg
}

fn lin_scheme() -> Scheme<Global, LinearGap, SimpleSubst> {
    global(linear(simple(2, -1), -1))
}

fn aff_scheme() -> Scheme<Global, AffineGap, SimpleSubst> {
    global(affine(simple(2, -1), -2, -1))
}

fn main() {
    let cfg = parse_args();
    match cfg.part {
        'a' => part_a(&cfg),
        'b' => part_b(&cfg),
        other => {
            eprintln!("--part must be a or b, got {other}");
            std::process::exit(2);
        }
    }
}

/// Runs `f` over every long-genome pair and reports the median GCUPS.
fn median_over_pairs<F: FnMut(&Seq, &Seq) -> f64>(pairs: &[(String, Seq, Seq)], mut f: F) -> f64 {
    median(pairs.iter().map(|(_, q, s)| f(q, s)).collect())
}

fn part_a(cfg: &Cfg) {
    println!(
        "Figure 5a: long-genome pairs, median GCUPS \
         (cpu scale {}, sim scale {}, {} threads; * = modeled)\n",
        cfg.scale, cfg.gpu_scale, cfg.threads
    );
    let pairs = genome_pairs(cfg.scale, 11);
    // One pair suffices for the simulators (functional emulation is
    // CPU-bound); the scale is chosen so the modeled device saturates.
    let sim_pairs: Vec<_> = genome_pairs(cfg.gpu_scale, 11)
        .into_iter()
        .take(1)
        .collect();
    let lin = lin_scheme();
    let aff = aff_scheme();
    let mut json = BTreeMap::new();

    for (out, gapk) in [
        (Output::ScoresOnly, GapKind::Linear),
        (Output::ScoresOnly, GapKind::Affine),
        (Output::Traceback, GapKind::Linear),
        (Output::Traceback, GapKind::Affine),
    ] {
        let title = format!(
            "{}, {}",
            match out {
                Output::ScoresOnly => "Scores only",
                Output::Traceback => "Traceback",
            },
            match gapk {
                GapKind::Linear => "linear",
                GapKind::Affine => "affine",
            }
        );
        println!("== {title} ==");
        let mut table = Table::new(vec!["library", "CPU", "L=16", "L=32", "TitanV*", "ZCU104*"]);

        // Helper macro running one CPU engine closure for the right scheme.
        macro_rules! cpu_gcups {
            ($run_lin:expr, $run_aff:expr) => {{
                median_over_pairs(&pairs, |q, s| {
                    let cells = (q.len() * s.len()) as u64
                        * if out == Output::Traceback {
                            TRACEBACK_CELL_FACTOR
                        } else {
                            1
                        };
                    let m = measure_gcups(cells, cfg.repeats, || match gapk {
                        GapKind::Linear => $run_lin(q, s),
                        GapKind::Affine => $run_aff(q, s),
                    });
                    m.gcups
                })
            }};
        }

        // ---- AnySeq -----------------------------------------------------
        let pcfg = ParallelCfg::threads(cfg.threads).with_tile(512);
        // The SIMD engines fill vector lanes with independent ready
        // tiles; smaller tiles keep the wavefront wide enough to form
        // full lane groups even on scaled-down inputs.
        let simd_cfg = ParallelCfg::threads(cfg.threads).with_tile(128);
        let anyseq_cpu = cpu_gcups!(
            |q: &Seq, s: &Seq| {
                match out {
                    Output::ScoresOnly => {
                        std::hint::black_box(
                            tiled_score_pass::<Global, _, _>(
                                lin.gap(),
                                lin.subst(),
                                q.codes(),
                                s.codes(),
                                &pcfg,
                            )
                            .score,
                        );
                    }
                    Output::Traceback => {
                        let pass = TiledPass::<ScalarTiles>::new(pcfg);
                        std::hint::black_box(
                            align_with_pass::<Global, _, _, _>(
                                &pass,
                                lin.gap(),
                                lin.subst(),
                                q.codes(),
                                s.codes(),
                                &AlignConfig::default(),
                            )
                            .score,
                        );
                    }
                }
            },
            |q: &Seq, s: &Seq| {
                match out {
                    Output::ScoresOnly => {
                        std::hint::black_box(
                            tiled_score_pass::<Global, _, _>(
                                aff.gap(),
                                aff.subst(),
                                q.codes(),
                                s.codes(),
                                &pcfg,
                            )
                            .score,
                        );
                    }
                    Output::Traceback => {
                        let pass = TiledPass::<ScalarTiles>::new(pcfg);
                        std::hint::black_box(
                            align_with_pass::<Global, _, _, _>(
                                &pass,
                                aff.gap(),
                                aff.subst(),
                                q.codes(),
                                s.codes(),
                                &AlignConfig::default(),
                            )
                            .score,
                        );
                    }
                }
            }
        );

        macro_rules! anyseq_simd_col {
            ($l:literal) => {{
                cpu_gcups!(
                    |q: &Seq, s: &Seq| {
                        match out {
                            Output::ScoresOnly => {
                                std::hint::black_box(
                                    simd_tiled_score_pass::<_, _, $l>(
                                        lin.gap(),
                                        lin.subst(),
                                        q.codes(),
                                        s.codes(),
                                        lin.gap().open(),
                                        &simd_cfg,
                                    )
                                    .score,
                                );
                            }
                            Output::Traceback => {
                                let pass = TiledPass::<LaneTiles<$l>>::new(simd_cfg);
                                std::hint::black_box(
                                    align_with_pass::<Global, _, _, _>(
                                        &pass,
                                        lin.gap(),
                                        lin.subst(),
                                        q.codes(),
                                        s.codes(),
                                        &AlignConfig::default(),
                                    )
                                    .score,
                                );
                            }
                        }
                    },
                    |q: &Seq, s: &Seq| {
                        match out {
                            Output::ScoresOnly => {
                                std::hint::black_box(
                                    simd_tiled_score_pass::<_, _, $l>(
                                        aff.gap(),
                                        aff.subst(),
                                        q.codes(),
                                        s.codes(),
                                        aff.gap().open(),
                                        &simd_cfg,
                                    )
                                    .score,
                                );
                            }
                            Output::Traceback => {
                                let pass = TiledPass::<LaneTiles<$l>>::new(simd_cfg);
                                std::hint::black_box(
                                    align_with_pass::<Global, _, _, _>(
                                        &pass,
                                        aff.gap(),
                                        aff.subst(),
                                        q.codes(),
                                        s.codes(),
                                        &AlignConfig::default(),
                                    )
                                    .score,
                                );
                            }
                        }
                    }
                )
            }};
        }
        let anyseq_l16 = anyseq_simd_col!(16);
        let anyseq_l32 = anyseq_simd_col!(32);

        // GPU (modeled) on the reduced-scale pair set.
        let gpu = GpuAligner::new(Device::titan_v()).with_tile(256);
        let anyseq_gpu = median_over_pairs(&sim_pairs, |q, s| match (out, gapk) {
            (Output::ScoresOnly, GapKind::Linear) => {
                let r = gpu.score(&lin, q, s);
                r.stats.gcups(&gpu.device)
            }
            (Output::ScoresOnly, GapKind::Affine) => {
                let r = gpu.score(&aff, q, s);
                r.stats.gcups(&gpu.device)
            }
            (Output::Traceback, GapKind::Linear) => {
                let (_, st) = gpu.align(&lin, q.codes(), s.codes());
                st.gcups(&gpu.device)
            }
            (Output::Traceback, GapKind::Affine) => {
                let (_, st) = gpu.align(&aff, q.codes(), s.codes());
                st.gcups(&gpu.device)
            }
        });

        // FPGA (modeled; the paper's FPGA backend is score-only).
        let fpga_cell = if out == Output::ScoresOnly {
            let arr = SystolicArray::zcu104(128);
            let v = median_over_pairs(&sim_pairs, |q, s| match gapk {
                GapKind::Linear => {
                    let r = arr.score(lin.gap(), lin.subst(), q, s);
                    arr.gcups(&r.stats)
                }
                GapKind::Affine => {
                    let r = arr.score(aff.gap(), aff.subst(), q, s);
                    arr.gcups(&r.stats)
                }
            });
            format!("{v:.1}")
        } else {
            "n/a".to_string()
        };

        table.row(vec![
            "AnySeq".to_string(),
            format!("{anyseq_cpu:.2}"),
            format!("{anyseq_l16:.2}"),
            format!("{anyseq_l32:.2}"),
            format!("{anyseq_gpu:.1}"),
            fpga_cell,
        ]);
        json.insert(format!("{title}/AnySeq/CPU"), anyseq_cpu);
        json.insert(format!("{title}/AnySeq/L16"), anyseq_l16);
        json.insert(format!("{title}/AnySeq/L32"), anyseq_l32);
        json.insert(format!("{title}/AnySeq/TitanV"), anyseq_gpu);

        // ---- SeqAn-like ---------------------------------------------------
        let mut seqan_cols = Vec::new();
        for lanes in [1usize, 16, 32] {
            let mut b = SeqAnLike::new(cfg.threads).with_lanes(lanes);
            b.tile = 128;
            let v = cpu_gcups!(
                |q: &Seq, s: &Seq| {
                    match out {
                        Output::ScoresOnly => {
                            std::hint::black_box(b.score(&lin, q, s));
                        }
                        Output::Traceback => {
                            std::hint::black_box(b.align(&lin, q, s).score);
                        }
                    }
                },
                |q: &Seq, s: &Seq| {
                    match out {
                        Output::ScoresOnly => {
                            std::hint::black_box(b.score(&aff, q, s));
                        }
                        Output::Traceback => {
                            std::hint::black_box(b.align(&aff, q, s).score);
                        }
                    }
                }
            );
            json.insert(format!("{title}/SeqAn-like/lanes{lanes}"), v);
            seqan_cols.push(format!("{v:.2}"));
        }
        table.row(vec![
            "SeqAn-like".to_string(),
            seqan_cols[0].clone(),
            seqan_cols[1].clone(),
            seqan_cols[2].clone(),
            "-".to_string(),
            "-".to_string(),
        ]);

        // ---- Parasail-like (static wavefront, always affine, scalar
        // diagonal interior — the same engine backs all CPU columns) ------
        let parasail = ParasailLike::new(cfg.threads);
        let parasail_gcups = cpu_gcups!(
            |q: &Seq, s: &Seq| {
                match out {
                    Output::ScoresOnly => {
                        std::hint::black_box(parasail.score(&lin, q, s));
                    }
                    Output::Traceback => {
                        std::hint::black_box(parasail.align(&lin, q, s).score);
                    }
                }
            },
            |q: &Seq, s: &Seq| {
                match out {
                    Output::ScoresOnly => {
                        std::hint::black_box(parasail.score(&aff, q, s));
                    }
                    Output::Traceback => {
                        std::hint::black_box(parasail.align(&aff, q, s).score);
                    }
                }
            }
        );
        json.insert(format!("{title}/Parasail-like/CPU"), parasail_gcups);
        let p = format!("{parasail_gcups:.2}");
        table.row(vec![
            "Parasail-like".to_string(),
            p.clone(),
            p.clone(),
            p,
            "-".to_string(),
            "-".to_string(),
        ]);

        // ---- NVBio-like (modeled) ----------------------------------------
        let nvbio = NvbioLike::new(Device::titan_v());
        let nv = median_over_pairs(&sim_pairs, |q, s| match (out, gapk) {
            (Output::ScoresOnly, GapKind::Linear) => {
                let r = nvbio.score(&lin, q, s);
                r.stats.gcups(&nvbio.aligner().device)
            }
            (Output::ScoresOnly, GapKind::Affine) => {
                let r = nvbio.score(&aff, q, s);
                r.stats.gcups(&nvbio.aligner().device)
            }
            (Output::Traceback, GapKind::Linear) => {
                let (_, st) = nvbio.align(&lin, q, s);
                st.gcups(&nvbio.aligner().device)
            }
            (Output::Traceback, GapKind::Affine) => {
                let (_, st) = nvbio.align(&aff, q, s);
                st.gcups(&nvbio.aligner().device)
            }
        });
        json.insert(format!("{title}/NVBio-like/TitanV"), nv);
        table.row(vec![
            "NVBio-like".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{nv:.1}"),
            "-".to_string(),
        ]);

        println!("{}", table.render());
    }
    dump_json("fig5a", &json);
}

fn part_b(cfg: &Cfg) {
    println!(
        "Figure 5b: short-read batches, median GCUPS \
         ({} pairs of ~150 bp, {} threads; * = modeled)\n",
        cfg.pairs, cfg.threads
    );
    let batch = read_batch(cfg.pairs, 23);
    let batch_view = BatchView::from_pairs(&batch);
    let cells: u64 = batch.iter().map(|(q, s)| (q.len() * s.len()) as u64).sum();
    let lin = lin_scheme();
    let aff = aff_scheme();
    let mut json = BTreeMap::new();
    // A reduced batch keeps the GPU functional simulation affordable.
    let sim_batch: Vec<_> = batch.iter().take(cfg.pairs.min(3000)).cloned().collect();
    let sim_view = BatchView::from_pairs(&sim_batch);
    let scalar_dispatch = Dispatch::standard(Policy::Fixed(BackendId::Scalar));
    let scalar_sched = BatchScheduler::new(BatchCfg::threads(cfg.threads));

    for gapk in [GapKind::Linear, GapKind::Affine] {
        let title = format!(
            "Scores only, {}",
            if gapk == GapKind::Linear {
                "linear"
            } else {
                "affine"
            }
        );
        println!("== {title} ==");
        let mut table = Table::new(vec!["library", "CPU", "L=16", "L=32", "TitanV*"]);

        // Scalar multithreaded: the engine's own scheduler, pinned to
        // the scalar backend (its worker pool, one pair at a time).
        let spec = match gapk {
            GapKind::Linear => SchemeSpec::global_linear(2, -1, -1),
            GapKind::Affine => SchemeSpec::global_affine(2, -1, -2, -1),
        };
        let anyseq_cpu = measure_gcups(cells, cfg.repeats, || {
            let run = scalar_sched
                .try_score_batch(&scalar_dispatch, &spec, &batch_view)
                .expect("the scalar backend refuses nothing");
            std::hint::black_box(run.results);
        })
        .gcups;
        let anyseq_l16 = measure_gcups(cells, cfg.repeats, || match gapk {
            GapKind::Linear => {
                std::hint::black_box(anyseq_simd::score_batch_simd::<_, _, _, 16>(
                    &lin,
                    batch_view.refs(),
                    cfg.threads,
                ));
            }
            GapKind::Affine => {
                std::hint::black_box(anyseq_simd::score_batch_simd::<_, _, _, 16>(
                    &aff,
                    batch_view.refs(),
                    cfg.threads,
                ));
            }
        })
        .gcups;
        let anyseq_l32 = measure_gcups(cells, cfg.repeats, || match gapk {
            GapKind::Linear => {
                std::hint::black_box(anyseq_simd::score_batch_simd::<_, _, _, 32>(
                    &lin,
                    batch_view.refs(),
                    cfg.threads,
                ));
            }
            GapKind::Affine => {
                std::hint::black_box(anyseq_simd::score_batch_simd::<_, _, _, 32>(
                    &aff,
                    batch_view.refs(),
                    cfg.threads,
                ));
            }
        })
        .gcups;

        let gpu = GpuAligner::new(Device::titan_v());
        let anyseq_gpu = match gapk {
            GapKind::Linear => {
                let (_, st) = gpu.score_batch(&lin, sim_view.refs());
                st.gcups(&gpu.device)
            }
            GapKind::Affine => {
                let (_, st) = gpu.score_batch(&aff, sim_view.refs());
                st.gcups(&gpu.device)
            }
        };

        table.row(vec![
            "AnySeq".to_string(),
            format!("{anyseq_cpu:.2}"),
            format!("{anyseq_l16:.2}"),
            format!("{anyseq_l32:.2}"),
            format!("{anyseq_gpu:.1}"),
        ]);
        json.insert(format!("{title}/AnySeq/CPU"), anyseq_cpu);
        json.insert(format!("{title}/AnySeq/L16"), anyseq_l16);
        json.insert(format!("{title}/AnySeq/L32"), anyseq_l32);
        json.insert(format!("{title}/AnySeq/TitanV"), anyseq_gpu);

        // SeqAn-like batch (scalar per pair under its queue discipline).
        let seqan = SeqAnLike::new(cfg.threads);
        let seqan_cpu = measure_gcups(cells, cfg.repeats, || match gapk {
            GapKind::Linear => {
                std::hint::black_box(seqan.score_batch(&lin, &batch));
            }
            GapKind::Affine => {
                std::hint::black_box(seqan.score_batch(&aff, &batch));
            }
        })
        .gcups;
        table.row(vec![
            "SeqAn-like".to_string(),
            format!("{seqan_cpu:.2}"),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        json.insert(format!("{title}/SeqAn-like/CPU"), seqan_cpu);

        // NVBio-like (modeled).
        let nvbio = NvbioLike::new(Device::titan_v());
        let nv = match gapk {
            GapKind::Linear => {
                let (_, st) = nvbio.aligner().score_batch(&lin, sim_view.refs());
                st.gcups(&nvbio.aligner().device)
            }
            GapKind::Affine => {
                let (_, st) = nvbio.aligner().score_batch(&aff, sim_view.refs());
                st.gcups(&nvbio.aligner().device)
            }
        };
        table.row(vec![
            "NVBio-like".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{nv:.1}"),
        ]);
        json.insert(format!("{title}/NVBio-like/TitanV"), nv);

        // Extra baseline: Farrar/SSW striped local scoring.
        let farrar = anyseq_baselines::farrar::Farrar::<16>::new(
            AffineGap {
                open: -2,
                extend: -1,
            },
            &simple(2, -1),
        );
        let farrar_gcups = measure_gcups(cells, cfg.repeats, || {
            std::hint::black_box(farrar.score_batch(&batch, cfg.threads));
        })
        .gcups;
        table.row(vec![
            "SSW/Farrar (local)".to_string(),
            "-".to_string(),
            format!("{farrar_gcups:.2}"),
            "-".to_string(),
            "-".to_string(),
        ]);
        json.insert(format!("{title}/Farrar/AVX2"), farrar_gcups);

        println!("{}", table.render());
    }

    // Traceback rows (CPU only: per-read alignments are full-matrix-sized
    // rectangles below the recursion cutoff).
    for gapk in [GapKind::Linear, GapKind::Affine] {
        let title = format!(
            "Traceback, {}",
            if gapk == GapKind::Linear {
                "linear"
            } else {
                "affine"
            }
        );
        println!("== {title} ==");
        let mut table = Table::new(vec!["library", "CPU"]);
        let trace_cells = cells; // full matrix + traceback walk
        let v = measure_gcups(trace_cells, cfg.repeats.max(1), || {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let next = AtomicUsize::new(0);
            std::thread::scope(|sc| {
                for _ in 0..cfg.threads {
                    sc.spawn(|| loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= batch.len() {
                            break;
                        }
                        let (q, s) = &batch[k];
                        match gapk {
                            GapKind::Linear => {
                                std::hint::black_box(lin_scheme().align(q, s).score);
                            }
                            GapKind::Affine => {
                                std::hint::black_box(aff_scheme().align(q, s).score);
                            }
                        }
                    });
                }
            });
        })
        .gcups;
        table.row(vec!["AnySeq".to_string(), format!("{v:.2}")]);
        json.insert(format!("{title}/AnySeq/CPU"), v);
        println!("{}", table.render());
    }
    dump_json("fig5b", &json);
}
