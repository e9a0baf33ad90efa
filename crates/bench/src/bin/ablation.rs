//! Ablation benches for the design choices the paper's §V singles out:
//! tile size, recursion cutoff, concurrent-queue implementation, SIMD
//! score width, and GPU striping/phasing/coalescing.
//!
//! Usage: `ablation [tile|cutoff|queue|width|stripes|all] [--scale F] [--threads N]`

use anyseq_baselines::SeqAnLike;
use anyseq_bench::gcups::measure_gcups;
use anyseq_bench::report::{dump_json, Table};
use anyseq_bench::workloads::genome_pairs;
use anyseq_core::kind::Global;
use anyseq_core::prelude::*;
use anyseq_core::traceback::{align_with_pass, AlignConfig};
use anyseq_gpu_sim::{Device, GpuAligner, KernelShape};
use anyseq_simd::simd_tiled_score_pass;
use anyseq_wavefront::pass::{tiled_score_pass, ParallelCfg};
use anyseq_wavefront::{ScalarTiles, TiledPass};
use std::collections::BTreeMap;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut which = "all".to_string();
    let mut scale = 0.003;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let mut k = 1;
    while k < args.len() {
        match args[k].as_str() {
            "--scale" => {
                scale = args[k + 1].parse().unwrap();
                k += 2;
            }
            "--threads" => {
                threads = args[k + 1].parse().unwrap();
                k += 2;
            }
            name => {
                which = name.to_string();
                k += 1;
            }
        }
    }
    let pairs = genome_pairs(scale, 31);
    let (_, q, s) = &pairs[1];
    let cells = (q.len() * s.len()) as u64;
    let gap = AffineGap {
        open: -2,
        extend: -1,
    };
    let subst = simple(2, -1);
    let mut json = BTreeMap::new();

    if which == "tile" || which == "all" {
        println!("== Ablation: tile size (dynamic wavefront, {threads} threads) ==");
        let mut t = Table::new(vec!["tile", "GCUPS"]);
        for tile in [64usize, 128, 256, 512, 1024, 2048] {
            let cfg = ParallelCfg::threads(threads).with_tile(tile);
            let m = measure_gcups(cells, 3, || {
                std::hint::black_box(
                    tiled_score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), &cfg)
                        .score,
                );
            });
            t.row(vec![format!("{tile}"), format!("{:.2}", m.gcups)]);
            json.insert(format!("tile/{tile}"), m.gcups);
        }
        println!("{}", t.render());
    }

    if which == "cutoff" || which == "all" {
        println!("== Ablation: traceback base-case cutoff ==");
        let mut t = Table::new(vec!["cutoff_area", "GCUPS"]);
        let pcfg = ParallelCfg::threads(threads).with_tile(512);
        for shift in [12usize, 16, 18, 20, 22] {
            let cfg = AlignConfig {
                cutoff_area: 1 << shift,
            };
            let pass = TiledPass::<ScalarTiles>::new(pcfg);
            let m = measure_gcups(2 * cells, 3, || {
                std::hint::black_box(
                    align_with_pass::<Global, _, _, _>(
                        &pass,
                        &gap,
                        &subst,
                        q.codes(),
                        s.codes(),
                        &cfg,
                    )
                    .score,
                );
            });
            t.row(vec![format!("1<<{shift}"), format!("{:.2}", m.gcups)]);
            json.insert(format!("cutoff/{shift}"), m.gcups);
        }
        println!("{}", t.render());
    }

    if which == "queue" || which == "all" {
        // Both queues are mutexed deques pulled one tile at a time (scalar
        // tiles); they differ in how an idle worker waits for a tile.
        println!(
            "== Ablation: tile queue (wavefront's spin-polled queue vs SeqAnLike's condvar-waited deque) =="
        );
        let mut t = Table::new(vec!["queue", "GCUPS"]);
        let cfg = ParallelCfg::threads(threads).with_tile(256);
        let m = measure_gcups(cells, 3, || {
            std::hint::black_box(
                tiled_score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), &cfg).score,
            );
        });
        t.row(vec![
            "wavefront, spin-polled".to_string(),
            format!("{:.2}", m.gcups),
        ]);
        json.insert("queue/injector".to_string(), m.gcups);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let mut seqan = SeqAnLike::new(threads).with_lanes(1);
        seqan.tile = 256;
        let m = measure_gcups(cells, 3, || {
            std::hint::black_box(seqan.score(&scheme, q, s));
        });
        t.row(vec![
            "SeqAnLike, condvar-waited".to_string(),
            format!("{:.2}", m.gcups),
        ]);
        json.insert("queue/mutex".to_string(), m.gcups);
        println!("{}", t.render());
    }

    if which == "width" || which == "all" {
        println!("== Ablation: score width (32-bit scalar tiles vs 16-bit SIMD lanes) ==");
        let mut t = Table::new(vec!["width", "GCUPS"]);
        let cfg = ParallelCfg::threads(threads).with_tile(512);
        let m32 = measure_gcups(cells, 3, || {
            std::hint::black_box(
                tiled_score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), &cfg).score,
            );
        });
        t.row(vec!["i32 scalar".to_string(), format!("{:.2}", m32.gcups)]);
        json.insert("width/i32".to_string(), m32.gcups);
        for lanes in [8usize, 16, 32] {
            let g = match lanes {
                8 => measure_gcups(cells, 3, || {
                    std::hint::black_box(
                        simd_tiled_score_pass::<_, _, 8>(
                            &gap,
                            &subst,
                            q.codes(),
                            s.codes(),
                            gap.open(),
                            &cfg,
                        )
                        .score,
                    );
                }),
                16 => measure_gcups(cells, 3, || {
                    std::hint::black_box(
                        simd_tiled_score_pass::<_, _, 16>(
                            &gap,
                            &subst,
                            q.codes(),
                            s.codes(),
                            gap.open(),
                            &cfg,
                        )
                        .score,
                    );
                }),
                _ => measure_gcups(cells, 3, || {
                    std::hint::black_box(
                        simd_tiled_score_pass::<_, _, 32>(
                            &gap,
                            &subst,
                            q.codes(),
                            s.codes(),
                            gap.open(),
                            &cfg,
                        )
                        .score,
                    );
                }),
            };
            t.row(vec![format!("i16 x{lanes}"), format!("{:.2}", g.gcups)]);
            json.insert(format!("width/i16x{lanes}"), g.gcups);
        }
        println!("{}", t.render());
    }

    if which == "stripes" || which == "all" {
        println!("== Ablation: GPU kernel structure (modeled GCUPS) ==");
        let mut t = Table::new(vec!["kernel", "GCUPS*"]);
        let small = genome_pairs(0.008, 31);
        let (_, gq, gs) = &small[0];
        let scheme = global(affine(simple(2, -1), -2, -1));
        for (name, phased, coalesced) in [
            ("phased + coalesced (AnySeq)", true, true),
            ("unphased + coalesced", false, true),
            ("phased + uncoalesced", true, false),
            ("unphased + uncoalesced (NVBio-like)", false, false),
        ] {
            let gpu = GpuAligner::new(Device::titan_v())
                .with_tile(256)
                .with_shape(KernelShape {
                    block_threads: 64,
                    phased,
                    coalesced,
                });
            let r = gpu.score(&scheme, gq, gs);
            t.row(vec![
                name.to_string(),
                format!("{:.1}", r.stats.gcups(&gpu.device)),
            ]);
            json.insert(format!("stripes/{name}"), r.stats.gcups(&gpu.device));
        }
        println!("{}", t.render());
    }

    dump_json("ablation", &json);
}
