//! Regenerates paper **Figure 6**: CPU thread scalability of the dynamic
//! wavefront vs the static (barrier-per-diagonal) wavefront for one long
//! DNA pair.
//!
//! The paper reports the dynamic approach reaching 75 % / 65 % parallel
//! efficiency at 16 / 32 threads while the static one collapses to
//! 15 % / 8 %. Both schedules here drive the identical scalar tile
//! kernel, isolating the scheduling effect.
//!
//! Usage: `fig6 [--scale F] [--threads 1,2,4,...] [--tile N] [--repeats N]`

use anyseq_bench::gcups::measure_gcups;
use anyseq_bench::report::{dump_json, Table};
use anyseq_bench::workloads::genome_pairs;
use anyseq_core::kind::Global;
use anyseq_core::prelude::*;
use anyseq_wavefront::pass::{tiled_score_pass, ParallelCfg};
use std::collections::BTreeMap;

fn main() {
    let mut scale = 0.004;
    let mut threads: Vec<usize> = vec![1, 2, 4, 8, 16, 24];
    let mut tile = 256usize;
    let mut repeats = 3usize;
    let args: Vec<String> = std::env::args().collect();
    let mut k = 1;
    while k < args.len() {
        match args[k].as_str() {
            "--scale" => {
                scale = args[k + 1].parse().unwrap();
                k += 2;
            }
            "--tile" => {
                tile = args[k + 1].parse().unwrap();
                k += 2;
            }
            "--repeats" => {
                repeats = args[k + 1].parse().unwrap();
                k += 2;
            }
            "--threads" => {
                threads = args[k + 1].split(',').map(|t| t.parse().unwrap()).collect();
                k += 2;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let pairs = genome_pairs(scale, 7);
    let (name, q, s) = &pairs[0];
    let cells = (q.len() * s.len()) as u64;
    let gap = LinearGap { gap: -1 };
    let subst = simple(2, -1);
    println!(
        "Figure 6: thread scalability, dynamic vs static wavefront\n\
         pair {name} ({} x {} bp, scale {scale}, tile {tile})\n",
        q.len(),
        s.len()
    );

    let mut table = Table::new(vec![
        "threads",
        "dynamic GCUPS",
        "static GCUPS",
        "dyn eff %",
        "stat eff %",
    ]);
    let mut json = BTreeMap::new();
    let mut base_dyn = 0.0;
    let mut base_stat = 0.0;
    for &t in &threads {
        let mk = |stat: bool| ParallelCfg {
            static_schedule: stat,
            ..ParallelCfg::threads(t).with_tile(tile)
        };
        let dynm = measure_gcups(cells, repeats, || {
            std::hint::black_box(
                tiled_score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), &mk(false))
                    .score,
            );
        });
        let statm = measure_gcups(cells, repeats, || {
            std::hint::black_box(
                tiled_score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes(), &mk(true))
                    .score,
            );
        });
        if t == threads[0] {
            base_dyn = dynm.gcups / t as f64;
            base_stat = statm.gcups / t as f64;
        }
        table.row(vec![
            format!("{t}"),
            format!("{:.2}", dynm.gcups),
            format!("{:.2}", statm.gcups),
            format!("{:.0}", 100.0 * dynm.gcups / (base_dyn * t as f64)),
            format!("{:.0}", 100.0 * statm.gcups / (base_stat * t as f64)),
        ]);
        json.insert(format!("dynamic/{t}"), dynm.gcups);
        json.insert(format!("static/{t}"), statm.gcups);
    }
    println!("{}", table.render());
    dump_json("fig6", &json);
    println!("(paper: dynamic 75%/65% efficiency at 16/32 threads, static 15%/8%)");
}
