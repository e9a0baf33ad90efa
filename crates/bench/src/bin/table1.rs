//! Regenerates paper **Table I**: the long genomic sequences used for
//! benchmarking — here synthesized at a configurable scale with matching
//! labels, lengths and GC composition.
//!
//! Usage: `table1 [--scale F] [--seed N]`

use anyseq_bench::report::Table;
use anyseq_bench::workloads::{synthesize, table1_specs};

fn main() {
    let mut scale = 1.0 / 32.0;
    let mut seed = 42u64;
    let args: Vec<String> = std::env::args().collect();
    let mut k = 1;
    while k < args.len() {
        match args[k].as_str() {
            "--scale" => {
                scale = args[k + 1].parse().expect("--scale takes a float");
                k += 2;
            }
            "--seed" => {
                seed = args[k + 1].parse().expect("--seed takes an integer");
                k += 2;
            }
            other => {
                eprintln!("unknown flag {other}; usage: table1 [--scale F] [--seed N]");
                std::process::exit(2);
            }
        }
    }

    println!("Table I: Long genomic sequences used for benchmarking");
    println!("(synthetic substitutes at scale {scale}; see the anyseq-seq crate docs)\n");
    let mut table = Table::new(vec![
        "Accession No.",
        "Length (paper)",
        "Length (synth)",
        "GC (synth)",
        "Genome Definition",
    ]);
    for spec in table1_specs() {
        let g = synthesize(&spec, scale, seed);
        table.row(vec![
            spec.accession.to_string(),
            format!("{}", spec.length),
            format!("{}", g.len()),
            format!("{:.3}", g.gc_content()),
            spec.definition.to_string(),
        ]);
    }
    println!("{}", table.render());
}
