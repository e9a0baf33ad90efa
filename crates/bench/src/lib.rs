//! # anyseq-bench — benchmark harness regenerating the paper's evaluation
//!
//! One binary per table/figure:
//! `table1`, `fig5`, `fig6`, `table2`, `ablation`, `loc_breakdown`.
//! This library provides the shared pieces: Table-I workload definitions,
//! GCUPS measurement, and report formatting.

pub mod gcups;
pub mod report;
pub mod workloads;

pub use gcups::{measure_gcups, median, Measurement};
pub use workloads::{genome_pairs, read_batch, table1_specs, GenomeSpec};
