//! Benchmark workloads: the Table-I genome set (synthesized, scaled) and
//! the Mason-like short-read batches.

use anyseq_seq::genome::GenomeSim;
use anyseq_seq::readsim::{ReadSim, ReadSimProfile};
use anyseq_seq::Seq;

/// One Table-I entry.
#[derive(Debug, Clone)]
pub struct GenomeSpec {
    /// Accession number as listed in the paper.
    pub accession: &'static str,
    /// Full sequence length (paper scale).
    pub length: usize,
    /// Genome definition line.
    pub definition: &'static str,
    /// GC fraction used by the simulator (approximate species values).
    pub gc: f64,
}

/// The six long genomic sequences of paper Table I.
pub fn table1_specs() -> Vec<GenomeSpec> {
    vec![
        GenomeSpec {
            accession: "NC_000962.3",
            length: 4_411_532,
            definition: "Mycobacterium tuberculosis H37Rv",
            gc: 0.656,
        },
        GenomeSpec {
            accession: "NC_000913.3",
            length: 4_641_652,
            definition: "Escherichia coli K12 MG1655",
            gc: 0.508,
        },
        GenomeSpec {
            accession: "NT_033779.4",
            length: 23_011_544,
            definition: "Drosophila melanogaster chr. 2L",
            gc: 0.42,
        },
        GenomeSpec {
            accession: "BA000046.3",
            length: 32_799_110,
            definition: "Pan troglodytes DNA chr. 22",
            gc: 0.41,
        },
        GenomeSpec {
            accession: "NC_019481.1",
            length: 42_034_648,
            definition: "Ovis aries breed Texel chr. 24",
            gc: 0.42,
        },
        GenomeSpec {
            accession: "NC_019478.1",
            length: 50_073_674,
            definition: "Ovis aries breed Texel chr. 21",
            gc: 0.42,
        },
    ]
}

/// Synthesizes one Table-I genome at `scale` (1.0 = paper length).
pub fn synthesize(spec: &GenomeSpec, scale: f64, seed: u64) -> Seq {
    let len = ((spec.length as f64 * scale).round() as usize).max(64);
    GenomeSim::new(seed ^ spec.length as u64)
        .with_gc(spec.gc)
        .generate(len)
}

/// The paper's three long-genome pairs (§V: "we aligned three pairs of
/// long genomic sequences of roughly similar length"): (Mtb, Ecoli),
/// (Dmel 2L, Ptr 22), (Oar 24, Oar 21) — consecutive Table-I rows of
/// similar size.
pub fn genome_pairs(scale: f64, seed: u64) -> Vec<(String, Seq, Seq)> {
    let specs = table1_specs();
    [(0usize, 1usize), (2, 3), (4, 5)]
        .iter()
        .map(|&(a, b)| {
            (
                format!("{}/{}", specs[a].accession, specs[b].accession),
                synthesize(&specs[a], scale, seed),
                synthesize(&specs[b], scale, seed + 1),
            )
        })
        .collect()
}

/// Mason-like Illumina read-pair batch (paper: 12.5 M pairs of 150 bp
/// reads simulated from GRCh38 chromosome 10; here from a synthetic
/// chromosome-scale reference).
pub fn read_batch(pairs: usize, seed: u64) -> Vec<(Seq, Seq)> {
    let reference = GenomeSim::new(seed).generate(2_000_000);
    let mut sim = ReadSim::new(ReadSimProfile::default(), seed ^ 0x5eed);
    sim.simulate_pairs(&reference, pairs)
        .into_iter()
        .map(|p| (p.a, p.b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_rows() {
        let specs = table1_specs();
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].length, 4_411_532);
        assert_eq!(specs[5].accession, "NC_019478.1");
    }

    #[test]
    fn synthesis_scales() {
        let specs = table1_specs();
        let g = synthesize(&specs[0], 0.001, 1);
        assert_eq!(g.len(), 4412);
        // M. tuberculosis GC should be reflected.
        assert!((g.gc_content() - 0.656).abs() < 0.05);
    }

    #[test]
    fn pairs_are_three_similar_sized() {
        let pairs = genome_pairs(0.0005, 3);
        assert_eq!(pairs.len(), 3);
        for (_, a, b) in &pairs {
            let ratio = a.len() as f64 / b.len() as f64;
            assert!((0.5..=2.0).contains(&ratio));
        }
    }

    #[test]
    fn read_batch_shape() {
        let batch = read_batch(40, 9);
        assert_eq!(batch.len(), 40);
        assert!(batch.iter().all(|(a, b)| a.len() > 100 && b.len() > 100));
    }
}
