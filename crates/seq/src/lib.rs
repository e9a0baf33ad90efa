//! Sequence substrate for the `anyseq` workspace.
//!
//! This crate provides everything the alignment engines need to obtain
//! sequences: a compact DNA encoding ([`Base`], [`Seq`]), FASTA/FASTQ I/O
//! ([`fasta`]), and the synthetic workload generators that substitute for
//! the paper's proprietary inputs (real genome assemblies and Mason-simulated
//! Illumina reads): [`genome::GenomeSim`] and [`readsim::ReadSim`].
//!
//! The alignment cost of the dynamic-programming algorithms in
//! `anyseq-core` is *content independent* (every cell of the `n × m` matrix
//! is relaxed regardless of the characters), so seeded synthetic sequences
//! with realistic length/composition reproduce the paper's performance
//! behaviour faithfully.

pub mod alphabet;
pub mod fasta;
pub mod genome;
pub mod readsim;
pub mod seq;
pub mod store;
#[doc(hidden)]
pub mod testsupport;

pub use alphabet::Base;
pub use seq::{Seq, SeqError};
pub use store::{content_hash, BatchView, PairRef, SeqId, SeqStore};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::alphabet::Base;
    pub use crate::genome::GenomeSim;
    pub use crate::readsim::{ReadPair, ReadSim, ReadSimProfile};
    pub use crate::seq::{Seq, SeqError};
    pub use crate::store::{BatchView, PairRef, SeqId, SeqStore};
}
