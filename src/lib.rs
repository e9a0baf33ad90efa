//! # anyseq — high-performance pairwise sequence alignment via
//! compile-time specialization
//!
//! Facade crate re-exporting the whole workspace: a Rust reproduction of
//! *AnySeq: A High Performance Sequence Alignment Library based on
//! Partial Evaluation* (Müller et al., IPDPS 2020). See `README.md` for a
//! tour and `docs/ARCHITECTURE.md` for the system inventory.
//!
//! ```
//! use anyseq::prelude::*;
//!
//! let q = Seq::from_ascii(b"ACGTACGT").unwrap();
//! let s = Seq::from_ascii(b"ACGTTACGT").unwrap();
//! let scheme = global(linear(simple(2, -1), -1));
//! assert_eq!(scheme.score(&q, &s), 15);
//! ```

pub use anyseq_baselines as baselines;
pub use anyseq_core as core;
pub use anyseq_engine as engine;
pub use anyseq_fpga_sim as fpga;
pub use anyseq_gpu_sim as gpu;
pub use anyseq_obs as obs;
pub use anyseq_seq as seq;
pub use anyseq_serve as serve;
pub use anyseq_simd as simd;
pub use anyseq_wavefront as wavefront;

/// One-stop imports for applications.
pub mod prelude {
    pub use anyseq_core::prelude::*;
    pub use anyseq_engine::prelude::*;
    pub use anyseq_seq::prelude::*;
    pub use anyseq_wavefront::{ParallelCfg, ParallelExt};
}
