//! # anyseq-simd — portable SIMD kernels with 16-bit differential scores
//!
//! Reproduces the paper's CPU vectorization (§IV-A) without
//! architecture-specific intrinsics: one portable relaxation over
//! lane arrays ([`lanes`], 16-bit lanes) that the compiler turns into
//! vector code. Which vector code is picked at run time, inside this
//! crate: the three lane kernels run through a
//! `#[target_feature(enable = "avx2")]` trampoline when the CPU reports
//! AVX2 and un-tiered otherwise ([`mod@isa`]); [`isa()`] says which.
//! No build flag is involved. Three execution shapes:
//!
//! * [`LaneTiles`] — long-genome intra-sequence: the lane kernel of
//!   `anyseq_wavefront`'s tiled pass. Vector lanes are filled with the
//!   equal-shape ready tiles popped from the dynamic wavefront queue
//!   (paper Fig. 3); partnerless tiles, position-tracking kinds and
//!   schemes past the 16-bit budget fall to the scalar tile kernel
//!   ([`simd_tiled_score_pass`] is the global score pass on it),
//! * [`score_batch_simd`] — short-read inter-sequence: one whole
//!   alignment per lane, bucketed by matrix dimensions (a bucket's
//!   remainder rides a *partial* lane group),
//! * [`align_batch_simd`] — inter-sequence with full tracebacks: a
//!   banded DP records 2 packed direction bits per lane per cell
//!   (plus affine extend bits), the band widens adaptively until each
//!   lane's corner matches its exact score, and lanes decode into
//!   per-pair CIGARs ([`traceback`]).
//!
//! Scores inside a block are 16-bit *differences to the block's incoming
//! corner* (paper: "only differences to the global score are relevant"),
//! with the block extent bounded by [`kernel::max_block_extent`].

// The AVX2 trampoline (`isa::Tier::run`) is the crate's one `unsafe`
// block; every other site fails the build.
#![deny(unsafe_code)]

pub mod batch;
pub mod isa;
pub mod kernel;
pub mod lanes;
pub mod tiled;
pub mod traceback;

pub use batch::{score_batch_simd, score_batch_simd_stats, score_batch_simd_xdrop, LaneGroups};
pub use isa::isa;
pub use kernel::{block_kernel_kind, max_block_extent, BlockBorders, KernelOpt, SimdSubst, SENT16};
pub use lanes::I16s;
pub use tiled::{simd_tiled_score_pass, LaneTiles};
pub use traceback::{align_batch_simd, BandCfg, TraceStats};
