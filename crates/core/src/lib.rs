//! # anyseq-core — the generic alignment engine
//!
//! Rust reproduction of the algorithmic core of *AnySeq: A High
//! Performance Sequence Alignment Library based on Partial Evaluation*
//! (Müller et al., IPDPS 2020). The paper specializes one generic
//! dynamic-programming codebase into optimized variants via AnyDSL's
//! partial evaluator; this crate obtains the same guarantee from Rust's
//! monomorphization: alignment kind, gap model, substitution function and
//! per-cell observers are all *type* parameters, so each used combination
//! compiles into a dedicated kernel with dead branches removed.
//!
//! Layering (bottom-up):
//!
//! * [`relax`] — the single shared cell update (Equations (1), (4), (5)),
//! * [`tile`] — the tile kernel + border protocol every backend reuses,
//! * [`pass`] — linear-space score-only passes from a rectangle's seed
//!   stripes, and the pass that keeps its tile lines,
//! * [`fullmatrix`] — the traceback walk, one state machine for every
//!   kind: block by block through kept tile lines (nested in blocks
//!   too large for the base case), or over one predecessor matrix,
//! * [`traceback`] — the pass-provider seam, the line spacing and the
//!   alignment entry points,
//! * [`scheme`] — the composable user-facing API,
//! * [`oracle`] — an independent naive implementation for cross-checking.
//!
//! ```
//! use anyseq_core::prelude::*;
//! use anyseq_seq::Seq;
//!
//! let q = Seq::from_ascii(b"ACGTACGT").unwrap();
//! let s = Seq::from_ascii(b"ACGTTACGT").unwrap();
//! let scheme = global(linear(simple(2, -1), -1));
//! assert_eq!(scheme.score(&q, &s), 15);
//! let aln = scheme.align(&q, &s);
//! assert_eq!(aln.score, 15);
//! assert_eq!(aln.cigar(), "3=1D5="); // one of the equally optimal placements
//! ```

pub mod alignment;
pub mod fullmatrix;
pub mod kind;
pub mod oracle;
pub mod pass;
pub mod relax;
pub mod scheme;
pub mod score;
pub mod scoring;
pub mod tile;
pub mod traceback;

pub use alignment::{AlignOp, Alignment, AlignmentError};
pub use kind::{AlignKind, Extension, FreeEnd, Global, Local, OptRegion, SemiGlobal};
pub use relax::BestCell;
pub use scheme::Scheme;
pub use score::{Score, NEG_INF, SCORE_ENVELOPE};
pub use scoring::{AffineGap, GapModel, LinearGap, MatrixSubst, Scoring, SimpleSubst, SubstScore};
pub use traceback::AlignConfig;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::alignment::{AlignOp, Alignment};
    pub use crate::kind::{AlignKind, FreeEnd, Global, Local, SemiGlobal};
    pub use crate::scheme::{free_end, global, local, semiglobal, Scheme};
    pub use crate::score::{Score, NEG_INF};
    pub use crate::scoring::{
        affine, linear, simple, AffineGap, GapModel, LinearGap, MatrixSubst, Scoring, SimpleSubst,
        SubstScore,
    };
    pub use crate::traceback::AlignConfig;
}
