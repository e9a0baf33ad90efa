//! Alignment kinds: global, local, semi-global (paper §III-A).
//!
//! The kind decides three things (all compile-time constants here, so the
//! monomorphized engines contain no kind dispatch):
//!
//! 1. ν in Equation (1): `0` for local alignments (scores floored at zero),
//!    conceptually −∞ otherwise (the candidate is simply absent),
//! 2. the initialization of row 0 / column 0 of `H`,
//! 3. where the optimum is read: cell `(n, m)` (global), the last row or
//!    column (semi-global), or anywhere (local).

use crate::score::Score;
use crate::scoring::GapModel;

/// Where the optimal score of an alignment kind lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptRegion {
    /// Only cell `(n, m)` — global alignment.
    Corner,
    /// Last row or last column — semi-global alignment.
    Border,
    /// Any cell — local alignment.
    Anywhere,
}

/// Type-level alignment kind.
pub trait AlignKind: Copy + Send + Sync + 'static {
    /// ν = 0 active: cell scores are floored at zero (local alignment).
    const NU_ZERO: bool;
    /// Leading gaps are free: row 0 and column 0 of `H` initialize to 0.
    const FREE_BEGIN: bool;
    /// Where the optimum is located.
    const OPT: OptRegion;
    /// Human-readable name for diagnostics.
    const NAME: &'static str;

    /// `H(0, j)` (or symmetrically `H(i, 0)`) for offset `k ≥ 0`.
    #[inline(always)]
    fn h_init<G: GapModel>(gap: &G, k: usize) -> Score {
        if Self::FREE_BEGIN {
            0
        } else {
            gap.gap(k)
        }
    }
}

/// Global (Needleman–Wunsch) alignment: both sequences end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Global;

impl AlignKind for Global {
    const NU_ZERO: bool = false;
    const FREE_BEGIN: bool = false;
    const OPT: OptRegion = OptRegion::Corner;
    const NAME: &'static str = "global";
}

/// Local (Smith–Waterman) alignment: best-scoring subsequence pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Local;

impl AlignKind for Local {
    const NU_ZERO: bool = true;
    const FREE_BEGIN: bool = true;
    const OPT: OptRegion = OptRegion::Anywhere;
    const NAME: &'static str = "local";
}

/// Semi-global alignment: gaps at the beginning and end are free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SemiGlobal;

impl AlignKind for SemiGlobal {
    const NU_ZERO: bool = false;
    const FREE_BEGIN: bool = true;
    const OPT: OptRegion = OptRegion::Border;
    const NAME: &'static str = "semi-global";
}

/// Free-end alignment: the start is anchored at the origin, gaps at the
/// end are free (the optimum lies on the last row or column).
///
/// This "extension" kind is what read extension uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FreeEnd;

impl AlignKind for FreeEnd {
    const NU_ZERO: bool = false;
    const FREE_BEGIN: bool = false;
    const OPT: OptRegion = OptRegion::Border;
    const NAME: &'static str = "free-end";
}

/// Extension alignment: the start is anchored at the origin, the end is
/// free *anywhere* (best prefix-pair alignment, no score floor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Extension;

impl AlignKind for Extension {
    const NU_ZERO: bool = false;
    const FREE_BEGIN: bool = false;
    const OPT: OptRegion = OptRegion::Anywhere;
    const NAME: &'static str = "extension";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::{AffineGap, LinearGap};

    #[test]
    fn global_inits_with_gap_costs() {
        let g = LinearGap { gap: -2 };
        assert_eq!(Global::h_init(&g, 0), 0);
        assert_eq!(Global::h_init(&g, 3), -6);
        let a = AffineGap {
            open: -2,
            extend: -1,
        };
        assert_eq!(Global::h_init(&a, 0), 0);
        assert_eq!(Global::h_init(&a, 3), -5);
    }

    #[test]
    fn free_begin_kinds_init_zero() {
        let a = AffineGap {
            open: -2,
            extend: -1,
        };
        for k in 0..5 {
            assert_eq!(Local::h_init(&a, k), 0);
            assert_eq!(SemiGlobal::h_init(&a, k), 0);
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn kind_constants() {
        assert!(Local::NU_ZERO && Local::FREE_BEGIN);
        assert!(!Global::NU_ZERO && !Global::FREE_BEGIN);
        assert!(!SemiGlobal::NU_ZERO && SemiGlobal::FREE_BEGIN);
        assert_eq!(Global::OPT, OptRegion::Corner);
        assert_eq!(SemiGlobal::OPT, OptRegion::Border);
        assert_eq!(Local::OPT, OptRegion::Anywhere);
    }
}
