//! Score arithmetic and the −∞ sentinel.
//!
//! Scores are `i32` (the paper's GPU path also uses 32-bit arithmetic;
//! the CPU SIMD path narrows to 16-bit *differential* scores inside a
//! block — that conversion lives in `anyseq-simd`). "−∞" is modelled as a
//! large negative sentinel with enough headroom that the bounded number of
//! additions performed before the next `max` against a finite value cannot
//! underflow `i32`.

/// Alignment score type.
pub type Score = i32;

/// The −∞ sentinel.
///
/// Contract: engines may add at most `O(n + m)` per-step penalties to a
/// sentinel-valued cell before it is rescued by a `max` against a finite
/// path, so `(n + m) · max|penalty|` must stay below `i32::MAX / 2 − |NEG_INF|`.
/// For genome-scale inputs (≤ 2³⁰ total length) and single-digit penalties
/// this leaves orders of magnitude of headroom.
pub const NEG_INF: Score = i32::MIN / 4;

/// [`NEG_INF`]'s contract as a number: `(n + m) · max|penalty|` must
/// stay below this, `i32::MAX / 2 − |NEG_INF|` = 2²⁹ − 1. In `i64`, so
/// the product a caller checks against it cannot wrap either.
pub const SCORE_ENVELOPE: i64 = i32::MAX as i64 / 2 + NEG_INF as i64;

/// Returns the larger of two scores (branchless-friendly helper).
#[inline(always)]
pub fn max2(a: Score, b: Score) -> Score {
    if a >= b {
        a
    } else {
        b
    }
}

/// Whether a score is "effectively −∞" (at or below half the sentinel).
///
/// Useful in assertions: legitimate scores never drift into this band.
#[inline]
pub fn is_neg_inf(v: Score) -> bool {
    v <= NEG_INF / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_has_headroom() {
        // The contract: (n + m) · max|penalty| below |i32::MIN| − |NEG_INF|.
        // A 128 Mbp-scale chain of penalty-4 extensions must not wrap.
        let drifted = NEG_INF as i64 - (1i64 << 27) * 4;
        assert!(drifted > i32::MIN as i64);
        assert_eq!(SCORE_ENVELOPE, (1 << 29) - 1);
    }

    #[test]
    fn max2_behaves() {
        assert_eq!(max2(3, 5), 5);
        assert_eq!(max2(5, 3), 5);
        assert_eq!(max2(-1, -1), -1);
        assert_eq!(max2(NEG_INF, 0), 0);
    }

    #[test]
    fn neg_inf_detection() {
        assert!(is_neg_inf(NEG_INF));
        assert!(is_neg_inf(NEG_INF + 1_000_000));
        assert!(!is_neg_inf(0));
        assert!(!is_neg_inf(-1_000_000));
    }
}
