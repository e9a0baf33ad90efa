//! Portable lane arrays.
//!
//! The paper vectorizes with AnyDSL's `vectorize` generator, which "does
//! not resort to architecture-specific intrinsics" and supports several
//! SIMD instruction sets. The Rust analog: a fixed-size lane array whose
//! operations are written as plain per-lane loops marked
//! `#[inline(always)]`. The loops carry no ISA of their own: they take
//! the target features of the function they end up inlined into, so the
//! same `I16s<16>` addition is two SSE2 `paddsw` in a baseline x86-64
//! build and one AVX2 `vpaddsw` inside the run-time tier trampoline
//! ([`mod@crate::isa`]) — one portable relaxation, specialised per
//! instruction set by the compiler, with 16-bit scores per lane.

#![allow(clippy::needless_range_loop)] // lane loops mirror the vector ISA

/// A SIMD block of `L` signed 16-bit scores.
///
/// Aligned to the widest tier's register (32 bytes, AVX2), which at the
/// engine's `L = 16` is also the block's size: border stripes are dense
/// arrays of whole registers. (A 64-byte alignment pads every
/// `I16s<16>` to a cache line: the stripes a 150 × 150 lane group
/// sweeps per row grow from 9.6 KB to 19 KB and its four borders from
/// 19 KB to 38 KB of a 32–48 KB L1 — the bare kernel measures 3 %
/// slower that way, before anything else competes for the cache.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(32))]
pub struct I16s<const L: usize>(pub [i16; L]);

impl<const L: usize> I16s<L> {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: i16) -> I16s<L> {
        I16s([v; L])
    }

    /// Lane-wise saturating addition (the sentinel stays pinned near the
    /// bottom of the range instead of wrapping — paper §IV-A's over/
    /// underflow discussion).
    #[inline(always)]
    pub fn sat_add(self, rhs: I16s<L>) -> I16s<L> {
        let mut out = [0i16; L];
        for l in 0..L {
            out[l] = self.0[l].saturating_add(rhs.0[l]);
        }
        I16s(out)
    }

    /// Saturating addition of a scalar to every lane.
    #[inline(always)]
    pub fn sat_adds(self, rhs: i16) -> I16s<L> {
        let mut out = [0i16; L];
        for l in 0..L {
            out[l] = self.0[l].saturating_add(rhs);
        }
        I16s(out)
    }

    /// Lane-wise maximum.
    #[inline(always)]
    pub fn max(self, rhs: I16s<L>) -> I16s<L> {
        let mut out = [0i16; L];
        for l in 0..L {
            out[l] = if self.0[l] >= rhs.0[l] {
                self.0[l]
            } else {
                rhs.0[l]
            };
        }
        I16s(out)
    }

    /// Lane-wise maximum against a scalar.
    #[inline(always)]
    pub fn maxs(self, rhs: i16) -> I16s<L> {
        let mut out = [0i16; L];
        for l in 0..L {
            out[l] = if self.0[l] >= rhs { self.0[l] } else { rhs };
        }
        I16s(out)
    }

    /// Shifts every value one lane upward (lane `l` → `l+1`), dropping
    /// the last lane and inserting `fill` at lane 0 — the striped-layout
    /// wrap step of Farrar's method (`vslli` in SSE terms).
    #[inline(always)]
    pub fn shift_lanes_up(self, fill: i16) -> I16s<L> {
        let mut out = [fill; L];
        out[1..L].copy_from_slice(&self.0[..(L - 1)]);
        I16s(out)
    }

    /// Whether any lane of `self` is strictly greater than the matching
    /// lane of `rhs` (`movemask` + test in SSE terms).
    #[inline(always)]
    pub fn any_gt(self, rhs: I16s<L>) -> bool {
        let mut any = false;
        for l in 0..L {
            any |= self.0[l] > rhs.0[l];
        }
        any
    }

    /// Bit mask of lanes where `self == rhs` (bit `l` set for lane `l`;
    /// `vpcmpeqw` + `movemask` in SSE terms). `L` must be ≤ 32.
    #[inline(always)]
    pub fn eq_mask(self, rhs: I16s<L>) -> u32 {
        let mut mask = 0u32;
        for l in 0..L {
            mask |= ((self.0[l] == rhs.0[l]) as u32) << l;
        }
        mask
    }

    /// Bit mask of lanes where `self >= rhs`.
    #[inline(always)]
    pub fn ge_mask(self, rhs: I16s<L>) -> u32 {
        let mut mask = 0u32;
        for l in 0..L {
            mask |= ((self.0[l] >= rhs.0[l]) as u32) << l;
        }
        mask
    }

    /// Bit mask of lanes where `self > rhs` (strictly).
    #[inline(always)]
    pub fn gt_mask(self, rhs: I16s<L>) -> u32 {
        let mut mask = 0u32;
        for l in 0..L {
            mask |= ((self.0[l] > rhs.0[l]) as u32) << l;
        }
        mask
    }

    /// Per-lane select by bit mask: lane `l` takes `self` when bit `l`
    /// of `mask` is set, `rhs` otherwise (`vpblendvb` in SSE terms).
    #[inline(always)]
    pub fn blend(self, mask: u32, rhs: I16s<L>) -> I16s<L> {
        let mut out = [0i16; L];
        for l in 0..L {
            out[l] = if mask & (1 << l) != 0 {
                self.0[l]
            } else {
                rhs.0[l]
            };
        }
        I16s(out)
    }

    /// Horizontal maximum over all lanes.
    #[inline]
    pub fn hmax(self) -> i16 {
        let mut m = self.0[0];
        for l in 1..L {
            if self.0[l] > m {
                m = self.0[l];
            }
        }
        m
    }
}

/// Branchless per-lane select: `mask[l] ? a : b` with a byte-equality
/// mask (used for match/mismatch scoring).
#[inline(always)]
pub fn select_eq<const L: usize>(x: &[u8; L], y: &[u8; L], a: i16, b: i16) -> I16s<L> {
    let mut out = [0i16; L];
    for l in 0..L {
        out[l] = if x[l] == y[l] { a } else { b };
    }
    I16s(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_max() {
        let a = I16s::<8>::splat(3);
        let b = I16s::<8>([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.max(b).0, [3, 3, 3, 4, 5, 6, 7, 8]);
        assert_eq!(b.maxs(4).0, [4, 4, 4, 4, 5, 6, 7, 8]);
        assert_eq!(b.hmax(), 8);
    }

    #[test]
    fn saturating_arithmetic_pins_sentinel() {
        let sent = I16s::<4>::splat(i16::MIN + 100);
        let dropped = sent.sat_adds(-500);
        assert!(dropped.0.iter().all(|&v| v == i16::MIN));
        let raised = dropped.sat_adds(5);
        assert!(raised.0.iter().all(|&v| v == i16::MIN + 5));
    }

    #[test]
    fn select_eq_masks() {
        let x = [1u8, 2, 3, 4];
        let y = [1u8, 9, 3, 9];
        assert_eq!(select_eq(&x, &y, 2, -1).0, [2, -1, 2, -1]);
    }

    #[test]
    fn lane_masks() {
        let a = I16s::<4>([1, 5, 3, -2]);
        let b = I16s::<4>([1, 4, 3, 7]);
        assert_eq!(a.eq_mask(b), 0b0101);
        assert_eq!(a.ge_mask(b), 0b0111);
        assert_eq!(a.ge_mask(a), 0b1111);
        assert_eq!(a.gt_mask(b), 0b0010);
        assert_eq!(a.gt_mask(a), 0);
    }

    #[test]
    fn blend_selects_per_lane() {
        let a = I16s::<4>([1, 2, 3, 4]);
        let b = I16s::<4>([-1, -2, -3, -4]);
        assert_eq!(a.blend(0b0101, b).0, [1, -2, 3, -4]);
        assert_eq!(a.blend(0, b), b);
        assert_eq!(a.blend(0b1111, b), a);
    }

    #[test]
    fn wide_lane_counts_work() {
        let a = I16s::<32>::splat(1).sat_adds(2);
        assert!(a.0.iter().all(|&v| v == 3));
        let b = I16s::<16>::splat(-5).max(I16s::<16>::splat(-7));
        assert!(b.0.iter().all(|&v| v == -5));
    }
}
