//! Run-time ISA tier selection for the lane kernels.
//!
//! The lane ops in [`crate::lanes`] are portable per-lane loops; which
//! instructions they become is decided by the target features of the
//! function they are inlined into. A default build targets baseline
//! x86-64 (SSE2: two 128-bit ops per `I16s<16>`), so the crate carries
//! one more copy of each kernel compiled for AVX2 and picks between the
//! two when a kernel is entered — no build flag, no caller-visible
//! parameter.
//!
//! The mechanism is one generic trampoline: `Tier::run` hands a
//! closure to a `#[target_feature(enable = "avx2")]` function. Every
//! kernel body and every lane op under it is `#[inline(always)]`, so the
//! whole relaxation is inlined into the trampoline's instantiation and
//! code-generated with 256-bit registers (one `vpaddsw`/`vpmaxsw` per
//! `I16s<16>`). On hosts without AVX2, and on every other architecture,
//! the same body runs un-tiered.

/// The code tier a lane kernel runs on. The AVX2 tier can only be
/// obtained from [`Tier::detect`] (or [`Tier::available`]), i.e. after
/// the CPU reported the feature — which is what makes [`Tier::run`]
/// safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tier(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Tier {
    /// The build's own target features: always executable.
    pub(crate) const BASELINE: Tier = Tier(Isa::Baseline);

    /// The best tier this host executes. `is_x86_feature_detected!`
    /// caches its CPUID probe in a process-wide atomic, so this is one
    /// relaxed load per kernel entry.
    #[inline]
    pub(crate) fn detect() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier(Isa::Avx2);
        }
        Tier::BASELINE
    }

    /// Every tier this host executes, baseline first (the seam the
    /// tier-identity tests iterate over).
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Tier> {
        let mut tiers = vec![Tier::BASELINE];
        if Tier::detect() != Tier::BASELINE {
            tiers.push(Tier::detect());
        }
        tiers
    }

    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Isa::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
        }
    }

    /// Runs `body` compiled for this tier. Pass an
    /// `#[inline(always)]` closure around an `#[inline(always)]` kernel
    /// body: code that is not inlined into the trampoline keeps the
    /// build's baseline features.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub(crate) fn run<R>(self, body: impl FnOnce() -> R) -> R {
        match self.0 {
            Isa::Baseline => body(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx2` is private to this module and only
            // constructed by `detect` after `is_x86_feature_detected!`
            // confirmed the CPU executes AVX2, which is the trampoline's
            // only requirement.
            Isa::Avx2 => unsafe { avx2(body) },
        }
    }
}

/// The AVX2 trampoline: everything inlined into an instantiation of
/// this function is code-generated with AVX2 enabled. Calling it from
/// code without AVX2 is `unsafe`: the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// The tier the lane kernels run on in this process: `"avx2"` or
/// `"baseline"`.
pub fn isa() -> &'static str {
    Tier::detect().name()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_tier_is_available_and_named() {
        let tiers = Tier::available();
        assert_eq!(tiers[0], Tier::BASELINE);
        assert_eq!(*tiers.last().unwrap(), Tier::detect());
        assert_eq!(isa(), Tier::detect().name());
        assert!(matches!(isa(), "avx2" | "baseline"));
        for tier in tiers {
            assert_eq!(tier.run(|| 6 * 7), 42);
        }
    }
}
