//! Runtime scheme description.
//!
//! The core library expresses alignment behaviour as *types*
//! (`Scheme<K, G, S>`), which is what makes every combination compile
//! into a dedicated kernel. A batch engine, however, must be chosen at
//! *runtime* (CLI flags, service requests), so this module provides the
//! value-level mirror [`SchemeSpec`] plus the
//! [`with_scheme!`](crate::with_scheme) macro that lowers a spec onto
//! the monomorphized kernels — the runtime↔compile-time bridge every
//! backend adapter uses.

use anyseq_core::score::{Score, SCORE_ENVELOPE};
use anyseq_core::Alignment;
use anyseq_seq::Seq;

/// Value-level alignment kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KindSpec {
    /// Needleman–Wunsch: both sequences end to end.
    Global,
    /// Smith–Waterman: best-scoring subsequences.
    Local,
    /// Free end gaps on both sequence ends.
    SemiGlobal,
    /// Anchored start, free end.
    FreeEnd,
}

impl KindSpec {
    /// Stable lower-case name (CLI flag values).
    pub fn name(self) -> &'static str {
        match self {
            KindSpec::Global => "global",
            KindSpec::Local => "local",
            KindSpec::SemiGlobal => "semiglobal",
            KindSpec::FreeEnd => "free-end",
        }
    }

    /// Parses a CLI-style name.
    pub fn parse(text: &str) -> Option<KindSpec> {
        match text {
            "global" => Some(KindSpec::Global),
            "local" => Some(KindSpec::Local),
            "semiglobal" => Some(KindSpec::SemiGlobal),
            "free-end" | "freeend" | "free_end" => Some(KindSpec::FreeEnd),
            _ => None,
        }
    }
}

/// Value-level gap model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GapSpec {
    /// One price per gapped base.
    Linear {
        /// Per-base gap score (≤ 0).
        gap: i32,
    },
    /// Gotoh affine gaps.
    Affine {
        /// Gap-open score (≤ 0).
        open: i32,
        /// Gap-extension score (≤ 0).
        extend: i32,
    },
}

/// A fully value-level alignment scheme: what a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemeSpec {
    /// Alignment kind.
    pub kind: KindSpec,
    /// Match reward (simple substitution scoring).
    pub match_score: i32,
    /// Mismatch penalty (simple substitution scoring).
    pub mismatch: i32,
    /// Gap model.
    pub gap: GapSpec,
}

/// Why a [`SchemeSpec`] cannot be run: a gap score with the wrong sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecError {
    /// The offending parameter: `"gap"`, `"open"` or `"extend"` (also
    /// the CLI flag that sets it).
    pub field: &'static str,
    /// The value it was given.
    pub value: i32,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SpecError { field, value } = self;
        write!(f, "{field} score must be non-positive, got {value}")
    }
}

impl std::error::Error for SpecError {}

impl SchemeSpec {
    /// Checks what the kernels take for granted: gap scores are ≤ 0.
    /// Call it wherever a spec arrives from outside the program (wire,
    /// command line) — lowering an invalid spec through
    /// [`with_scheme!`](crate::with_scheme) trips the `assert!`s in
    /// `anyseq_core::scoring`, which stay as the inner invariant.
    pub fn validate(&self) -> Result<(), SpecError> {
        let non_positive = |field, value| {
            if value > 0 {
                Err(SpecError { field, value })
            } else {
                Ok(())
            }
        };
        match self.gap {
            GapSpec::Linear { gap } => non_positive("gap", gap),
            GapSpec::Affine { open, extend } => {
                non_positive("open", open).and(non_positive("extend", extend))
            }
        }
    }

    /// [`validate`](Self::validate), then the score envelope of
    /// [`NEG_INF`](anyseq_core::NEG_INF) for pairs whose `n + m` is at
    /// most `extent`: `extent · max|step|` must stay below
    /// [`SCORE_ENVELOPE`], or a score can wrap `i32` — silently in a
    /// release build. Batch entries check it once, for their longest
    /// pair.
    pub fn check(&self, extent: usize) -> Result<(), String> {
        self.validate().map_err(|e| e.to_string())?;
        let gap = match self.gap {
            GapSpec::Linear { gap } => i64::from(gap),
            GapSpec::Affine { open, extend } => i64::from(open) + i64::from(extend),
        };
        let [hit, miss] = [self.match_score, self.mismatch].map(|v| i64::from(v).abs());
        let step = hit.max(miss).max(gap.abs());
        if (extent as i64).saturating_mul(step) >= SCORE_ENVELOPE {
            return Err(format!(
                "scores out of range: {extent} steps of up to {step} exceed {SCORE_ENVELOPE}"
            ));
        }
        Ok(())
    }

    /// Global + linear gaps — the paper's §V default parameterization.
    pub fn global_linear(match_score: i32, mismatch: i32, gap: i32) -> SchemeSpec {
        SchemeSpec {
            kind: KindSpec::Global,
            match_score,
            mismatch,
            gap: GapSpec::Linear { gap },
        }
    }

    /// Global + affine gaps.
    pub fn global_affine(match_score: i32, mismatch: i32, open: i32, extend: i32) -> SchemeSpec {
        SchemeSpec {
            kind: KindSpec::Global,
            match_score,
            mismatch,
            gap: GapSpec::Affine { open, extend },
        }
    }

    /// Same spec with a different kind.
    pub fn with_kind(mut self, kind: KindSpec) -> SchemeSpec {
        self.kind = kind;
        self
    }

    /// Stable FNV-1a fingerprint of the whole scheme — the
    /// scheme-identity component of a result-cache key
    /// ([`crate::cache::CacheKey`]). Stable across runs and platforms
    /// (unlike `std::hash::DefaultHasher`), and injective over the
    /// spec's fields short of a 64-bit hash collision: every kind, gap
    /// model and score parameter perturbs it.
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(match self.kind {
            KindSpec::Global => 1,
            KindSpec::Local => 2,
            KindSpec::SemiGlobal => 3,
            KindSpec::FreeEnd => 4,
        });
        mix(self.match_score as u32 as u64);
        mix(self.mismatch as u32 as u64);
        match self.gap {
            GapSpec::Linear { gap } => {
                mix(1);
                mix(gap as u32 as u64);
            }
            GapSpec::Affine { open, extend } => {
                mix(2);
                mix(open as u32 as u64);
                mix(extend as u32 as u64);
            }
        }
        h
    }

    /// Reference scalar score for one pair (the oracle every backend
    /// must reproduce bit-exactly).
    pub fn score_scalar(&self, q: &Seq, s: &Seq) -> Score {
        crate::with_scheme!(self, |scheme, _K| { scheme.score(q, s) })
    }

    /// Reference scalar alignment for one pair.
    pub fn align_scalar(&self, q: &Seq, s: &Seq) -> Alignment {
        crate::with_scheme!(self, |scheme, _K| { scheme.align(q, s) })
    }
}

/// Lowers a [`SchemeSpec`] onto a concrete `Scheme<K, G, SimpleSubst>`.
///
/// `$body` is expanded once per kind × gap combination with `$scheme`
/// bound to the monomorphized scheme value and `$kind` aliased to the
/// kind type, so the body gets fully specialized kernels exactly like
/// statically typed callers do.
///
/// A backend that implements only some kinds names them and says what
/// happens for the rest:
/// `with_scheme!(spec, [Global, Local], |scheme, K| { .. }, else { .. })`.
/// Without a list all four kinds are lowered and no `else` is needed.
#[macro_export]
macro_rules! with_scheme {
    (@Global $($rest:tt)*) => {
        $crate::with_scheme!(@gap Global, global, $($rest)*)
    };
    (@Local $($rest:tt)*) => {
        $crate::with_scheme!(@gap Local, local, $($rest)*)
    };
    (@SemiGlobal $($rest:tt)*) => {
        $crate::with_scheme!(@gap SemiGlobal, semiglobal, $($rest)*)
    };
    (@FreeEnd $($rest:tt)*) => {
        $crate::with_scheme!(@gap FreeEnd, free_end, $($rest)*)
    };
    (@gap $K:ident, $ctor:ident, $s:ident, $subst:ident, $scheme:ident, $kind:ident, $body:block) => {
        match $s.gap {
            $crate::spec::GapSpec::Linear { gap } => {
                #[allow(non_camel_case_types, dead_code)]
                type $kind = ::anyseq_core::kind::$K;
                let $scheme =
                    ::anyseq_core::scheme::$ctor(::anyseq_core::scoring::linear($subst, gap));
                $body
            }
            $crate::spec::GapSpec::Affine { open, extend } => {
                #[allow(non_camel_case_types, dead_code)]
                type $kind = ::anyseq_core::kind::$K;
                let $scheme = ::anyseq_core::scheme::$ctor(::anyseq_core::scoring::affine(
                    $subst, open, extend,
                ));
                $body
            }
        }
    };
    ($spec:expr, |$scheme:ident, $kind:ident| $body:block) => {
        $crate::with_scheme!(
            $spec,
            [Global, Local, SemiGlobal, FreeEnd],
            |$scheme, $kind| $body
        )
    };
    ($spec:expr, [$($k:ident),+], |$scheme:ident, $kind:ident| $body:block
     $(, else $other:block)?) => {{
        let __spec: &$crate::spec::SchemeSpec = &$spec;
        let __subst = ::anyseq_core::scoring::simple(__spec.match_score, __spec.mismatch);
        match __spec.kind {
            $($crate::spec::KindSpec::$k => {
                $crate::with_scheme!(@$k __spec, __subst, $scheme, $kind, $body)
            })+
            $(_ => $other,)?
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_lowers_to_matching_scalar_scheme() {
        let q = Seq::from_ascii(b"ACGTACGT").unwrap();
        let s = Seq::from_ascii(b"ACGTTACGT").unwrap();
        let spec = SchemeSpec::global_linear(2, -1, -1);
        // The doc example score from the core crate.
        assert_eq!(spec.score_scalar(&q, &s), 15);
        assert_eq!(spec.align_scalar(&q, &s).score, 15);
    }

    #[test]
    fn all_kind_gap_combinations_lower() {
        let q = Seq::from_ascii(b"TTACGTACGTTT").unwrap();
        let s = Seq::from_ascii(b"ACGTACG").unwrap();
        for kind in [
            KindSpec::Global,
            KindSpec::Local,
            KindSpec::SemiGlobal,
            KindSpec::FreeEnd,
        ] {
            for gap in [
                GapSpec::Linear { gap: -2 },
                GapSpec::Affine {
                    open: -2,
                    extend: -1,
                },
            ] {
                let spec = SchemeSpec {
                    kind,
                    match_score: 2,
                    mismatch: -1,
                    gap,
                };
                let aln = spec.align_scalar(&q, &s);
                assert_eq!(aln.score, spec.score_scalar(&q, &s), "{kind:?} {gap:?}");
            }
        }
    }

    #[test]
    fn fingerprints_distinguish_every_field() {
        let base = SchemeSpec::global_linear(2, -1, -1);
        let variants = [
            base,
            base.with_kind(KindSpec::Local),
            base.with_kind(KindSpec::SemiGlobal),
            base.with_kind(KindSpec::FreeEnd),
            SchemeSpec::global_linear(3, -1, -1),
            SchemeSpec::global_linear(2, -2, -1),
            SchemeSpec::global_linear(2, -1, -2),
            SchemeSpec::global_affine(2, -1, -1, 0),
            SchemeSpec::global_affine(2, -1, -2, -1),
            SchemeSpec::global_affine(2, -1, -1, -2),
        ];
        for (i, a) in variants.iter().enumerate() {
            // Stability: the same spec always fingerprints identically.
            assert_eq!(a.fingerprint(), a.fingerprint());
            for (j, b) in variants.iter().enumerate() {
                if i != j {
                    assert_ne!(a.fingerprint(), b.fingerprint(), "{a:?} vs {b:?}");
                }
            }
        }
        // A linear gap is not the same scheme as affine open=0 with the
        // same extend cost — they score identically in the DP but the
        // key must stay conservative (distinct spec, distinct entry).
        assert_ne!(
            SchemeSpec::global_linear(2, -1, -1).fingerprint(),
            SchemeSpec::global_affine(2, -1, 0, -1).fingerprint()
        );
    }

    #[test]
    fn validate_refuses_positive_gap_scores_and_names_the_field() {
        assert_eq!(SchemeSpec::global_linear(2, -1, 0).validate(), Ok(()));
        assert_eq!(SchemeSpec::global_affine(2, -1, -2, 0).validate(), Ok(()));
        for (spec, field, value) in [
            (SchemeSpec::global_linear(2, -1, 1), "gap", 1),
            (SchemeSpec::global_affine(2, -1, 3, -1), "open", 3),
            (SchemeSpec::global_affine(2, -1, -2, 7), "extend", 7),
        ] {
            let err = spec.validate().unwrap_err();
            assert_eq!(err, SpecError { field, value });
            assert!(err.to_string().starts_with(field), "{err}");
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            KindSpec::Global,
            KindSpec::Local,
            KindSpec::SemiGlobal,
            KindSpec::FreeEnd,
        ] {
            assert_eq!(KindSpec::parse(kind.name()), Some(kind));
        }
        assert_eq!(KindSpec::parse("bogus"), None);
    }
}
