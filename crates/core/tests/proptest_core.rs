//! Property tests: every engine agrees with the naive oracle, and every
//! traceback realizes exactly its reported score.

use anyseq_core::hirschberg::AlignConfig;
use anyseq_core::kind::{Extension, FreeEnd, Global, Local, SemiGlobal};
use anyseq_core::oracle::oracle_score;
use anyseq_core::pass::score_pass;
use anyseq_core::prelude::*;
use anyseq_core::scoring::{AffineGap, LinearGap};
use anyseq_seq::Seq;
use proptest::prelude::*;

fn seq_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 0..max_len)
}

fn scoring_strategy() -> impl Strategy<Value = (i32, i32, i32, i32)> {
    // (match, mismatch, open, extend)
    (1i32..6, -6i32..0, -8i32..=0, -4i32..0)
}

macro_rules! check_kind {
    ($kind:ty, $gap:expr, $subst:expr, $q:expr, $s:expr) => {{
        let gap = $gap;
        let subst = $subst;
        let (oracle, oracle_end) = oracle_score::<$kind, _, _>(&gap, &subst, $q, $s);
        let pass = score_pass::<$kind, _, _>(&gap, &subst, $q, $s, gap.open());
        prop_assert_eq!(
            pass.score,
            oracle,
            "{} score mismatch (oracle end {:?}, pass end {:?})",
            <$kind as anyseq_core::kind::AlignKind>::NAME,
            oracle_end,
            pass.end
        );
        prop_assert_eq!(
            pass.end,
            oracle_end,
            "{} end-cell mismatch",
            <$kind as anyseq_core::kind::AlignKind>::NAME
        );
    }};
}

macro_rules! check_align {
    ($kind:ty, $gap:expr, $subst:expr, $q:expr, $s:expr, $cfg:expr) => {{
        let gap = $gap;
        let subst = $subst;
        let qs = Seq::from_codes($q.to_vec()).unwrap();
        let ss = Seq::from_codes($s.to_vec()).unwrap();
        let (oracle, _) = oracle_score::<$kind, _, _>(&gap, &subst, $q, $s);
        let aln = anyseq_core::hirschberg::align::<$kind, _, _>(
            &gap,
            &subst,
            qs.codes(),
            ss.codes(),
            $cfg,
        );
        prop_assert_eq!(
            aln.score,
            oracle,
            "{} alignment score != oracle (cigar {})",
            <$kind as anyseq_core::kind::AlignKind>::NAME,
            aln.cigar()
        );
        if let Err(e) = aln.validate::<$kind, _, _>(&qs, &ss, &gap, &subst) {
            prop_assert!(
                false,
                "{} alignment invalid: {e}",
                <$kind as anyseq_core::kind::AlignKind>::NAME
            );
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn scores_match_oracle_linear(
        q in seq_strategy(90),
        s in seq_strategy(90),
        (ma, mi, _o, e) in scoring_strategy(),
    ) {
        let gap = LinearGap { gap: e };
        let subst = simple(ma, mi);
        check_kind!(Global, gap, subst, &q, &s);
        check_kind!(Local, gap, subst, &q, &s);
        check_kind!(SemiGlobal, gap, subst, &q, &s);
        check_kind!(FreeEnd, gap, subst, &q, &s);
        check_kind!(Extension, gap, subst, &q, &s);
    }

    #[test]
    fn scores_match_oracle_affine(
        q in seq_strategy(90),
        s in seq_strategy(90),
        (ma, mi, o, e) in scoring_strategy(),
    ) {
        let gap = AffineGap { open: o, extend: e };
        let subst = simple(ma, mi);
        check_kind!(Global, gap, subst, &q, &s);
        check_kind!(Local, gap, subst, &q, &s);
        check_kind!(SemiGlobal, gap, subst, &q, &s);
        check_kind!(FreeEnd, gap, subst, &q, &s);
        check_kind!(Extension, gap, subst, &q, &s);
    }

    #[test]
    fn alignments_are_optimal_and_valid_linear(
        q in seq_strategy(70),
        s in seq_strategy(70),
        (ma, mi, _o, e) in scoring_strategy(),
        cutoff in prop_oneof![Just(8usize), Just(64), Just(1 << 18)],
    ) {
        let gap = LinearGap { gap: e };
        let subst = simple(ma, mi);
        let cfg = AlignConfig { cutoff_area: cutoff };
        check_align!(Global, gap, subst, &q, &s, &cfg);
        check_align!(Local, gap, subst, &q, &s, &cfg);
        check_align!(SemiGlobal, gap, subst, &q, &s, &cfg);
        check_align!(FreeEnd, gap, subst, &q, &s, &cfg);
    }

    #[test]
    fn alignments_are_optimal_and_valid_affine(
        q in seq_strategy(70),
        s in seq_strategy(70),
        (ma, mi, o, e) in scoring_strategy(),
        cutoff in prop_oneof![Just(8usize), Just(64), Just(1 << 18)],
    ) {
        let gap = AffineGap { open: o, extend: e };
        let subst = simple(ma, mi);
        let cfg = AlignConfig { cutoff_area: cutoff };
        check_align!(Global, gap, subst, &q, &s, &cfg);
        check_align!(Local, gap, subst, &q, &s, &cfg);
        check_align!(SemiGlobal, gap, subst, &q, &s, &cfg);
        check_align!(FreeEnd, gap, subst, &q, &s, &cfg);
        check_align!(Extension, gap, subst, &q, &s, &cfg);
    }

    #[test]
    fn affine_with_zero_open_equals_linear(
        q in seq_strategy(80),
        s in seq_strategy(80),
        (ma, mi, _o, e) in scoring_strategy(),
    ) {
        let lin = LinearGap { gap: e };
        let aff = AffineGap { open: 0, extend: e };
        let subst = simple(ma, mi);
        let a = score_pass::<Global, _, _>(&lin, &subst, &q, &s, lin.open());
        let b = score_pass::<Global, _, _>(&aff, &subst, &q, &s, aff.open());
        prop_assert_eq!(a.score, b.score);
        let a = score_pass::<Local, _, _>(&lin, &subst, &q, &s, lin.open());
        let b = score_pass::<Local, _, _>(&aff, &subst, &q, &s, aff.open());
        prop_assert_eq!(a.score, b.score);
    }

    #[test]
    fn swap_symmetry_global(
        q in seq_strategy(80),
        s in seq_strategy(80),
        (ma, mi, o, e) in scoring_strategy(),
    ) {
        // Simple scoring is symmetric, so swapping q and s preserves the
        // global score (E and F swap roles).
        let gap = AffineGap { open: o, extend: e };
        let subst = simple(ma, mi);
        let a = score_pass::<Global, _, _>(&gap, &subst, &q, &s, gap.open());
        let b = score_pass::<Global, _, _>(&gap, &subst, &s, &q, gap.open());
        prop_assert_eq!(a.score, b.score);
    }

    #[test]
    fn local_dominates_other_kinds(
        q in seq_strategy(80),
        s in seq_strategy(80),
        (ma, mi, o, e) in scoring_strategy(),
    ) {
        let gap = AffineGap { open: o, extend: e };
        let subst = simple(ma, mi);
        let g = score_pass::<Global, _, _>(&gap, &subst, &q, &s, gap.open()).score;
        let l = score_pass::<Local, _, _>(&gap, &subst, &q, &s, gap.open()).score;
        let sg = score_pass::<SemiGlobal, _, _>(&gap, &subst, &q, &s, gap.open()).score;
        let fe = score_pass::<FreeEnd, _, _>(&gap, &subst, &q, &s, gap.open()).score;
        let ex = score_pass::<Extension, _, _>(&gap, &subst, &q, &s, gap.open()).score;
        // Relaxing constraints can only help.
        prop_assert!(l >= sg, "local {l} < semiglobal {sg}");
        prop_assert!(sg >= g, "semiglobal {sg} < global {g}");
        prop_assert!(fe >= g, "free-end {fe} < global {g}");
        prop_assert!(ex >= fe, "extension {ex} < free-end {fe}");
        prop_assert!(l >= ex, "local {l} < extension {ex}");
    }

    #[test]
    fn identity_alignment_is_perfect(
        q in prop::collection::vec(0u8..4, 1..100),
        ma in 1i32..6,
    ) {
        let gap = AffineGap { open: -3, extend: -1 };
        let subst = simple(ma, -1);
        let qs = Seq::from_codes(q.clone()).unwrap();
        let scheme = anyseq_core::scheme::global(Scoring { gap, subst });
        let aln = scheme.align(&qs, &qs);
        prop_assert_eq!(aln.score, ma * q.len() as i32);
        prop_assert!(aln.ops.iter().all(|&op| op == AlignOp::Match));
    }

    #[test]
    fn traceback_gap_structure_respects_affine_pricing(
        q in seq_strategy(60),
        s in seq_strategy(60),
    ) {
        // With a very expensive open and cheap extension the traceback
        // must coalesce gaps: count the gap runs and verify the score
        // arithmetic priced them as runs, not per-base opens.
        let gap = AffineGap { open: -9, extend: -1 };
        let subst = simple(3, -2);
        let qs = Seq::from_codes(q.clone()).unwrap();
        let ss = Seq::from_codes(s.clone()).unwrap();
        let aln = anyseq_core::hirschberg::align_with_pass::<Global, _, _, _>(&anyseq_core::hirschberg::ScalarPass, &gap, &subst, qs.codes(), ss.codes(), &AlignConfig::default());
        if let Err(e) = aln.validate::<Global, _, _>(&qs, &ss, &gap, &subst) {
            prop_assert!(false, "invalid: {e}");
        }
    }
}

/// Deterministic regression cases distilled from the paper's setup.
#[test]
fn paper_parameterizations_agree_with_oracle() {
    let q = Seq::from_ascii(b"ACGTACGTTACGATCAGGTACCAGTTAACGT").unwrap();
    let s = Seq::from_ascii(b"ACGACGTTAGCGTCAGGACCAGTTACGT").unwrap();
    // Paper §V: +2 match, −1 mismatch, linear −1.
    let lin = LinearGap { gap: -1 };
    let subst = simple(2, -1);
    let (o, _) = oracle_score::<Global, _, _>(&lin, &subst, q.codes(), s.codes());
    assert_eq!(
        score_pass::<Global, _, _>(&lin, &subst, q.codes(), s.codes(), lin.open()).score,
        o
    );
    // Paper §V: affine Go = −2, Ge = −1.
    let aff = AffineGap {
        open: -2,
        extend: -1,
    };
    let (o, _) = oracle_score::<Global, _, _>(&aff, &subst, q.codes(), s.codes());
    assert_eq!(
        score_pass::<Global, _, _>(&aff, &subst, q.codes(), s.codes(), aff.open()).score,
        o
    );
}

/// Targeted stress: giant gaps that force vertical runs across many
/// recursion midlines (the Myers–Miller type-2 machinery).
#[test]
fn giant_gap_across_midlines() {
    for (nq, ns) in [(200usize, 3usize), (3, 200), (128, 64)] {
        let q = Seq::from_codes(vec![0u8; nq]).unwrap();
        let s = Seq::from_codes(vec![0u8; ns]).unwrap();
        for open in [-1, -5, -13] {
            let gap = AffineGap { open, extend: -1 };
            let subst = simple(2, -7);
            let cfg = AlignConfig { cutoff_area: 16 };
            let aln = anyseq_core::hirschberg::align_with_pass::<Global, _, _, _>(
                &anyseq_core::hirschberg::ScalarPass,
                &gap,
                &subst,
                q.codes(),
                s.codes(),
                &cfg,
            );
            let (oracle, _) = oracle_score::<Global, _, _>(&gap, &subst, q.codes(), s.codes());
            assert_eq!(aln.score, oracle, "nq={nq} ns={ns} open={open}");
            aln.validate::<Global, _, _>(&q, &s, &gap, &subst).unwrap();
        }
    }
}
