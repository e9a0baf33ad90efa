//! Workspace-wide property tests: randomized schemes and inputs pushed
//! through every backend, with failure-injection-style edge parameters
//! (tiny tiles, lane-tail remainders, thread oversubscription).

use anyseq::fpga::SystolicArray;
use anyseq::gpu::{Device, GpuAligner};
use anyseq::prelude::*;
use anyseq::simd::simd_tiled_score_pass;
use anyseq_core::kind::Global;
use anyseq_wavefront::pass::{tiled_score_pass, ParallelCfg};
use proptest::prelude::*;

fn seq_strategy(lo: usize, hi: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..5, lo..hi) // includes N (code 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backends_agree_on_random_inputs(
        q in seq_strategy(1, 300),
        s in seq_strategy(1, 300),
        open in -4i32..=0,
        ext in -3i32..0,
        tile in prop_oneof![Just(16usize), Just(33), Just(128)],
        threads in 1usize..5,
    ) {
        let qs = Seq::from_codes(q).unwrap();
        let ss = Seq::from_codes(s).unwrap();
        let scheme = global(affine(simple(2, -1), open, ext));
        let expected = scheme.score(&qs, &ss);

        let cfg = ParallelCfg::threads(threads).with_tile(tile);
        prop_assert_eq!(
            tiled_score_pass::<Global, _, _>(
                scheme.gap(), scheme.subst(), qs.codes(), ss.codes(), open, &cfg).score,
            expected
        );
        prop_assert_eq!(
            simd_tiled_score_pass::<_, _, 8>(
                scheme.gap(), scheme.subst(), qs.codes(), ss.codes(), open, &cfg).score,
            expected
        );
        let gpu = GpuAligner::new(Device::titan_v()).with_tile(tile);
        prop_assert_eq!(gpu.score(&scheme, &qs, &ss).score, expected);
        let fpga = SystolicArray::zcu104(tile.min(64));
        prop_assert_eq!(fpga.score(scheme.gap(), scheme.subst(), &qs, &ss).score, expected);
    }

    #[test]
    fn parallel_alignment_optimal_on_random_inputs(
        q in seq_strategy(1, 250),
        s in seq_strategy(1, 250),
        open in -4i32..=0,
        ext in -3i32..0,
    ) {
        let qs = Seq::from_codes(q).unwrap();
        let ss = Seq::from_codes(s).unwrap();
        let scheme = global(affine(simple(2, -1), open, ext));
        let expected = scheme.score(&qs, &ss);
        let cfg = ParallelCfg::threads(3).with_tile(32);
        let aln = scheme.align_parallel(&qs, &ss, &cfg);
        prop_assert_eq!(aln.score, expected);
        if let Err(e) = aln.validate::<Global, _, _>(&qs, &ss, scheme.gap(), scheme.subst()) {
            prop_assert!(false, "invalid alignment: {e}");
        }
    }

    #[test]
    fn batch_engines_handle_ragged_batches(
        lens in prop::collection::vec((1usize..200, 1usize..200), 1..40),
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs: Vec<(Seq, Seq)> = lens
            .iter()
            .map(|&(n, m)| {
                (
                    Seq::from_codes((0..n).map(|_| rng.gen_range(0..4)).collect()).unwrap(),
                    Seq::from_codes((0..m).map(|_| rng.gen_range(0..4)).collect()).unwrap(),
                )
            })
            .collect();
        let scheme = global(linear(simple(2, -1), -1));
        let view = anyseq_seq::BatchView::from_pairs(&pairs);
        let scalar: Vec<Score> = pairs.iter().map(|(q, s)| scheme.score(q, s)).collect();
        let simd = anyseq::simd::score_batch_simd::<_, _, _, 8>(&scheme, view.refs(), 4);
        prop_assert_eq!(scalar, simd);
    }
}
