//! Workspace-wide property tests: randomized schemes and inputs pushed
//! through every backend, with failure-injection-style edge parameters
//! (tiny tiles, lane-tail remainders, thread oversubscription).

use anyseq::fpga::SystolicArray;
use anyseq::gpu::{Device, GpuAligner};
use anyseq::prelude::*;
use anyseq::simd::simd_tiled_score_pass;
use anyseq::simd::LaneTiles;
use anyseq_core::fullmatrix::base_global;
use anyseq_core::hirschberg::{leaf, HalfPass, ScalarPass};
use anyseq_core::kind::Global;
use anyseq_core::scoring::GapModel;
use anyseq_wavefront::pass::{tiled_score_pass, ParallelCfg, ScalarTiles, TiledPass};
use proptest::prelude::*;

fn seq_strategy(lo: usize, hi: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..5, lo..hi) // includes N (code 4)
}

/// The leaf of `q × s` through each kept-lines provider — the scalar
/// row sweep, the tiled pass on the scalar and on the lane kernel, and
/// the tiled pass cut into subject slabs — against the base case on
/// the whole rectangle: equal score and equal ops.
#[allow(clippy::too_many_arguments)]
fn leaf_matches_base_case<G: GapModel + std::fmt::Debug>(
    gap: G,
    q: &[u8],
    s: &[u8],
    (tb, te): (Score, Score),
    cutoff_area: usize,
    tile: usize,
    threads: usize,
    shard_cells: u64,
) {
    let subst = simple(2, -1);
    let mut want = Vec::new();
    let score = base_global(&gap, &subst, q, s, tb, te, &mut want);
    let cfg = ParallelCfg::threads(threads).with_tile(tile);
    let check = |what: &str, pass: &dyn Fn(&mut Vec<AlignOp>) -> Score| {
        let mut ops = Vec::new();
        let got = pass(&mut ops);
        let at = format!(
            "{what}: {gap:?} {}x{} tb {tb} te {te} cutoff {cutoff_area} tile {tile}",
            q.len(),
            s.len()
        );
        assert_eq!(got, score, "{at}");
        assert!(ops == want, "{at}");
    };
    let align = AlignConfig { cutoff_area };
    fn run<G: GapModel, P: HalfPass<G, SimpleSubst>>(
        p: &P,
        gap: &G,
        (q, s): (&[u8], &[u8]),
        (tb, te): (Score, Score),
        align: &AlignConfig,
        ops: &mut Vec<AlignOp>,
    ) -> Score {
        leaf(p, gap, &simple(2, -1), q, s, tb, te, align, ops)
    }
    let rect = (q, s);
    check("scalar", &|ops| {
        run(&ScalarPass, &gap, rect, (tb, te), &align, ops)
    });
    let tiled = TiledPass::<ScalarTiles>::new(cfg);
    check("tiled", &|ops| {
        run(&tiled, &gap, rect, (tb, te), &align, ops)
    });
    let lanes = TiledPass::<LaneTiles<8>>::new(cfg);
    check("lanes", &|ops| {
        run(&lanes, &gap, rect, (tb, te), &align, ops)
    });
    let cut = TiledPass::<LaneTiles<8>>::new(cfg.with_shard_cells(shard_cells));
    check("sharded lanes", &|ops| {
        run(&cut, &gap, rect, (tb, te), &align, ops)
    });
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
    fn leaf_ops_equal_the_base_case_on_any_rectangle(
        q in seq_strategy(1, 300),
        junk in seq_strategy(0, 40),
        (cut, del) in (0usize..300, 0usize..40),
        (open, ext) in (-4i32..=0, -3i32..0),
        (linear, tb_zero, te_zero) in (0u8..2, 0u8..2, 0u8..2),
        edge in prop_oneof![Just(4usize), Just(5), Just(8), Just(16), Just(40)],
        (tile, threads) in (1usize..48, 1usize..4),
        shard_cells in 1u64..20_000,
    ) {
        // `s` is `q` with `del` bases deleted at `cut` and a run of
        // junk inserted half its length away: gap runs long enough to
        // cross block edges in the E and F states.
        let ins = (cut + q.len() / 2) % q.len();
        let mut s = Vec::with_capacity(q.len() + junk.len());
        for (i, &c) in q.iter().enumerate() {
            if i == ins {
                s.extend_from_slice(&junk);
            }
            if !(cut..cut + del).contains(&i) {
                s.push(c);
            }
        }
        if s.is_empty() {
            s.push(0);
        }
        let ends = |open: Score| {
            ([open, 0][tb_zero as usize], [open, 0][te_zero as usize])
        };
        // Lines at most `edge` apart: spacing `edge` or the tile, if finer.
        let cutoff_area = edge * edge;
        let (q, s) = (&q[..], &s[..]);
        if linear == 1 {
            let gap = LinearGap { gap: ext };
            leaf_matches_base_case(gap, q, s, ends(ext), cutoff_area, tile, threads, shard_cells);
        } else {
            let gap = AffineGap { open, extend: ext };
            leaf_matches_base_case(gap, q, s, ends(open), cutoff_area, tile, threads, shard_cells);
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
