//! Workspace-wide property tests: randomized schemes and inputs pushed
//! through every backend, with failure-injection-style edge parameters
//! (tiny tiles, lane-tail remainders, thread oversubscription).

use anyseq::fpga::SystolicArray;
use anyseq::gpu::{Device, GpuAligner};
use anyseq::prelude::*;
use anyseq::simd::simd_tiled_score_pass;
use anyseq::simd::LaneTiles;
use anyseq_baselines::{ParasailLike, SeqAnLike};
use anyseq_core::kind::{AlignKind, Extension, FreeEnd, Global, Local, OptRegion, SemiGlobal};
use anyseq_core::pass::score_pass;
use anyseq_core::scoring::GapModel;
use anyseq_core::traceback::{align_with_pass, spacing, LinesPass, ScalarPass};
use anyseq_wavefront::pass::{tiled_score_pass, ParallelCfg, ScalarTiles, TiledPass};
use proptest::prelude::*;

fn seq_strategy(lo: usize, hi: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..5, lo..hi) // includes N (code 4)
}

/// How many levels of lines a walk over `n × m` runs at `cutoff_area`
/// in its largest blocks, its provider tiling at the spacing's edge
/// (the scalar row sweep): 0 for one block, 1 for lines with no nested
/// block, and one more per level of nested lines.
fn levels(n: usize, m: usize, cutoff_area: usize) -> usize {
    if n * m <= cutoff_area {
        return 0;
    }
    let lines = spacing(n, m, cutoff_area);
    let block = lines.every * lines.edge;
    1 + levels(n.min(block), m.min(block), cutoff_area)
}

/// Base-case areas for `n × m` whose largest blocks nest 0, 1 and at
/// least 2 levels deep (of those the rectangle allows).
fn nesting_cutoffs(n: usize, m: usize) -> Vec<usize> {
    let candidates = (2..=128usize).map(|e| e * e);
    let mut picked: Vec<usize> = Vec::new();
    for want in [1, 2, 3] {
        let hit = candidates
            .clone()
            .rev()
            .find(|&c| levels(n, m, c).min(3) == want);
        picked.extend(hit);
    }
    picked
}

/// A traceback through one provider, at a given configuration.
type Via<'a> = &'a dyn Fn(&AlignConfig) -> Alignment;

/// The kind-`K` alignment of `q × s` with the scoring `gap` and
/// `simple(2, -1)` through provider `pass`.
fn via<K: AlignKind, G: GapModel, P: LinesPass<G, SimpleSubst>>(
    pass: &P,
    gap: &G,
    (q, s): (&[u8], &[u8]),
    cfg: &AlignConfig,
) -> Alignment {
    align_with_pass::<K, _, _, _>(pass, gap, &simple(2, -1), q, s, cfg)
}

/// The kind-`K` alignment of `q × s` through every provider that
/// accepts the kind — the scalar row sweep, the tiled pass on the
/// scalar and on the lane kernel, the tiled pass cut into subject
/// slabs, the SeqAn-like baseline, the simulated GPU (corner and
/// border kinds) and, for affine gaps, the Parasail-like baseline — at
/// each cutoff: the one-block walk's alignment on the whole rectangle,
/// valid and scoring the kind's optimum.
fn walks_equal_the_one_block_walk<K: AlignKind, G: GapModel + std::fmt::Debug>(
    gap: &G,
    rect: (&[u8], &[u8]),
    cutoffs: &[usize],
    (tile, threads, shard_cells): (usize, usize, u64),
    parasail: Option<Via>,
) {
    let (q, s) = rect;
    let whole = AlignConfig {
        cutoff_area: usize::MAX,
    };
    let want = via::<K, G, _>(&ScalarPass, gap, rect, &whole);
    let what = format!("{} {gap:?} {}x{}", K::NAME, q.len(), s.len());
    let (qs, ss) = (
        Seq::from_codes(q.to_vec()).unwrap(),
        Seq::from_codes(s.to_vec()).unwrap(),
    );
    let subst = simple(2, -1);
    if let Err(e) = want.validate::<K, _, _>(&qs, &ss, gap, &subst) {
        panic!("{what}: invalid one-block walk: {e}");
    }
    let best = score_pass::<K, _, _>(gap, &subst, q, s).score;
    assert_eq!(want.score, best, "{what}");

    let cfg = ParallelCfg::threads(threads).with_tile(tile);
    let tiled = TiledPass::<ScalarTiles>::new(cfg);
    let lanes = TiledPass::<LaneTiles<8>>::new(cfg);
    let cut = TiledPass::<LaneTiles<8>>::new(cfg.with_shard_cells(shard_cells));
    let seqan = SeqAnLike::new(threads).with_tile(tile);
    let gpu = GpuAligner::new(Device::titan_v()).with_tile(tile.max(8));
    let scalar_via = |c: &AlignConfig| via::<K, G, _>(&ScalarPass, gap, rect, c);
    let tiled_via = |c: &AlignConfig| via::<K, G, _>(&tiled, gap, rect, c);
    let lanes_via = |c: &AlignConfig| via::<K, G, _>(&lanes, gap, rect, c);
    let cut_via = |c: &AlignConfig| via::<K, G, _>(&cut, gap, rect, c);
    let seqan_via = |c: &AlignConfig| via::<K, G, _>(&seqan, gap, rect, c);
    let gpu_via = |c: &AlignConfig| via::<K, G, _>(&gpu.passes(), gap, rect, c);
    let mut providers: Vec<(&str, Via)> = vec![
        ("scalar", &scalar_via),
        ("tiled", &tiled_via),
        ("lanes", &lanes_via),
        ("sharded lanes", &cut_via),
        ("seqan-like", &seqan_via),
    ];
    if K::OPT != OptRegion::Anywhere {
        providers.push(("gpu", &gpu_via));
    }
    providers.extend(parasail.map(|p| ("parasail-like", p)));
    for &cutoff_area in cutoffs {
        for (name, pass) in &providers {
            let got = pass(&AlignConfig { cutoff_area });
            assert!(
                got == want,
                "{name}: {what} cutoff {cutoff_area}: {got:?} != {want:?}"
            );
        }
    }
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
                scheme.gap(), scheme.subst(), qs.codes(), ss.codes(), &cfg).score,
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

proptest! {
    // Debug builds run the lanes and the GPU kernel as scalar loops;
    // the optimised run (CI's `cargo test --release`) casts the wider
    // net over the ten kind × gap model combinations.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 20 } else { 160 }))]

    #[test]
    fn leaf_ops_equal_the_base_case_on_any_rectangle(
        q in seq_strategy(1, 300),
        junk in seq_strategy(0, 40),
        (cut, del) in (0usize..300, 0usize..40),
        (open, ext) in (-4i32..=0, -3i32..0),
        (kind, linear) in (0u8..5, 0u8..2),
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
        let cutoffs = nesting_cutoffs(q.len(), s.len());
        let rect = (&q[..], &s[..]);
        let tiled = (tile, threads, shard_cells);
        macro_rules! check {
            ($kind:ty) => {{
                if linear == 1 {
                    let gap = LinearGap { gap: ext };
                    walks_equal_the_one_block_walk::<$kind, _>(
                        &gap, rect, &cutoffs, tiled, None,
                    );
                } else {
                    let gap = AffineGap { open, extend: ext };
                    let baseline = ParasailLike::new(threads);
                    let parasail_via =
                        |c: &AlignConfig| via::<$kind, _, _>(&baseline, &gap, rect, c);
                    let parasail = Some(&parasail_via as Via);
                    walks_equal_the_one_block_walk::<$kind, _>(
                        &gap, rect, &cutoffs, tiled, parasail,
                    );
                }
            }};
        }
        match kind {
            0 => check!(Global),
            1 => check!(SemiGlobal),
            2 => check!(Local),
            3 => check!(FreeEnd),
            _ => check!(Extension),
        }
    }
}
