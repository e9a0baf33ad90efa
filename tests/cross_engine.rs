//! Workspace-level integration: every execution backend must produce the
//! same scores as the core scalar engine (which is itself oracle-checked
//! in `anyseq-core`). This is the reproduction's strongest claim: one
//! generic algorithm, many specialized engines, identical results.

use anyseq::fpga::SystolicArray;
use anyseq::gpu::{Device, GpuAligner};
use anyseq::prelude::*;
use anyseq::simd::{score_batch_simd, simd_tiled_score_pass};
use anyseq_baselines::{NvbioLike, ParasailLike, SeqAnLike};
use anyseq_core::kind::Global;
use anyseq_engine::{
    BackendId, BatchCfg, BatchScheduler, Dispatch, Engine, GapSpec, KindSpec, Policy, SchemeSpec,
};
use anyseq_seq::{BatchView, PairRef};
use anyseq_wavefront::pass::{tiled_score_pass, ParallelCfg};
use proptest::prelude::*;

fn genome_pair(len: usize, divergence: f64, seed: u64) -> (Seq, Seq) {
    let mut sim = GenomeSim::new(seed);
    let a = sim.generate(len);
    let b = sim.mutate(&a, divergence);
    (a, b)
}

#[test]
fn every_backend_agrees_on_global_scores() {
    for (seed, div) in [(1u64, 0.02), (2, 0.10), (3, 0.30)] {
        let (q, s) = genome_pair(3000, div, seed);
        for (open, ext) in [(0, -1), (-2, -1), (-5, -2)] {
            let scheme = global(affine(simple(2, -1), open, ext));
            let expected = scheme.score(&q, &s);

            let cfg = ParallelCfg::threads(6).with_tile(128);
            assert_eq!(
                tiled_score_pass::<Global, _, _>(
                    scheme.gap(),
                    scheme.subst(),
                    q.codes(),
                    s.codes(),
                    open,
                    &cfg
                )
                .score,
                expected,
                "wavefront seed={seed}"
            );
            assert_eq!(
                simd_tiled_score_pass::<_, _, 16>(
                    scheme.gap(),
                    scheme.subst(),
                    q.codes(),
                    s.codes(),
                    open,
                    &cfg
                )
                .score,
                expected,
                "simd seed={seed}"
            );
            let gpu = GpuAligner::new(Device::titan_v()).with_tile(256);
            assert_eq!(
                gpu.score(&scheme, &q, &s).score,
                expected,
                "gpu seed={seed}"
            );
            let fpga = SystolicArray::zcu104(64);
            assert_eq!(
                fpga.score(scheme.gap(), scheme.subst(), &q, &s).score,
                expected,
                "fpga seed={seed}"
            );
            let mut seqan = SeqAnLike::new(4);
            seqan.tile = 128;
            assert_eq!(seqan.score(&scheme, &q, &s), expected, "seqan seed={seed}");
            let mut parasail = ParasailLike::new(4);
            parasail.tile = 128;
            assert_eq!(
                parasail.score(&scheme, &q, &s),
                expected,
                "parasail seed={seed}"
            );
            let nvbio = NvbioLike::new(Device::titan_v());
            assert_eq!(
                nvbio.score(&scheme, &q, &s).score,
                expected,
                "nvbio seed={seed}"
            );
        }
    }
}

#[test]
fn every_traceback_backend_is_optimal_and_valid() {
    let (q, s) = genome_pair(2000, 0.08, 11);
    let scheme = global(affine(simple(2, -1), -2, -1));
    let expected = scheme.score(&q, &s);

    let check = |name: &str, aln: Alignment| {
        assert_eq!(aln.score, expected, "{name} score");
        aln.validate::<Global, _, _>(&q, &s, scheme.gap(), scheme.subst())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    };

    check("scalar", scheme.align(&q, &s));
    check(
        "parallel",
        scheme.align_parallel(&q, &s, &ParallelCfg::threads(6).with_tile(128)),
    );
    let gpu = GpuAligner::new(Device::titan_v()).with_tile(256);
    check("gpu", gpu.align(&scheme, q.codes(), s.codes()).0);
    check("seqan-like", SeqAnLike::new(4).align(&scheme, &q, &s));
    check("parasail-like", ParasailLike::new(4).align(&scheme, &q, &s));
    check(
        "nvbio-like",
        NvbioLike::new(Device::titan_v()).align(&scheme, &q, &s).0,
    );
}

#[test]
fn read_batches_agree_across_engines() {
    let reference = GenomeSim::new(21).generate(200_000);
    let mut rs = ReadSim::new(ReadSimProfile::default(), 22);
    let pairs: Vec<(Seq, Seq)> = rs
        .simulate_pairs(&reference, 400)
        .into_iter()
        .map(|p| (p.a, p.b))
        .collect();
    let scheme = global(linear(simple(2, -1), -1));

    let view = BatchView::from_pairs(&pairs);
    let scalar: Vec<Score> = pairs.iter().map(|(q, s)| scheme.score(q, s)).collect();
    let simd16 = score_batch_simd::<_, _, _, 16>(&scheme, view.refs(), 8);
    let simd32 = score_batch_simd::<_, _, _, 32>(&scheme, view.refs(), 8);
    assert_eq!(scalar, simd16);
    assert_eq!(scalar, simd32);

    let gpu = GpuAligner::new(Device::titan_v());
    let (gpu_scores, stats) = gpu.score_batch(&scheme, view.refs());
    assert_eq!(scalar, gpu_scores);
    assert!(stats.gcups(&gpu.device) > 0.0);
}

#[test]
fn all_kinds_cross_checked_on_the_facade() {
    let (q, s) = genome_pair(800, 0.15, 31);
    let sc = affine(simple(2, -1), -2, -1);
    for (name, score, aln) in [
        ("global", global(sc).score(&q, &s), global(sc).align(&q, &s)),
        ("local", local(sc).score(&q, &s), local(sc).align(&q, &s)),
        (
            "semiglobal",
            semiglobal(sc).score(&q, &s),
            semiglobal(sc).align(&q, &s),
        ),
        (
            "free_end",
            free_end(sc).score(&q, &s),
            free_end(sc).align(&q, &s),
        ),
    ] {
        assert_eq!(aln.score, score, "{name}");
    }
}

// ------------------------------------------------------------------
// anyseq-engine: the BatchScheduler must be a drop-in replacement for
// sequential Scheme::align/score on every backend — same scores, same
// CIGARs, input order — for arbitrary batch shapes, including the
// fallback path of backends that refuse a request.
// ------------------------------------------------------------------

/// Random ragged batch from (seeded) dimensions.
fn random_batch(lens: &[(usize, usize)], seed: u64) -> Vec<(Seq, Seq)> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    lens.iter()
        .map(|&(n, m)| {
            (
                Seq::from_codes((0..n).map(|_| rng.gen_range(0..4)).collect()).unwrap(),
                Seq::from_codes((0..m).map(|_| rng.gen_range(0..4)).collect()).unwrap(),
            )
        })
        .collect()
}

fn scheduler_for(threads: usize, chunk: usize) -> BatchScheduler {
    BatchScheduler::new(BatchCfg {
        threads,
        chunk_pairs: chunk,
    })
}

/// The engine contract's alignment check: the reported score must be
/// the scalar optimum and the operation sequence must replay to
/// exactly that score (CIGAR tie-breaks may differ between backends).
fn assert_replays(spec: &SchemeSpec, q: &Seq, s: &Seq, aln: &Alignment, ctx: &str) {
    assert_eq!(aln.score, spec.score_scalar(q, s), "{ctx}: score");
    anyseq_engine::with_scheme!(spec, |scheme, K| {
        aln.validate::<K, _, _>(q, s, scheme.gap(), scheme.subst())
            .unwrap_or_else(|e| panic!("{ctx}: {e} (cigar {})", aln.cigar()));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_scheduler_scores_equal_sequential_on_every_backend(
        lens in prop::collection::vec((1usize..220, 1usize..220), 1..30),
        seed in 0u64..1000,
        threads in 1usize..5,
        chunk in prop_oneof![Just(3usize), Just(16), Just(512)],
        affine_gaps in prop_oneof![Just(false), Just(true)],
    ) {
        let pairs = random_batch(&lens, seed);
        let view = BatchView::from_pairs(&pairs);
        let spec = if affine_gaps {
            SchemeSpec::global_affine(2, -1, -2, -1)
        } else {
            SchemeSpec::global_linear(2, -1, -1)
        };
        let expected: Vec<i32> = pairs.iter().map(|(q, s)| spec.score_scalar(q, s)).collect();
        let sched = scheduler_for(threads, chunk);
        for policy in [
            Policy::Auto,
            Policy::Fixed(BackendId::Scalar),
            Policy::Fixed(BackendId::Simd),
            Policy::Fixed(BackendId::Wavefront),
        ] {
            let dispatch = Dispatch::standard(policy);
            let run = sched.try_score_batch(&dispatch, &spec, &view).unwrap();
            prop_assert_eq!(&run.results, &expected, "policy {:?}", policy);
            prop_assert_eq!(run.stats.pairs as usize, pairs.len());
        }
    }

    #[test]
    fn batch_scheduler_alignments_equal_sequential(
        lens in prop::collection::vec((1usize..150, 1usize..150), 1..16),
        seed in 0u64..1000,
        threads in 1usize..4,
        kind in prop_oneof![
            Just(KindSpec::Global),
            Just(KindSpec::Local),
            Just(KindSpec::SemiGlobal),
            Just(KindSpec::FreeEnd),
        ],
    ) {
        let pairs = random_batch(&lens, seed ^ 0xa11a);
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec {
            kind,
            match_score: 2,
            mismatch: -1,
            gap: GapSpec::Affine { open: -2, extend: -1 },
        };
        let sched = scheduler_for(threads, 8);
        for policy in [
            Policy::Auto,
            Policy::Fixed(BackendId::Simd),
        ] {
            let dispatch = Dispatch::standard(policy);
            let run = sched.try_align_batch(&dispatch, &spec, &view).unwrap();
            for (k, (q, s)) in pairs.iter().enumerate() {
                assert_replays(
                    &spec,
                    q,
                    s,
                    &run.results[k],
                    &format!("{kind:?} policy {policy:?} pair {k}"),
                );
            }
        }
    }

    #[test]
    fn simd_lane_cigars_replay_to_the_reported_score(
        lens in prop::collection::vec((1usize..200, 1usize..200), 1..24),
        seed in 0u64..1000,
        threads in 1usize..5,
        affine_gaps in prop_oneof![Just(false), Just(true)],
        kind in prop_oneof![
            Just(KindSpec::Global),
            Just(KindSpec::SemiGlobal),
            Just(KindSpec::Local),
        ],
    ) {
        // The SIMD backend directly: every pair of a randomized ragged
        // batch must come back with the exact scalar score and a CIGAR
        // that replays to it — full lane groups, leftovers, and band
        // overflows (random pairs with skewed lengths push paths far
        // off the corridor) all included, for every kind the striped
        // kernel advertises.
        let pairs = random_batch(&lens, seed ^ 0x51d);
        let spec = SchemeSpec {
            kind,
            match_score: 2,
            mismatch: -1,
            gap: if affine_gaps {
                GapSpec::Affine { open: -2, extend: -1 }
            } else {
                GapSpec::Linear { gap: -1 }
            },
        };
        let engine = anyseq_engine::SimdEngine::default();
        let view = BatchView::from_pairs(&pairs);
        let alns = engine.align_batch(&spec, view.refs(), threads).unwrap();
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_replays(&spec, q, s, &alns[k], &format!("simd {kind:?} lane pair {k}"));
        }
    }

    #[test]
    fn nonglobal_scores_are_bit_identical_on_every_backend(
        lens in prop::collection::vec((1usize..200, 1usize..200), 1..24),
        seed in 0u64..1000,
        threads in 1usize..4,
        kind in prop_oneof![Just(KindSpec::SemiGlobal), Just(KindSpec::Local)],
        affine_gaps in prop_oneof![Just(false), Just(true)],
    ) {
        // SemiGlobal and Local are first-class on the SIMD path now:
        // Auto and every Fixed backend must reproduce the scalar
        // optimum bit-for-bit.
        let pairs = random_batch(&lens, seed ^ 0x5e71);
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec {
            kind,
            match_score: 2,
            mismatch: -1,
            gap: if affine_gaps {
                GapSpec::Affine { open: -2, extend: -1 }
            } else {
                GapSpec::Linear { gap: -1 }
            },
        };
        let expected: Vec<i32> = pairs.iter().map(|(q, s)| spec.score_scalar(q, s)).collect();
        let sched = scheduler_for(threads, 16);
        for policy in [
            Policy::Auto,
            Policy::Fixed(BackendId::Scalar),
            Policy::Fixed(BackendId::Simd),
            Policy::Fixed(BackendId::Wavefront),
        ] {
            let dispatch = Dispatch::standard(policy);
            let run = sched.try_score_batch(&dispatch, &spec, &view).unwrap();
            prop_assert_eq!(&run.results, &expected, "{:?} policy {:?}", kind, policy);
            if policy == Policy::Fixed(BackendId::Simd) {
                prop_assert_eq!(
                    run.stats.fallbacks, 0,
                    "SIMD runs {:?} natively now", kind
                );
            }
        }
    }

    #[test]
    fn simd_fallback_path_stays_oracle_identical(
        lens in prop::collection::vec((1usize..180, 1usize..180), 1..20),
        seed in 0u64..1000,
    ) {
        // FreeEnd is the one kind the striped kernel still refuses
        // (Local and SemiGlobal run natively since the kind-generic
        // kernels landed): every unit must fall back to scalar,
        // results unchanged.
        let pairs = random_batch(&lens, seed ^ 0xfa12);
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec {
            kind: KindSpec::FreeEnd,
            match_score: 2,
            mismatch: -1,
            gap: GapSpec::Linear { gap: -1 },
        };
        let expected: Vec<i32> = pairs.iter().map(|(q, s)| spec.score_scalar(q, s)).collect();
        let sched = scheduler_for(2, 16);
        let dispatch = Dispatch::standard(Policy::Fixed(BackendId::Simd));
        let run = sched.try_score_batch(&dispatch, &spec, &view).unwrap();
        prop_assert_eq!(&run.results, &expected);
        prop_assert!(run.stats.fallbacks > 0, "expected fallbacks for simd");
        prop_assert!(
            run.stats.per_backend.iter().all(|b| b.backend == "scalar"),
            "only scalar should have run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn batch_view_runs_are_bit_identical_across_storage(
        lens in prop::collection::vec((1usize..200, 1usize..200), 1..24),
        seed in 0u64..1000,
        threads in 1usize..4,
        affine_gaps in prop_oneof![Just(false), Just(true)],
    ) {
        // The zero-copy request model must not care where the bytes
        // live: a BatchView over owned pairs and a SeqStore-arena view
        // must produce identical scores and alignments on every
        // backend.
        let pairs = random_batch(&lens, seed ^ 0x71e0);
        let spec = if affine_gaps {
            SchemeSpec::global_affine(2, -1, -2, -1)
        } else {
            SchemeSpec::global_linear(2, -1, -1)
        };
        let mut store = anyseq_seq::SeqStore::new();
        let ids: Vec<_> = pairs
            .iter()
            .map(|(q, s)| (store.push(q).unwrap(), store.push(s).unwrap()))
            .collect();
        let store_view = store.view(&ids);
        let view = BatchView::from_pairs(&pairs);
        let sched = scheduler_for(threads, 16);
        for policy in [
            Policy::Auto,
            Policy::Fixed(BackendId::Scalar),
            Policy::Fixed(BackendId::Simd),
            Policy::Fixed(BackendId::Wavefront),
        ] {
            let dispatch = Dispatch::standard(policy);
            let via_view = sched.try_score_batch(&dispatch, &spec, &view).unwrap();
            let via_store = sched.try_score_batch(&dispatch, &spec, &store_view).unwrap();
            prop_assert_eq!(&via_view.results, &via_store.results, "store policy {:?}", policy);

            let aln_view = sched.try_align_batch(&dispatch, &spec, &view).unwrap();
            let aln_store = sched.try_align_batch(&dispatch, &spec, &store_view).unwrap();
            prop_assert_eq!(aln_view.results.len(), aln_store.results.len());
            for (k, (a, b)) in aln_view.results.iter().zip(&aln_store.results).enumerate() {
                prop_assert_eq!(a.score, b.score, "align policy {:?} pair {}", policy, k);
                prop_assert_eq!(&a.ops, &b.ops, "align policy {:?} pair {}", policy, k);
            }
        }
    }

    #[test]
    fn cached_runs_are_bit_identical_to_uncached(
        lens in prop::collection::vec((1usize..160, 1usize..160), 1..14),
        seed in 0u64..1000,
        threads in 1usize..4,
        affine_gaps in prop_oneof![Just(false), Just(true)],
    ) {
        // The result cache must be invisible in the outputs: for a
        // batch with injected duplicates, a cache-enabled scheduler
        // (cold *and* warm) produces exactly the scores and CIGARs of
        // a cache-off run, on every backend and policy, and the hit /
        // miss counters always partition the batch.
        use anyseq_engine::cache::{CACHE_HITS, CACHE_MISSES};
        let mut pairs = random_batch(&lens, seed ^ 0xcac4e);
        // Duplicate roughly half the batch so both the in-batch dedup
        // (cold) and the cross-batch reuse (warm) paths are exercised.
        let dups: Vec<_> = pairs.iter().step_by(2).cloned().collect();
        pairs.extend(dups);
        let view = BatchView::from_pairs(&pairs);
        let spec = if affine_gaps {
            SchemeSpec::global_affine(2, -1, -2, -1)
        } else {
            SchemeSpec::global_linear(2, -1, -1)
        };
        let sched = scheduler_for(threads, 16);
        for policy in [
            Policy::Auto,
            Policy::Fixed(BackendId::Scalar),
            Policy::Fixed(BackendId::Simd),
            Policy::Fixed(BackendId::Wavefront),
        ] {
            let plain = Dispatch::standard(policy);
            let cached = anyseq_engine::DispatchPolicy::new(policy)
                .cache_mb(8)
                .standard();

            let base = sched.try_score_batch(&plain, &spec, &view).unwrap();
            let cold = sched.try_score_batch(&cached, &spec, &view).unwrap();
            let warm = sched.try_score_batch(&cached, &spec, &view).unwrap();
            prop_assert_eq!(&cold.results, &base.results, "cold scores {:?}", policy);
            prop_assert_eq!(&warm.results, &base.results, "warm scores {:?}", policy);
            for run in [&cold, &warm] {
                prop_assert_eq!(
                    run.stats.counters[CACHE_HITS] + run.stats.counters[CACHE_MISSES],
                    run.stats.pairs,
                    "hits + misses must partition the batch ({:?})", policy
                );
            }
            prop_assert_eq!(
                warm.stats.counters[CACHE_HITS], warm.stats.pairs,
                "second identical batch is fully warm ({:?})", policy
            );

            let aln_base = sched.try_align_batch(&plain, &spec, &view).unwrap();
            let aln_cold = sched.try_align_batch(&cached, &spec, &view).unwrap();
            let aln_warm = sched.try_align_batch(&cached, &spec, &view).unwrap();
            for (k, base) in aln_base.results.iter().enumerate() {
                prop_assert_eq!(
                    base.score, aln_cold.results[k].score,
                    "cold align score {:?} pair {}", policy, k
                );
                prop_assert_eq!(
                    &base.ops, &aln_cold.results[k].ops,
                    "cold CIGAR {:?} pair {}", policy, k
                );
                prop_assert_eq!(
                    &base.ops, &aln_warm.results[k].ops,
                    "warm CIGAR {:?} pair {}", policy, k
                );
            }
        }
    }

    #[test]
    fn scalar_and_wavefront_units_copy_zero_bytes(
        lens in prop::collection::vec((1usize..180, 1usize..180), 1..16),
        seed in 0u64..1000,
        align in prop_oneof![Just(false), Just(true)],
    ) {
        // The zero-copy acceptance bar: on backends that consume
        // PairRefs directly (no lane transpose), the whole pipeline
        // reports zero copied sequence bytes — the scheduler gather
        // counter is present-and-zero and no backend copy counter
        // appears.
        let pairs = random_batch(&lens, seed ^ 0x0c0b);
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let sched = scheduler_for(2, 16);
        for backend in [BackendId::Scalar, BackendId::Wavefront] {
            let dispatch = Dispatch::standard(Policy::Fixed(backend));
            let stats = if align {
                sched.try_align_batch(&dispatch, &spec, &view).unwrap().stats
            } else {
                sched.try_score_batch(&dispatch, &spec, &view).unwrap().stats
            };
            prop_assert_eq!(
                stats.bytes_copied(),
                0,
                "{:?} copied bytes: {:?}",
                backend,
                stats.counters
            );
            prop_assert_eq!(
                stats.counters.get("sched.bytes_copied").copied(),
                Some(0),
                "gather counter must be present for {:?}", backend
            );
        }
    }

    #[test]
    fn sharded_runs_are_bit_identical_to_unsharded(
        len in 1200usize..2000,
        div in prop_oneof![Just(0.03), Just(0.12)],
        seed in 0u64..1000,
        shards in 1u64..8,
        affine_gaps in prop_oneof![Just(false), Just(true)],
        kind in prop_oneof![
            Just(KindSpec::Global),
            Just(KindSpec::SemiGlobal),
            Just(KindSpec::Local),
            Just(KindSpec::FreeEnd),
        ],
    ) {
        // Sharding is a pure memory refactor: cutting a pair into
        // subject slabs stitched through border seams must leave
        // scores AND CIGARs bit-identical to the unsharded run, across
        // gap models and all four alignment kinds, for any shard count.
        let (q, s) = genome_pair(len, div, seed ^ 0x54a2d);
        let cells = (q.len() as u64) * (s.len() as u64);
        let shard_cells = (cells / shards).max(1);
        let spec = if affine_gaps {
            SchemeSpec::global_affine(2, -1, -2, -1).with_kind(kind)
        } else {
            SchemeSpec::global_linear(2, -1, -1).with_kind(kind)
        };
        let pairs = vec![(q, s)];
        let view = BatchView::from_pairs(&pairs);
        let sched = scheduler_for(4, 16);
        let plain = Dispatch::standard(Policy::Fixed(BackendId::Wavefront));
        let sharded = anyseq_engine::DispatchPolicy::fixed(BackendId::Wavefront)
            .shard_cells(shard_cells)
            .standard();

        let base = sched.try_score_batch(&plain, &spec, &view).unwrap();
        let cut = sched.try_score_batch(&sharded, &spec, &view).unwrap();
        prop_assert_eq!(&cut.results, &base.results, "{:?} scores shards={}", kind, shards);
        if shards >= 2 {
            // The budget genuinely bites (even after the one-tile
            // clamp), so the score pass must run cut into slabs.
            prop_assert!(
                cut.stats.counters.get("wavefront.shards").copied().unwrap_or(0) >= 2,
                "shards={} counters={:?}", shards, cut.stats.counters
            );
        }

        let aln_base = sched.try_align_batch(&plain, &spec, &view).unwrap();
        let aln_cut = sched.try_align_batch(&sharded, &spec, &view).unwrap();
        prop_assert_eq!(
            aln_cut.results[0].score, aln_base.results[0].score,
            "{:?} align score shards={}", kind, shards
        );
        prop_assert_eq!(
            &aln_cut.results[0].ops, &aln_base.results[0].ops,
            "{:?} CIGAR shards={}", kind, shards
        );
    }
}

#[test]
fn engine_contract_accepts_raw_pair_refs() {
    // PairRef is just a pair of code slices: backends must accept refs
    // built from arbitrary storage, not only BatchView helpers.
    let (q, s) = genome_pair(500, 0.05, 77);
    let refs = [PairRef::new(q.codes(), s.codes())];
    let spec = SchemeSpec::global_linear(2, -1, -1);
    let expected = spec.score_scalar(&q, &s);
    for engine in [
        Box::new(anyseq_engine::ScalarEngine) as Box<dyn Engine>,
        Box::new(anyseq_engine::SimdEngine::default()),
        Box::new(anyseq_engine::WavefrontEngine::default()),
    ] {
        let got = engine.score_batch(&spec, &refs, 2).unwrap();
        assert_eq!(got, vec![expected], "{}", engine.caps().name);
    }
}

#[test]
fn batch_scheduler_mixes_pooled_and_exclusive_phases() {
    // Small reads (pooled SIMD units) plus pairs past the wavefront
    // threshold (exclusive units) in one batch: both phases must fill
    // their slots, in input order.
    let mut pairs = random_batch(&[(150, 150); 40], 5);
    let mut sim = GenomeSim::new(77);
    let big_a = sim.generate(2200);
    let big_b = sim.mutate(&big_a, 0.06);
    pairs.insert(7, (big_a.clone(), big_b.clone()));
    pairs.push((big_b, big_a));
    let view = BatchView::from_pairs(&pairs);

    let spec = SchemeSpec::global_linear(2, -1, -1);
    let dispatch = Dispatch::standard(Policy::Auto);
    let run = scheduler_for(3, 32)
        .try_score_batch(&dispatch, &spec, &view)
        .unwrap();
    for (k, (q, s)) in pairs.iter().enumerate() {
        assert_eq!(run.results[k], spec.score_scalar(q, s), "pair {k}");
    }
    let names: Vec<&str> = run.stats.per_backend.iter().map(|b| b.backend).collect();
    assert!(names.contains(&"simd"), "pooled SIMD phase ran: {names:?}");
    assert!(
        names.contains(&"wavefront"),
        "exclusive wavefront phase ran: {names:?}"
    );
}

#[test]
fn auto_alignment_batches_stay_on_the_simd_path() {
    // The acceptance bar for the lane-packed traceback: a short-read
    // alignment batch under `Policy::Auto` runs on the SIMD backend
    // without any dispatch-level fallback, and the band telemetry
    // confirms the lanes (not the in-backend scalar rescue) did the
    // work.
    let reference = GenomeSim::new(41).generate(150_000);
    let mut rs = ReadSim::new(ReadSimProfile::default(), 43);
    let pairs: Vec<(Seq, Seq)> = rs
        .simulate_pairs(&reference, 300)
        .into_iter()
        .map(|p| (p.a, p.b))
        .collect();
    let view = BatchView::from_pairs(&pairs);
    let spec = SchemeSpec::global_affine(2, -1, -2, -1);
    let dispatch = Dispatch::standard(Policy::Auto);
    let run = scheduler_for(4, 64)
        .try_align_batch(&dispatch, &spec, &view)
        .unwrap();

    for (k, (q, s)) in pairs.iter().enumerate() {
        assert_replays(
            &spec,
            q,
            s,
            &run.results[k],
            &format!("auto align pair {k}"),
        );
    }
    assert_eq!(run.stats.fallbacks, 0, "no unit left the SIMD path");
    let simd = run
        .stats
        .per_backend
        .iter()
        .find(|b| b.backend == "simd")
        .expect("SIMD backend must have executed the batch");
    assert_eq!(simd.pairs, pairs.len() as u64);
    let lane_pairs = run
        .stats
        .counters
        .get("simd.lane_pairs")
        .copied()
        .unwrap_or(0);
    assert!(
        lane_pairs > 0,
        "lane traceback must carry the bulk: {:?}",
        run.stats.counters
    );
    assert_eq!(
        run.stats
            .counters
            .get("simd.band_overflows")
            .copied()
            .unwrap_or(0),
        0,
        "Illumina-profile reads fit the default band"
    );
}

#[test]
fn auto_nonglobal_batches_stay_on_the_simd_path() {
    // The acceptance bar for the kind-generic kernels: short
    // SemiGlobal and Local bins under `Policy::Auto` route to the
    // SIMD backend for both score and align — no dispatch-level
    // fallback, no kind-capability refusal, lanes carrying the bulk.
    let reference = GenomeSim::new(47).generate(120_000);
    let mut rs = ReadSim::new(ReadSimProfile::default(), 48);
    let pairs: Vec<(Seq, Seq)> = rs
        .simulate_pairs(&reference, 240)
        .into_iter()
        .map(|p| (p.a, p.b))
        .collect();
    let view = BatchView::from_pairs(&pairs);
    let dispatch = Dispatch::standard(Policy::Auto);
    let sched = scheduler_for(4, 64);
    for kind in [KindSpec::SemiGlobal, KindSpec::Local] {
        let spec = SchemeSpec {
            kind,
            match_score: 2,
            mismatch: -1,
            gap: GapSpec::Affine {
                open: -2,
                extend: -1,
            },
        };
        let expected: Vec<i32> = pairs.iter().map(|(q, s)| spec.score_scalar(q, s)).collect();

        let scored = sched.try_score_batch(&dispatch, &spec, &view).unwrap();
        assert_eq!(scored.results, expected, "{kind:?} scores");
        assert_eq!(scored.stats.fallbacks, 0, "{kind:?} score fallbacks");
        assert!(
            !scored
                .stats
                .counters
                .contains_key(anyseq_engine::FALLBACK_KIND_UNSUPPORTED),
            "{kind:?}: no kind-capability refusal under Auto"
        );

        let run = sched.try_align_batch(&dispatch, &spec, &view).unwrap();
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_replays(
                &spec,
                q,
                s,
                &run.results[k],
                &format!("auto {kind:?} align pair {k}"),
            );
        }
        assert_eq!(run.stats.fallbacks, 0, "{kind:?} align fallbacks");
        let simd = run
            .stats
            .per_backend
            .iter()
            .find(|b| b.backend == "simd")
            .unwrap_or_else(|| panic!("{kind:?}: SIMD backend must have executed the batch"));
        assert_eq!(simd.pairs, pairs.len() as u64);
        let lane_pairs = run
            .stats
            .counters
            .get("simd.lane_pairs")
            .copied()
            .unwrap_or(0);
        assert!(
            lane_pairs > 0,
            "{kind:?}: lane traceback must carry the bulk: {:?}",
            run.stats.counters
        );
    }
}

#[test]
fn batch_scheduler_stats_account_all_cells() {
    let pairs = random_batch(&[(100, 120), (64, 64), (150, 150), (1, 1)], 9);
    let view = BatchView::from_pairs(&pairs);
    let spec = SchemeSpec::global_linear(2, -1, -1);
    let dispatch = Dispatch::standard(Policy::Auto);
    let run = scheduler_for(2, 2)
        .try_score_batch(&dispatch, &spec, &view)
        .unwrap();
    let expected_cells: u64 = pairs.iter().map(|(q, s)| (q.len() * s.len()) as u64).sum();
    assert_eq!(run.stats.cells, expected_cells);
    let backend_cells: u64 = run.stats.per_backend.iter().map(|b| b.cells).sum();
    assert_eq!(
        backend_cells, expected_cells,
        "every cell attributed to a backend"
    );
    assert!(run.stats.gcups() > 0.0);
}

#[test]
fn fasta_round_trip_through_alignment() {
    use anyseq::seq::fasta;
    let text = b">query first\nACGTACGTTGACCA\n>subject second\nACGTACGTTGCCAA\n";
    let records = fasta::read_fasta(&text[..]).unwrap();
    assert_eq!(records.len(), 2);
    let scheme = global(linear(simple(2, -1), -1));
    let aln = scheme.align(&records[0].seq, &records[1].seq);
    aln.validate::<Global, _, _>(
        &records[0].seq,
        &records[1].seq,
        scheme.gap(),
        scheme.subst(),
    )
    .unwrap();
}
