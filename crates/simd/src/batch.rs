//! Inter-sequence SIMD batch scoring for short reads: each vector lane
//! carries one *whole* alignment (the classic inter-sequence scheme the
//! paper uses for the NGS use case (ii), with 16-bit in-lane scores).
//!
//! Lanes must share matrix dimensions, so pairs are bucketed by
//! `(|q|, |s|)` — for Illumina-style reads the dominant bucket is
//! `(150, 150)` and lane occupancy is near-perfect. A bucket's remainder
//! of two or more pairs rides one *partial* lane group (unused lanes
//! padded with a repeat and never written back); lone pairs and
//! oversized problems fall back to the scalar engine.
//!
//! Input is borrowed: a slice of [`PairRef`]s (`&[u8]` query/subject
//! codes). The only sequence bytes this module copies are the
//! lane-*transposed* row/column buffers the vector kernel needs —
//! `(|q| + |s|) × L` bytes per lane group, reported as
//! [`TraceStats::bytes_copied`] so callers can verify the pipeline
//! above stayed zero-copy.

use crate::kernel::{block_kernel_kind, from16, max_block_extent, BlockBorders, SimdSubst};
use crate::traceback::TraceStats;
use anyseq_core::kind::{AlignKind, OptRegion};
use anyseq_core::scheme::Scheme;
use anyseq_core::score::Score;
use anyseq_core::scoring::GapModel;
use anyseq_obs::Stage;
use anyseq_seq::PairRef;
use anyseq_wavefront::run_workers;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Smallest bucket remainder the score path runs as a partial lane
/// group: one `L`-lane block costs less than two scalar pairs on either
/// ISA tier, so only a lone leftover stays scalar.
const SCORE_MIN_PARTIAL: usize = 2;

/// One vector block's worth of equal-dimension pairs.
pub struct LaneGroup<const L: usize> {
    /// Input index carried by each lane. Lanes `fill..` of a partial
    /// group repeat the last live index so the block stays well-formed.
    pub lanes: [usize; L],
    /// Live lanes: only `lanes[..fill]` are written back, decoded or
    /// counted.
    pub fill: usize,
}

impl<const L: usize> LaneGroup<L> {
    /// `chunk` (1 ..= `L` indices) padded to a whole block.
    fn of(chunk: &[usize]) -> LaneGroup<L> {
        let fill = chunk.len();
        LaneGroup {
            lanes: std::array::from_fn(|l| chunk[l.min(fill - 1)]),
            fill,
        }
    }

    /// The live input indices.
    pub fn live(&self) -> &[usize] {
        &self.lanes[..self.fill]
    }

    /// Bit mask of the live lanes (`1 ≤ fill ≤ L ≤ 32`).
    pub fn live_mask(&self) -> u32 {
        u32::MAX >> (32 - self.fill)
    }
}

/// A batch split into `L`-lane groups of equal-dimension pairs plus the
/// indices that must take the in-backend scalar path (lone leftovers,
/// empty sequences, pairs past the 16-bit extent budget). Shared by the
/// score and traceback paths so both fill lanes the same way.
pub struct LaneGroups<const L: usize> {
    /// Lane groups, in `(|q|, |s|)` then input order.
    pub groups: Vec<LaneGroup<L>>,
    /// Input indices handled by per-pair scalar kernels.
    pub scalar_idx: Vec<usize>,
}

impl<const L: usize> LaneGroups<L> {
    /// Buckets `pairs` by matrix dimensions and cuts each bucket into
    /// full lane groups; a remainder of at least `min_partial` pairs
    /// becomes one partial group, everything else goes scalar. Buckets
    /// come from a stable sort, so the same batch yields the same
    /// groups on every run.
    pub fn build(pairs: &[PairRef<'_>], extent_budget: usize, min_partial: usize) -> LaneGroups<L> {
        let dims = |k: usize| (pairs[k].q.len(), pairs[k].s.len());
        let (mut lane_idx, mut scalar_idx): (Vec<usize>, Vec<usize>) =
            (0..pairs.len()).partition(|&k| {
                let (n, m) = dims(k);
                n > 0 && m > 0 && n + m <= extent_budget
            });
        lane_idx.sort_by_key(|&k| dims(k));
        let mut groups = Vec::with_capacity(lane_idx.len() / L + 1);
        for bucket in lane_idx.chunk_by(|&a, &b| dims(a) == dims(b)) {
            let mut chunks = bucket.chunks_exact(L);
            groups.extend(chunks.by_ref().map(LaneGroup::of));
            let rest = chunks.remainder();
            if rest.len() >= min_partial.max(1) {
                groups.push(LaneGroup::of(rest));
            } else {
                scalar_idx.extend_from_slice(rest);
            }
        }
        LaneGroups { groups, scalar_idx }
    }

    /// Runs the groups, then the scalar pairs, on `threads` workers of
    /// the shared pool ([`run_workers`]), drawn off one counter. `group`
    /// pushes `(pair index, value)` for a group's live lanes, `scalar`
    /// computes one pair's value. Each worker keeps its own outputs and
    /// telemetry; after the join they are scattered into input order
    /// (`len` values, `fill` where none was written) and merged.
    pub(crate) fn run<T: Clone + Send>(
        &self,
        threads: usize,
        len: usize,
        fill: T,
        group: impl Fn(&LaneGroup<L>, &mut TraceStats, &mut Vec<(usize, T)>) + Sync,
        scalar: impl Fn(usize) -> T + Sync,
    ) -> (Vec<T>, TraceStats) {
        let next = AtomicUsize::new(0);
        let done = run_workers(threads, |_| {
            let mut out = Vec::with_capacity(len / threads.max(1));
            let mut stats = TraceStats::default();
            loop {
                let item = next.fetch_add(1, Ordering::Relaxed);
                if let Some(g) = self.groups.get(item) {
                    group(g, &mut stats, &mut out);
                } else if let Some(&idx) = self.scalar_idx.get(item - self.groups.len()) {
                    stats.scalar_pairs += 1;
                    out.push((idx, scalar(idx)));
                } else {
                    break (out, stats);
                }
            }
        });
        let mut values = vec![fill; len];
        let mut stats = TraceStats::default();
        for (out, worker) in done {
            for (idx, value) in out {
                values[idx] = value;
            }
            stats.merge(&worker);
        }
        (values, stats)
    }
}

/// The lane transpose — the one copy of sequence bytes on the batch
/// paths: row `r` of the result holds base `r` of every lane's query,
/// column `c` base `c` of every lane's subject. Filled lane-major so
/// each source sequence is read once, front to back.
pub(crate) fn transpose_lanes<const L: usize>(
    pairs: &[PairRef<'_>],
    lanes: &[usize; L],
) -> (Vec<[u8; L]>, Vec<[u8; L]>) {
    let first = pairs[lanes[0]];
    let mut q_rows = vec![[0u8; L]; first.q.len()];
    let mut s_cols = vec![[0u8; L]; first.s.len()];
    for (lane, &k) in lanes.iter().enumerate() {
        let p = pairs[k];
        debug_assert!(p.q.len() == q_rows.len() && p.s.len() == s_cols.len());
        for (row, &c) in q_rows.iter_mut().zip(p.q) {
            row[lane] = c;
        }
        for (col, &c) in s_cols.iter_mut().zip(p.s) {
            col[lane] = c;
        }
    }
    (q_rows, s_cols)
}

/// Scores a batch of independent pairs with `L`-lane SIMD; returns one
/// kind-`K` score per pair, in input order (bit-identical to
/// `scheme.score`).
///
/// `threads` workers of the shared pool
/// ([`anyseq_wavefront::run_workers`]) draw lane groups and scalar
/// pairs off one counter; the calling thread is worker 0, so
/// `threads ≤ 1` runs inline and spawns nothing. The result does not
/// depend on `threads`.
pub fn score_batch_simd<K, G, SS, const L: usize>(
    scheme: &Scheme<K, G, SS>,
    pairs: &[PairRef<'_>],
    threads: usize,
) -> Vec<Score>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    score_batch_simd_stats::<K, G, SS, L>(scheme, pairs, threads).0
}

/// [`score_batch_simd`] returning the run's execution counters as well
/// (lane/scalar pair split and the transpose-buffer byte count — the
/// only sequence bytes the batch path copies).
pub fn score_batch_simd_stats<K, G, SS, const L: usize>(
    scheme: &Scheme<K, G, SS>,
    pairs: &[PairRef<'_>],
    threads: usize,
) -> (Vec<Score>, TraceStats)
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    score_batch_simd_xdrop::<K, G, SS, L>(scheme, pairs, threads, 0)
}

/// [`score_batch_simd_stats`] with opt-in X-drop early termination.
///
/// `xdrop > 0` enables per-lane retirement for non-corner kinds: a lane
/// whose current-row maximum has dropped more than `xdrop` below its
/// running best stops relaxing and reports the best it has seen (see
/// [`block_kernel_kind`]). Retired-lane counts surface as
/// [`TraceStats::xdrop_retired`]. `xdrop == 0` (and any corner-optimum
/// kind, where the score lives at `(n, m)` and early exit is
/// meaningless) runs the bit-exact path.
pub fn score_batch_simd_xdrop<K, G, SS, const L: usize>(
    scheme: &Scheme<K, G, SS>,
    pairs: &[PairRef<'_>],
    threads: usize,
    xdrop: i32,
) -> (Vec<Score>, TraceStats)
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let gap = *scheme.gap();
    let subst = *scheme.subst();
    let extent_budget = max_block_extent(&gap, &subst);
    let built = LaneGroups::<L>::build(pairs, extent_budget, SCORE_MIN_PARTIAL);
    // X-drop only applies where an optimum can be frozen early; corner
    // kinds always relax the full matrix. Clamp to the i16 block budget.
    let xdrop16 = if matches!(K::OPT, OptRegion::Corner) {
        0i16
    } else {
        xdrop.clamp(0, 12_000) as i16
    };

    let group = |group: &LaneGroup<L>, stats: &mut TraceStats, out: &mut Vec<(usize, Score)>| {
        let p0 = pairs[group.lanes[0]];
        stats.lane_pairs += group.fill as u64;
        stats.bytes_copied += ((p0.q.len() + p0.s.len()) * L) as u64;
        let (results, retired) =
            score_lane_group::<K, G, SS, L>(&gap, &subst, pairs, &group.lanes, xdrop16);
        stats.xdrop_retired += (retired & group.live_mask()).count_ones() as u64;
        out.extend(group.live().iter().copied().zip(results));
    };
    let scalar = |idx: usize| {
        let p = pairs[idx];
        anyseq_obs::span(Stage::Kernel, || scheme.score_codes(p.q, p.s))
    };
    built.run(threads, pairs.len(), 0, group, scalar)
}

/// Scores `L` equal-dimension pairs in one vector block; returns the
/// per-lane scores plus the X-drop retirement mask (0 when disabled).
fn score_lane_group<K, G, SS, const L: usize>(
    gap: &G,
    subst: &SS,
    pairs: &[PairRef<'_>],
    lanes: &[usize; L],
    xdrop: i16,
) -> ([Score; L], u32)
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let (n, m) = (pairs[lanes[0]].q.len(), pairs[lanes[0]].s.len());
    // Kind `K`'s init stripes are lane-uniform (base 0).
    let mut block = BlockBorders::<L>::init::<K, G>(gap, n, m);
    let (q_rows, s_cols) = anyseq_obs::span(Stage::Transpose, || transpose_lanes(pairs, lanes));

    let opt = anyseq_obs::span(Stage::Kernel, || {
        if xdrop > 0 {
            block_kernel_kind::<K, G, SS, true, L>(gap, subst, &q_rows, &s_cols, &mut block, xdrop)
        } else {
            block_kernel_kind::<K, G, SS, false, L>(gap, subst, &q_rows, &s_cols, &mut block, 0)
        }
    });

    (
        std::array::from_fn(|l| from16(opt.best.0[l], 0)),
        opt.retired,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::prelude::{affine, global, linear, local, semiglobal, simple};
    use anyseq_seq::testsupport::read_pairs;
    use anyseq_seq::{BatchView, Seq};

    #[test]
    fn batch_simd_matches_scalar_linear() {
        let pairs = read_pairs(300, 3);
        let view = BatchView::from_pairs(&pairs);
        let scheme = global(linear(simple(2, -1), -1));
        let (simd, stats) = score_batch_simd_stats::<_, _, _, 16>(&scheme, view.refs(), 8);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(simd[k], scheme.score(q, s), "pair {k}");
        }
        assert_eq!(stats.lane_pairs + stats.scalar_pairs, pairs.len() as u64);
        assert!(
            stats.bytes_copied > 0,
            "the transpose is the one copy and must be accounted"
        );
    }

    #[test]
    fn batch_simd_matches_scalar_affine() {
        let pairs = read_pairs(300, 5);
        let view = BatchView::from_pairs(&pairs);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let simd = score_batch_simd::<_, _, _, 8>(&scheme, view.refs(), 4);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(simd[k], scheme.score(q, s), "pair {k}");
        }
    }

    #[test]
    fn batch_simd_handles_empty_and_tiny() {
        let scheme = global(linear(simple(2, -1), -1));
        assert!(score_batch_simd::<_, _, _, 8>(&scheme, &[], 4).is_empty());
        let a = Seq::from_ascii(b"ACGT").unwrap();
        let empty = Seq::new();
        let pairs = vec![(a.clone(), a.clone()), (a.clone(), empty)];
        let view = BatchView::from_pairs(&pairs);
        let out = score_batch_simd::<_, _, _, 8>(&scheme, view.refs(), 2);
        assert_eq!(out[0], 8);
        assert_eq!(out[1], -4);
    }

    #[test]
    fn batch_simd_matches_scalar_semiglobal_and_local() {
        let pairs = read_pairs(200, 11);
        let view = BatchView::from_pairs(&pairs);
        let semi = semiglobal(affine(simple(2, -3), -3, -1));
        let (out, stats) = score_batch_simd_stats::<_, _, _, 16>(&semi, view.refs(), 4);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(out[k], semi.score(q, s), "semi pair {k}");
        }
        assert!(stats.lane_pairs > 0, "lanes must fill for uniform reads");
        assert_eq!(stats.xdrop_retired, 0, "x-drop is off by default");
        let loc = local(linear(simple(2, -3), -2));
        let out = score_batch_simd::<_, _, _, 8>(&loc, view.refs(), 4);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(out[k], loc.score(q, s), "local pair {k}");
        }
    }

    #[test]
    fn xdrop_huge_threshold_exact_tiny_threshold_retires() {
        // 35 identical prefix-then-divergence pairs: two full 16-lane
        // groups and a partial one whose 13 padding lanes diverge just
        // as hard but must not be counted.
        let q = Seq::from_ascii(&[b"A".repeat(10), b"C".repeat(60)].concat()).unwrap();
        let s = Seq::from_ascii(&[b"A".repeat(10), b"G".repeat(60)].concat()).unwrap();
        let pairs: Vec<(Seq, Seq)> = (0..35).map(|_| (q.clone(), s.clone())).collect();
        let view = BatchView::from_pairs(&pairs);
        let semi = semiglobal(linear(simple(2, -3), -2));
        let exact = score_batch_simd::<_, _, _, 16>(&semi, view.refs(), 2);
        let (huge, st_huge) = score_batch_simd_xdrop::<_, _, _, 16>(&semi, view.refs(), 2, 30_000);
        assert_eq!(huge, exact, "huge X must not change results");
        assert_eq!(st_huge.xdrop_retired, 0);
        let (_tiny, st_tiny) = score_batch_simd_xdrop::<_, _, _, 16>(&semi, view.refs(), 2, 20);
        assert_eq!(st_tiny.xdrop_retired, 35, "every live lane diverges hard");
        // Corner kinds ignore the knob entirely.
        let glob = global(linear(simple(2, -3), -2));
        let (g_scores, g_stats) = score_batch_simd_xdrop::<_, _, _, 16>(&semi, view.refs(), 2, 0);
        assert_eq!(g_scores, exact);
        assert_eq!(g_stats.xdrop_retired, 0);
        let (gx, gs) = score_batch_simd_xdrop::<_, _, _, 16>(&glob, view.refs(), 2, 5);
        assert_eq!(gs.xdrop_retired, 0, "corner kinds never retire");
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(gx[k], glob.score(q, s), "global pair {k}");
        }
    }

    #[test]
    fn lane_groups_sort_buckets_and_pad_partial_groups_with_a_repeat() {
        // Three (3, 4) pairs interleaved with one (5, 5) pair, one empty
        // query and one pair past the extent budget.
        let seq = |len: usize| Seq::from_codes(vec![1u8; len]).unwrap();
        let dims = [(3, 4), (5, 5), (3, 4), (0, 4), (3, 4), (40, 40)];
        let pairs: Vec<(Seq, Seq)> = dims.iter().map(|&(n, m)| (seq(n), seq(m))).collect();
        let view = BatchView::from_pairs(&pairs);
        let built = LaneGroups::<4>::build(view.refs(), 50, 2);
        assert_eq!(built.groups.len(), 1);
        assert_eq!(built.groups[0].lanes, [0, 2, 4, 4], "input order, padded");
        assert_eq!(built.groups[0].live(), &[0, 2, 4]);
        assert_eq!(built.groups[0].live_mask(), 0b0111);
        assert_eq!(
            built.scalar_idx,
            [3, 5, 1],
            "rejects first, then lone leftovers"
        );
        // A higher threshold sends the same remainder to the scalar path.
        let built = LaneGroups::<4>::build(view.refs(), 50, 4);
        assert!(built.groups.is_empty());
        assert_eq!(built.scalar_idx, [3, 5, 0, 2, 4, 1]);
        // A full group plus a remainder of exactly `min_partial`.
        let pairs: Vec<(Seq, Seq)> = (0..6).map(|_| (seq(3), seq(4))).collect();
        let view = BatchView::from_pairs(&pairs);
        let built = LaneGroups::<4>::build(view.refs(), 50, 2);
        let lanes: Vec<_> = built.groups.iter().map(|g| (g.lanes, g.fill)).collect();
        assert_eq!(lanes, [([0, 1, 2, 3], 4), ([4, 5, 5, 5], 2)]);
    }

    /// The invariant the batch pools' result scatter rests on: every
    /// input index is live in exactly one lane of one group or on the
    /// scalar list, a group's lanes share `(|q|, |s|)`, and padding
    /// lanes repeat a live index of their own group.
    fn check_lane_groups<const L: usize>(
        dims: &[(usize, usize)],
        extent_budget: usize,
        min_partial: usize,
    ) {
        let seq = |len: usize| Seq::from_codes(vec![1u8; len]).unwrap();
        let pairs: Vec<(Seq, Seq)> = dims.iter().map(|&(n, m)| (seq(n), seq(m))).collect();
        let view = BatchView::from_pairs(&pairs);
        let built = LaneGroups::<L>::build(view.refs(), extent_budget, min_partial);
        let mut seen = vec![0u32; dims.len()];
        for group in &built.groups {
            assert!((1..=L).contains(&group.fill));
            let shape = dims[group.lanes[0]];
            assert!(group.lanes.iter().all(|&k| dims[k] == shape), "{shape:?}");
            let pad = &group.lanes[group.fill..];
            assert!(pad.iter().all(|k| group.live().contains(k)), "{pad:?}");
            for &k in group.live() {
                seen[k] += 1;
            }
        }
        for &k in &built.scalar_idx {
            seen[k] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "index counts {seen:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn lane_groups_place_every_index_once_in_one_shape(
            dims in proptest::collection::vec((0usize..5, 0usize..5), 0..80),
            extent_budget in 0usize..10,
            min_partial in 0usize..10,
        ) {
            check_lane_groups::<4>(&dims, extent_budget, min_partial);
            check_lane_groups::<8>(&dims, extent_budget, min_partial);
        }
    }

    /// What a bucket of `count` equal-dimension pairs must turn into:
    /// (pairs in live lanes, lane groups run).
    fn expected_split(count: usize, lanes: usize, min_partial: usize) -> (u64, u64) {
        let rest = count % lanes;
        let partial = rest >= min_partial;
        (
            (count - rest + if partial { rest } else { 0 }) as u64,
            (count / lanes + partial as usize) as u64,
        )
    }

    /// Buckets of 1 … L+3 members each, interleaved in input order:
    /// scores and CIGAR replays identical to scalar, padded lanes in
    /// neither pair counter, one whole transpose per group run.
    fn check_partial_groups<K: AlignKind, const L: usize>(
        scheme: &Scheme<K, anyseq_core::scoring::AffineGap, anyseq_core::scoring::SimpleSubst>,
        sizes: &[usize],
        seed: u64,
    ) {
        use crate::traceback::{align_batch_simd, BandCfg, ALIGN_MIN_PARTIAL};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut random = |len: usize| {
            Seq::from_codes((0..len).map(|_| rng.gen_range(0..4u8)).collect()).unwrap()
        };
        // Bucket `b` has its own dimensions; round-robin over the
        // buckets so no bucket is contiguous in the input.
        let dims = |b: usize| (24 + 3 * b, 30 + 2 * b);
        let mut left = sizes.to_vec();
        let mut pairs = Vec::new();
        while left.iter().any(|&c| c > 0) {
            for (b, c) in left.iter_mut().enumerate().filter(|(_, c)| **c > 0) {
                *c -= 1;
                let q = random(dims(b).0);
                // Related sequences, so banded paths are non-trivial.
                let mut s = q.codes().to_vec();
                s.resize(dims(b).1, 2);
                s[7] = (s[7] + 1) % 4;
                pairs.push((q, Seq::from_codes(s).unwrap()));
            }
        }
        let view = BatchView::from_pairs(&pairs);
        let total = pairs.len() as u64;
        let expect = |min_partial: usize| {
            sizes.iter().enumerate().fold((0, 0), |acc, (b, &count)| {
                let (lane, groups) = expected_split(count, L, min_partial);
                let bytes = groups * ((dims(b).0 + dims(b).1) * L) as u64;
                (acc.0 + lane, acc.1 + bytes)
            })
        };

        let (scores, stats) = score_batch_simd_stats::<_, _, _, L>(scheme, view.refs(), 2);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(scores[k], scheme.score(q, s), "score of pair {k}");
        }
        let (lane_pairs, bytes) = expect(SCORE_MIN_PARTIAL);
        assert_eq!(stats.lane_pairs, lane_pairs);
        assert_eq!(stats.lane_pairs + stats.scalar_pairs, total);
        assert_eq!(stats.bytes_copied, bytes);

        let (alns, stats) =
            align_batch_simd::<_, _, _, L>(scheme, view.refs(), 2, BandCfg::default());
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(alns[k].score, scores[k], "aligned score of pair {k}");
            alns[k]
                .validate::<K, _, _>(q, s, scheme.gap(), scheme.subst())
                .unwrap_or_else(|e| panic!("pair {k}: {e}"));
        }
        let (lane_pairs, bytes) = expect(ALIGN_MIN_PARTIAL);
        assert_eq!(stats.lane_pairs + stats.band_overflows, lane_pairs);
        assert_eq!(
            stats.lane_pairs + stats.band_overflows + stats.scalar_pairs,
            total
        );
        assert_eq!(stats.bytes_copied, bytes);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn partial_groups_match_scalar_and_count_only_live_lanes(
            sizes in proptest::collection::vec(1usize..=11, 1..5),
            wide in proptest::collection::vec(1usize..=19, 1..4),
            seed in 0u64..1_000_000,
        ) {
            let scoring = affine(simple(2, -3), -3, -1);
            check_partial_groups::<_, 8>(&global(scoring), &sizes, seed);
            check_partial_groups::<_, 8>(&semiglobal(scoring), &sizes, seed);
            check_partial_groups::<_, 16>(&local(scoring), &wide, seed);
        }
    }

    #[test]
    fn batch_simd_mixed_lengths_bucketed() {
        // Mix several distinct dimension buckets to exercise grouping.
        let mut pairs = read_pairs(100, 7);
        let mut extra = read_pairs(50, 8);
        for (q, _) in extra.iter_mut() {
            *q = q.subseq(0..q.len().min(100));
        }
        pairs.extend(extra);
        let view = BatchView::from_pairs(&pairs);
        let scheme = global(linear(simple(2, -1), -1));
        let (simd, stats) = score_batch_simd_stats::<_, _, _, 16>(&scheme, view.refs(), 1);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(simd[k], scheme.score(q, s), "pair {k}");
        }
        assert!(stats.lane_pairs > 0);
        for threads in [3, 8] {
            let par = score_batch_simd_stats::<_, _, _, 16>(&scheme, view.refs(), threads);
            assert_eq!(par, (simd.clone(), stats), "threads = {threads}");
        }
    }
}
