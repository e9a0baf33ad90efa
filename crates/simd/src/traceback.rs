//! Lane-packed banded traceback for the inter-sequence SIMD backend.
//!
//! The score path ([`crate::batch`]) keeps one whole alignment per
//! 16-bit vector lane; this module extends that shape to full
//! tracebacks so a short-read batch can produce CIGARs without ever
//! leaving the vector unit — the very alignments the scalar walk
//! returns. Three ideas combine:
//!
//! * **One predecessor byte per lane per band cell** — the banded pass
//!   is the score kernel's own relaxation (`kernel::kind_body`) over the
//!   band's column window, with a sink that stores each lane's
//!   [`pred`] byte, `PredSink`'s format, computed with whole-vector
//!   compares and selects: `L` bytes per band cell, one `[u8; L]` store.
//! * **Score-bounded band** — directions are only recorded inside a
//!   diagonal band `j − i ∈ [dlo, dhi]` around the alignment corridor.
//!   The full-width score kernel runs first and yields each lane's
//!   exact optimum; from it `proven_half_width` derives the narrowest
//!   band that provably holds every optimal path (a path leaving it
//!   scores strictly less: Ukkonen's cut-off). The group runs one
//!   banded pass at its widest lane's proven width, capped at
//!   [`BandCfg::max`]; lanes whose proof the cap cuts fall back to the
//!   scalar `Scheme::align`.
//! * **One alignment per pair** — the banded relaxation breaks ties as
//!   `anyseq_core::relax` does (diagonal before `E` before `F`, a gap
//!   extends only when strictly better than reopening, ν = 0 stops a
//!   local path at `H ≤ 0`) and picks the end cell as `BestCell` does.
//!   Along every optimal path a lane's proven band holds the full
//!   matrix's values, so the lane records the scalar predecessor bytes
//!   there; they are decoded through the scalar walk's own state
//!   machine ([`anyseq_core::fullmatrix::trace`]), and the lane returns
//!   `Scheme::align_codes`'s `Alignment`.

use crate::batch::{transpose_lanes, LaneGroup, LaneGroups};
use crate::isa::Tier;
use crate::kernel::{
    block_kernel_kind, from16, kind_body, max_block_extent, to16, BlockBorders, Cell, LaneSink,
    SimdSubst, Uniform, SENT16,
};
use crate::lanes::I16s;
use anyseq_core::alignment::Alignment;
use anyseq_core::fullmatrix::trace;
use anyseq_core::kind::{AlignKind, OptRegion};
use anyseq_core::relax::pred;
use anyseq_core::scheme::Scheme;
use anyseq_core::score::Score;
use anyseq_core::scoring::GapModel;
use anyseq_obs::Stage;
use anyseq_seq::PairRef;
use std::marker::PhantomData;

/// Smallest run of one shape the traceback path runs as a lane group
/// instead of `k` scalar `align_codes` calls. A padded group pays
/// a whole `L`-lane score pass plus banded pass whatever its fill.
/// Measured on 150 × 150 global affine pairs at 1 % divergence,
/// L = 16, with the score-bounded band, 4 runs per tier on a 2-vCPU
/// host in a slow spell: a 2-pair group costs 0.57–0.72 scalar pairs
/// on the AVX2 tier and 1.08–1.31 on baseline, so `k = 2` wins on both
/// (0.29–0.36× / 0.54–0.66×). Before the banded pass ran through
/// `kind_body` the same probe read 1.65–1.84 / 2.28–2.48 per group and
/// `k = 2` lost on baseline, so the constant was 3.
pub(crate) const ALIGN_MIN_PARTIAL: usize = 2;

/// Band width bound for the SIMD traceback, in diagonals each side of
/// the corridor. The width a lane group needs is proven from its exact
/// scores (see `proven_half_width`); this only caps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandCfg {
    /// Cap on the proven half-width; lanes whose proof exceeds it fall
    /// back to scalar traceback.
    pub max: usize,
}

impl Default for BandCfg {
    fn default() -> BandCfg {
        // 256 saturates a whole short-read matrix, so overflow
        // fallbacks only occur for long, divergent pairs.
        BandCfg { max: 256 }
    }
}

/// Execution counters for one [`align_batch_simd`] run — the
/// band-width/overflow telemetry the engine layer threads into
/// `BatchStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Pairs aligned in live SIMD lanes (padding lanes of a partial
    /// group are not pairs and are not counted).
    pub lane_pairs: u64,
    /// Leftover/oversized pairs aligned by the in-backend scalar path.
    pub scalar_pairs: u64,
    /// Always 0: a lane group runs one banded pass and never widens
    /// it. Kept for readers of the field.
    pub band_widenings: u64,
    /// Pairs whose proven band exceeded [`BandCfg::max`] and were
    /// rescued by scalar traceback.
    pub band_overflows: u64,
    /// Lanes whose banded score missed the exact score their proof
    /// promised (checked in every build; 0 under a correct proof),
    /// rescued by scalar traceback.
    pub proof_failures: u64,
    /// Vector DP cells relaxed across all banded passes —
    /// `rows × band width × lanes` per pass.
    pub band_cells: u64,
    /// Sequence bytes copied into lane-transposed row/column buffers —
    /// `(|q| + |s|) × L` per lane group, the *only* sequence copy on
    /// the batch path (everything above hands borrowed `PairRef`s
    /// through). Scalar-path pairs copy nothing.
    pub bytes_copied: u64,
    /// Widest band (in diagonals) any lane group ended up using.
    /// Direct-API telemetry only: the engine's additive
    /// `drain_counters` channel cannot carry max semantics, so this
    /// field intentionally does not flow into `BatchStats::counters`.
    pub max_band: u64,
    /// Lanes retired early by X-drop on the score path (always 0 when
    /// the knob is off or the kind is corner-optimum; the alignment
    /// path never retires — tracebacks stay exact).
    pub xdrop_retired: u64,
    /// Cells live lanes of ragged score-path groups relaxed past their
    /// own pair's extent. Not counted as work: GCUPS counts live cells.
    pub pad_cells: u64,
}

impl TraceStats {
    /// Accumulates another run's counters (sums; `max_band` by max).
    pub fn merge(&mut self, other: &TraceStats) {
        self.lane_pairs += other.lane_pairs;
        self.scalar_pairs += other.scalar_pairs;
        self.band_widenings += other.band_widenings;
        self.band_overflows += other.band_overflows;
        self.proof_failures += other.proof_failures;
        self.band_cells += other.band_cells;
        self.bytes_copied += other.bytes_copied;
        self.max_band = self.max_band.max(other.max_band);
        self.xdrop_retired += other.xdrop_retired;
        self.pad_cells += other.pad_cells;
    }
}

/// The traceback pass's [`LaneSink`] over the band of half-width `w`
/// around an `n × m` problem's corridor, `j − i ∈ [dlo, dhi]` clamped
/// to the matrix: row `i` relaxes the columns `[max(1, i + dlo),
/// min(m, i + dhi)]`. It keeps each band cell's [`pred`] byte per lane
/// (`PredSink`'s format) and each lane's optimum with its `BestCell`.
struct DirStore<K, const L: usize> {
    dlo: isize,
    dhi: isize,
    n: usize,
    /// Cell `(i, j)`'s bytes sit at `(i − 1) · width + (j − i − dlo)`.
    bytes: Vec<[u8; L]>,
    /// Best score per lane (differential base 0) and its 1-based cell
    /// (positions fit i16: the extent budget caps `n` and `m`).
    best: I16s<L>,
    bi: I16s<L>,
    bj: I16s<L>,
    kind: PhantomData<K>,
}

impl<K: AlignKind, const L: usize> DirStore<K, L> {
    /// Runs one lane group's banded pass at half-width `w` on `tier`,
    /// bit-identical on every tier. Cells off the band read as −∞, so a
    /// path that would leave the band scores below the exact optimum.
    fn relax<G: GapModel, SS: SimdSubst>(
        tier: Tier,
        gap: &G,
        subst: &SS,
        (q_rows, s_cols): (&[[u8; L]], &[[u8; L]]),
        w: usize,
    ) -> DirStore<K, L> {
        let (n, m) = (q_rows.len(), s_cols.len());
        let (ni, mi, wi) = (n as isize, m as isize, w as isize);
        let dlo = (mi.min(ni) - ni - wi).max(-ni);
        let dhi = (mi.max(ni) - ni + wi).min(mi);
        // `BestCell`'s seeds: the border kinds' `(0, m)` and the anywhere
        // kinds' empty alignment; `(n, 0)` arrives with row `n`.
        let (best, (i, j)) = match K::OPT {
            OptRegion::Corner => (SENT16, (n, m)),
            OptRegion::Border => (to16(K::h_init(gap, m), 0), (0, m)),
            OptRegion::Anywhere => (0, (0, 0)),
        };
        let mut store = DirStore {
            dlo,
            dhi,
            n,
            bytes: vec![[0; L]; n * (dhi - dlo + 1) as usize],
            best: I16s::splat(best),
            bi: I16s::splat(i as i16),
            bj: I16s::splat(j as i16),
            kind: PhantomData,
        };
        // Off the band: row 0 right of `dhi` and column 0 below row `−dlo`.
        let (mut borders, sent) = (BlockBorders::init::<K, G>(gap, n, m), I16s::splat(SENT16));
        borders.top_h[dhi as usize + 1..].fill(sent);
        if G::AFFINE {
            borders.top_e[dhi as usize..].fill(sent);
        }
        borders.left_h[-dlo as usize..].fill(sent);
        tier.run(
            #[inline(always)]
            || {
                let (q, s, b, st) = (q_rows, s_cols, &mut borders, &mut store);
                kind_body::<K, G, SS, _, false, L>(gap, subst, q, s, b, 0, &Uniform, st)
            },
        );
        store
    }

    /// The band's width in diagonals.
    fn width(&self) -> usize {
        (self.dhi - self.dlo + 1) as usize
    }

    /// Strict-greater update at cell `(i, j)`: candidates arrive in
    /// row-major order, so the first maximum wins as in `BestCell`.
    #[inline(always)]
    fn offer(&mut self, v: I16s<L>, i: usize, j: usize) {
        let better = v.cmpgt(self.best);
        self.best = v.select(better, self.best);
        self.bi = I16s::splat(i as i16).select(better, self.bi);
        self.bj = I16s::splat(j as i16).select(better, self.bj);
    }

    /// Lane `lane`'s [`pred`] byte at DP cell `(i, j)` of the band.
    fn pred(&self, i: usize, j: usize, lane: usize) -> u8 {
        let p = j as isize - i as isize - self.dlo;
        debug_assert!(p >= 0 && p <= self.dhi - self.dlo, "off the band");
        self.bytes[(i - 1) * self.width() + p as usize][lane]
    }
}

impl<K: AlignKind, const L: usize> LaneSink<L> for DirStore<K, L> {
    const ACTIVE: bool = true;

    #[inline(always)]
    fn cols(&self, r: usize, w: usize) -> (usize, usize) {
        let i = r as isize + 1;
        let lo = (i + self.dlo).max(1) as usize - 1;
        (lo, (i + self.dhi).min(w as isize) as usize)
    }

    /// `relax`'s byte by whole-lane compares: the diagonal wins a tie,
    /// then `E`; a local cell at `H ≤ 0` stops the path.
    #[inline(always)]
    fn cell(&mut self, r: usize, c: usize, Cell(dval, e, e_ext, f_ext, h): Cell<L>) {
        let splat = |b: u8| I16s::splat(b as i16);
        let gap_dir = splat(pred::UP).select(e.cmpeq(h), splat(pred::LEFT));
        let mut dir = splat(pred::DIAG).select(dval.cmpeq(h), gap_dir);
        if K::NU_ZERO {
            dir = splat(pred::NONE).select(splat(1).cmpgt(h), dir);
        }
        let e_ext = splat(pred::E_EXT).select(e_ext, splat(0));
        let f_ext = splat(pred::F_EXT).select(f_ext, splat(0));
        let at = (r * self.width() + c) as isize - r as isize - self.dlo;
        self.bytes[at as usize] = dir.sat_add(e_ext).sat_add(f_ext).low_bytes();
    }

    /// Row `i = r + 1`'s optimum candidates in row-major order: the
    /// corner; the last column, and all of row `n` from its `(n, 0)`
    /// seed on; every cell.
    #[inline(always)]
    fn row(&mut self, r: usize, row: &[I16s<L>], lo: usize, hi: usize) {
        let (i, m) = (r + 1, row.len() - 1);
        match K::OPT {
            OptRegion::Corner if i == self.n => self.best = row[m],
            OptRegion::Border if i == self.n => (lo..=hi).for_each(|j| self.offer(row[j], i, j)),
            OptRegion::Border if hi == m => self.offer(row[m], i, m),
            OptRegion::Anywhere => (lo + 1..=hi).for_each(|j| self.offer(row[j], i, j)),
            _ => {}
        }
    }
}

/// The smallest band half-width `w` whose band provably holds every
/// optimal path of an `n × m` kind-`K` problem with optimum `best`.
///
/// The corridor is `[lo, hi] = [min(0, m−n), max(0, m−n)]`. A path
/// leaves the band of half-width `w` only by touching a diagonal
/// `k = w + 1` beyond it, so the answer is the smallest `w ≥ 0` with
/// `UB(w+1) < best`, where `UB(k)` bounds from above the score of any
/// path touching diagonal `hi + k` or `lo − k`:
///
/// * **Every kind.** Gap steps and the init stripes score `≤ 0`, so a
///   path scores at most `σ⁺ = max(σ_max, 0)` per diagonal step. A
///   path through cell `(i, i + d)` takes at most `min(i, j)` diagonal
///   steps before it and `min(n−i, m−j)` after, in total
///   `D(d) = max(0, min(n, m, m−d, n+d))`. `D` does not grow away from
///   the corridor, so `UB(k) = σ⁺ · max(D(hi+k), D(lo−k))` — also for a
///   local path that starts beyond diagonal `k` without crossing it.
/// * **Global** (both ends anchored). The path runs from diagonal 0 to
///   `m−n` through `hi + k` (or `lo − k`), so it takes at least
///   `|m−n| + 2k` gap steps in at least one vertical and one horizontal
///   run, and at most `min(n, m) − k` diagonal steps:
///   `UB(k) = σ⁺·(min(n,m) − k) + 2·open + extend·(|m−n| + 2k)` (the
///   open term is 0 for linear gaps).
///
/// The `<` is strict, so every cell the optimum is attained at lies in
/// the band and the banded kernel reproduces both the exact optimum and
/// the full matrix's `BestCell` end cell. `min(n, m)` covers the whole
/// matrix and is returned when no narrower band is proven.
fn proven_half_width<K: AlignKind, G: GapModel>(
    gap: &G,
    sigma_max: Score,
    n: usize,
    m: usize,
    best: Score,
) -> usize {
    let full = n.min(m);
    (0..full)
        .find(|&w| off_band_bound::<K, G>(gap, sigma_max, n, m, w + 1) < best as i64)
        .unwrap_or(full)
}

/// `UB(k)` of [`proven_half_width`]: an upper bound on the score of any
/// kind-`K` path of an `n × m` problem that touches a diagonal `k ≥ 1`
/// beyond the corridor. It needs `open, extend ≤ 0`, which [`GapModel`]
/// requires and the scheme constructors assert.
fn off_band_bound<K: AlignKind, G: GapModel>(
    gap: &G,
    sigma_max: Score,
    n: usize,
    m: usize,
    k: usize,
) -> i64 {
    let sigma = sigma_max.max(0) as i64;
    let (n, m, k) = (n as i64, m as i64, k as i64);
    if !K::FREE_BEGIN && matches!(K::OPT, OptRegion::Corner) {
        let (open, extend) = (gap.open() as i64, gap.extend() as i64);
        return sigma * (n.min(m) - k) + 2 * open + extend * ((m - n).abs() + 2 * k);
    }
    let (lo, hi) = ((m - n).min(0), (m - n).max(0));
    let diag_steps = |d: i64| n.min(m).min(m - d).min(n + d).max(0);
    sigma * diag_steps(hi + k).max(diag_steps(lo - k))
}

/// Aligns a batch of independent pairs with `L`-lane SIMD banded
/// traceback; returns one kind-`K` [`Alignment`] per pair, in input
/// order, plus the run's band telemetry. `threads` works as in
/// [`score_batch_simd`](crate::batch::score_batch_simd); neither the
/// alignments nor the telemetry depend on it. Every `Alignment` —
/// score, operations, start and end — equals `scheme.align_codes`'s,
/// on every ISA tier. X-drop never applies here — tracebacks are always
/// exact.
///
/// Pairs that cannot ride a lane group (runs of one shape shorter than
/// `ALIGN_MIN_PARTIAL`, empty or oversized sequences) and lanes whose
/// proven band exceeds [`BandCfg::max`] are aligned by the scalar
/// `Scheme::align` inside this call — the result is complete either way.
pub fn align_batch_simd<K, G, SS, const L: usize>(
    scheme: &Scheme<K, G, SS>,
    pairs: &[PairRef<'_>],
    threads: usize,
    band: BandCfg,
) -> (Vec<Alignment>, TraceStats)
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    align_batch_proven::<K, G, SS, L>(scheme, pairs, threads, band, proven_half_width::<K, G>)
}

/// [`align_batch_simd`] under the band proof `prove`, which maps
/// `(gap, σ_max, n, m, score)` to a half-width (the seam through which
/// a test breaks the proof). A group runs one banded pass at its widest
/// proof, capped at [`BandCfg::max`]. A lane is decoded only when its
/// proof fits the pass and its banded score equals its exact one
/// (checked in every build); other lanes take the scalar rescue.
fn align_batch_proven<K, G, SS, const L: usize>(
    scheme: &Scheme<K, G, SS>,
    pairs: &[PairRef<'_>],
    threads: usize,
    band: BandCfg,
    prove: fn(&G, Score, usize, usize, Score) -> usize,
) -> (Vec<Alignment>, TraceStats)
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let (gap, subst) = (scheme.gap(), scheme.subst());
    // Exact-shape groups: the band and the proving score pass are
    // sized by the group's shape, which padding would only widen.
    let built = LaneGroups::<L>::build(pairs, max_block_extent(gap, subst), ALIGN_MIN_PARTIAL, 0);
    let scalar = |idx: usize| {
        let p = pairs[idx];
        anyseq_obs::span(Stage::Traceback, || scheme.align_codes(p.q, p.s))
    };
    let group = |group: &LaneGroup<L>, stats: &mut TraceStats, out: &mut Vec<_>| {
        let (n, m) = group.shape;
        // The lane transpose: the only sequence-byte copy on this path.
        stats.bytes_copied += ((n + m) * L) as u64;
        let lanes = anyseq_obs::span(Stage::Transpose, || transpose_lanes(pairs, &group.lanes));
        let (q_rows, s_cols) = (&lanes.0[..], &lanes.1[..]);
        // Exact kind-`K` optima from the full-width score kernel: they
        // prove each lane's band.
        let mut borders = BlockBorders::<L>::init::<K, G>(gap, n, m);
        let exact = anyseq_obs::span(Stage::Kernel, || {
            block_kernel_kind::<K, G, SS, false, L>(gap, subst, q_rows, s_cols, &mut borders, 0)
        })
        .best;
        let proven: [usize; L] =
            std::array::from_fn(|l| prove(gap, subst.max_score(), n, m, from16(exact.0[l], 0)));
        let w = band
            .max
            .min(*proven[..group.fill].iter().max().unwrap_or(&0));
        let store = anyseq_obs::span(Stage::Kernel, || {
            DirStore::<K, L>::relax(Tier::detect(), gap, subst, (q_rows, s_cols), w)
        });
        stats.band_cells += (n * store.width() * L) as u64;
        stats.max_band = stats.max_band.max(store.width() as u64);
        let decode = |(l, &idx): (usize, &usize)| {
            if proven[l] > w {
                stats.band_overflows += 1;
                return None;
            }
            if store.best.0[l] != exact.0[l] {
                stats.proof_failures += 1;
                return None;
            }
            stats.lane_pairs += 1;
            let (p, end) = (pairs[idx], (store.bi.0[l] as usize, store.bj.0[l] as usize));
            let score = from16(exact.0[l], 0);
            Some(trace::<K>(p.q, p.s, score, end, |i, j| store.pred(i, j, l)))
        };
        let lanes = group.live().iter().enumerate();
        let alns: Vec<_> = anyseq_obs::span(Stage::Traceback, || lanes.map(decode).collect());
        for (&idx, aln) in group.live().iter().zip(alns) {
            out.push((idx, aln.unwrap_or_else(|| scalar(idx))));
        }
    };
    built.run(threads, pairs.len(), Alignment::empty(0), group, scalar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::kind::{Global, Local, SemiGlobal};
    use anyseq_core::pass::{init_left_f, init_left_h, init_top_e, init_top_h};
    use anyseq_core::prelude::{affine, global, linear, local, semiglobal, simple};
    use anyseq_core::relax::{relax, BestCell, Prev};
    use anyseq_core::score::NEG_INF;
    use anyseq_core::scoring::{AffineGap, LinearGap, SimpleSubst, SubstScore};
    use anyseq_core::tile::{relax_tile, PredSink, TileIn, TileOut};
    use anyseq_seq::genome::GenomeSim;
    use anyseq_seq::testsupport::read_pairs;
    use anyseq_seq::{BatchView, Seq};

    /// Runs the traceback over a borrowed view of owned pairs.
    fn run<K: AlignKind, G: GapModel, SS: SimdSubst, const L: usize>(
        scheme: &Scheme<K, G, SS>,
        pairs: &[(Seq, Seq)],
        threads: usize,
        band: BandCfg,
    ) -> (Vec<Alignment>, TraceStats) {
        let view = BatchView::from_pairs(pairs);
        align_batch_simd::<K, G, SS, L>(scheme, view.refs(), threads, band)
    }

    /// Every pair's alignment is the scalar walk's, field for field.
    fn check_all<K: AlignKind, G: GapModel, SS: SimdSubst>(
        scheme: &Scheme<K, G, SS>,
        pairs: &[(Seq, Seq)],
        alns: &[Alignment],
    ) {
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(alns[k], scheme.align(q, s), "pair {k}");
        }
    }

    #[test]
    fn banded_traceback_matches_scalar_linear() {
        let pairs = read_pairs(300, 3);
        let scheme = global(linear(simple(2, -1), -1));
        let (alns, stats) = run::<_, _, _, 16>(&scheme, &pairs, 8, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        assert!(stats.lane_pairs > 0, "lane groups must carry the batch");
        assert_eq!(stats.band_overflows, 0, "default band fits read indels");
    }

    #[test]
    fn banded_traceback_matches_scalar_affine() {
        let pairs = read_pairs(300, 5);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let (alns, stats) = run::<_, _, _, 8>(&scheme, &pairs, 4, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        assert!(stats.lane_pairs > 0);
    }

    #[test]
    fn zero_open_affine_ties_stay_consistent() {
        // open = 0 maximizes open/extend ties in the E/F recurrences —
        // the adversarial case for gap-run bookkeeping.
        let pairs = read_pairs(200, 9);
        let scheme = global(affine(simple(2, -1), 0, -1));
        let (alns, _) = run::<_, _, _, 16>(&scheme, &pairs, 4, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
    }

    #[test]
    fn empty_and_tiny_pairs_take_the_scalar_path() {
        let scheme = global(linear(simple(2, -1), -1));
        let (alns, _) = align_batch_simd::<_, _, _, 8>(&scheme, &[], 4, BandCfg::default());
        assert!(alns.is_empty());

        let a = Seq::from_ascii(b"ACGT").unwrap();
        let empty = Seq::new();
        let pairs = vec![
            (a.clone(), a.clone()),
            (a.clone(), empty.clone()),
            (empty, a.clone()),
        ];
        let (alns, stats) = run::<_, _, _, 8>(&scheme, &pairs, 2, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        assert_eq!(alns[0].cigar(), "4=");
        assert_eq!(alns[1].cigar(), "4I");
        assert_eq!(alns[2].cigar(), "4D");
        assert_eq!(stats.scalar_pairs, 3, "degenerate pairs go scalar");
    }

    #[test]
    fn identical_equal_length_pairs_fill_lanes() {
        let a = GenomeSim::new(17).generate(150);
        let pairs: Vec<(Seq, Seq)> = (0..32).map(|_| (a.clone(), a.clone())).collect();
        let scheme = global(affine(simple(2, -1), -2, -1));
        let (alns, stats) = run::<_, _, _, 16>(&scheme, &pairs, 2, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        for aln in &alns {
            assert_eq!(aln.cigar(), "150=");
        }
        assert_eq!(stats.lane_pairs, 32);
        assert_eq!(stats.scalar_pairs, 0);
    }

    #[test]
    fn traceback_groups_never_mix_dimensions() {
        // Two shapes, four pairs each, interleaved: the score path packs
        // all eight into one ragged 8-lane group, the traceback runs one
        // group per shape and pads nothing.
        let mut sim = GenomeSim::new(23);
        let pairs: Vec<(Seq, Seq)> = (0..8)
            .map(|k| {
                let (n, m) = if k % 2 == 0 { (40, 44) } else { (48, 46) };
                let s = sim.generate(m);
                let q = sim.mutate(&s.subseq(0..n.min(m)), 0.05);
                let mut q = q.codes().to_vec();
                q.resize(n, 1);
                (Seq::from_codes(q).unwrap(), s)
            })
            .collect();
        let scheme = global(affine(simple(2, -1), -2, -1));
        let (alns, stats) = run::<_, _, _, 8>(&scheme, &pairs, 1, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        assert_eq!(stats.lane_pairs + stats.band_overflows, 8);
        assert_eq!(stats.bytes_copied, ((40 + 44) * 8 + (48 + 46) * 8) as u64);
        assert_eq!(stats.pad_cells, 0);
        let view = BatchView::from_pairs(&pairs);
        let (_, ragged) =
            crate::batch::score_batch_simd_stats::<_, _, _, 8>(&scheme, view.refs(), 1);
        assert_eq!(ragged.bytes_copied, ((48 + 46) * 8) as u64);
        assert!(ragged.pad_cells > 0);
    }

    /// Fixed-dimension contained-read pairs (substitution-only noise so
    /// every pair lands in one `(150, 220)` lane bucket).
    fn contained_pairs(count: usize, seed: u64) -> Vec<(Seq, Seq)> {
        let mut sim = GenomeSim::new(seed);
        (0..count)
            .map(|k| {
                let window = sim.generate(220);
                let mut codes = window.subseq(30..180).codes().to_vec();
                for b in codes.iter_mut().step_by(29 + k % 7) {
                    *b = (*b + 1) % 4;
                }
                (Seq::from_codes(codes).unwrap(), window)
            })
            .collect()
    }

    #[test]
    fn banded_traceback_matches_scalar_semiglobal() {
        // Reads contained in longer windows: the semi-global sweet spot.
        let pairs = contained_pairs(40, 41);
        let scheme = semiglobal(linear(simple(2, -3), -2));
        let (alns, stats) = run::<_, _, _, 16>(&scheme, &pairs, 4, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        assert!(stats.lane_pairs > 0, "uniform dims must fill lanes");
        let aff = semiglobal(affine(simple(2, -3), -3, -1));
        let (alns, stats) = run::<_, _, _, 8>(&aff, &pairs, 4, BandCfg::default());
        check_all(&aff, &pairs, &alns);
        assert!(stats.lane_pairs > 0);
    }

    #[test]
    fn banded_traceback_matches_scalar_local() {
        let pairs = read_pairs(200, 13);
        for threads in [1, 4] {
            let scheme = local(linear(simple(2, -3), -2));
            let (alns, stats) = run::<_, _, _, 16>(&scheme, &pairs, threads, BandCfg::default());
            check_all(&scheme, &pairs, &alns);
            assert!(stats.lane_pairs > 0);
            let aff = local(affine(simple(2, -3), -3, -1));
            let (alns, _) = run::<_, _, _, 8>(&aff, &pairs, threads, BandCfg::default());
            check_all(&aff, &pairs, &alns);
        }
    }

    #[test]
    fn local_all_mismatch_lanes_decode_empty() {
        // All-mismatch pairs: the local optimum is the empty alignment
        // at the origin — every lane must decode to zero ops, score 0.
        let q = Seq::from_ascii(&b"A".repeat(64)).unwrap();
        let s = Seq::from_ascii(&b"C".repeat(64)).unwrap();
        let pairs: Vec<(Seq, Seq)> = (0..8).map(|_| (q.clone(), s.clone())).collect();
        let scheme = local(linear(simple(2, -3), -2));
        let (alns, stats) = run::<_, _, _, 8>(&scheme, &pairs, 2, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        assert_eq!(stats.lane_pairs, 8);
        for aln in &alns {
            assert_eq!(aln.score, 0);
            assert!(aln.ops.is_empty());
            assert_eq!((aln.q_end, aln.s_end), (0, 0));
        }
    }

    #[test]
    fn unrelated_lanes_decode_the_scalar_alignment() {
        // Unrelated 40 × 52 pairs: co-optimal paths everywhere, local
        // paths that end far off the corridor, and (under `simple(0,
        // −1)`) semi-global lanes whose optimum is the empty alignment
        // at (0, m) — each lane must return the scalar walk's answer.
        fn check<K: AlignKind>(scheme: Scheme<K, impl GapModel, SimpleSubst>) {
            let mut sim = GenomeSim::new(5);
            let pairs: Vec<(Seq, Seq)> = (0..32)
                .map(|_| (sim.generate(40), sim.generate(52)))
                .collect();
            let (alns, stats) = run::<_, _, _, 16>(&scheme, &pairs, 2, BandCfg::default());
            check_all(&scheme, &pairs, &alns);
            assert_eq!(stats.lane_pairs, 32, "{}", K::NAME);
        }
        fn kinds(subst: SimpleSubst) {
            check(global(linear(subst, -1)));
            check(semiglobal(affine(subst, 0, -1)));
            check(local(affine(subst, -2, -1)));
            check(local(linear(subst, -1)));
        }
        for subst in [simple(2, -1), simple(1, -1), simple(0, -1)] {
            kinds(subst);
        }
    }

    #[test]
    fn semiglobal_containment_reports_window_offsets() {
        // An exact read inside a window: score = 2·len and the subject
        // region must cover exactly the containment site.
        let mut sim = GenomeSim::new(77);
        let window = sim.generate(200);
        let read = window.subseq(25..175);
        let pairs: Vec<(Seq, Seq)> = (0..16).map(|_| (read.clone(), window.clone())).collect();
        let scheme = semiglobal(linear(simple(2, -3), -2));
        let (alns, stats) = run::<_, _, _, 16>(&scheme, &pairs, 2, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        assert_eq!(stats.lane_pairs, 16);
        for aln in &alns {
            assert_eq!(aln.score, 300);
            assert_eq!((aln.q_start, aln.q_end), (0, 150));
            assert_eq!((aln.s_start, aln.s_end), (25, 175));
        }
    }

    /// Eight copies of one 150 × 150 pair whose halves swap places: a
    /// 50-base block swap pushes the optimal path ~50 diagonals off the
    /// corridor.
    fn block_swap_pairs() -> Vec<(Seq, Seq)> {
        let mut sim = GenomeSim::new(23);
        let head = sim.generate(50);
        let tail = sim.generate(100);
        let mut q_codes = head.codes().to_vec();
        q_codes.extend_from_slice(tail.codes());
        let mut s_codes = tail.codes().to_vec();
        s_codes.extend_from_slice(head.codes());
        let q = Seq::from_codes(q_codes).unwrap();
        let s = Seq::from_codes(s_codes).unwrap();
        (0..8).map(|_| (q.clone(), s.clone())).collect()
    }

    #[test]
    fn band_overflow_falls_back_to_scalar() {
        // A band capped at 4 cannot contain the swap's path.
        let pairs = block_swap_pairs();
        let scheme = global(linear(simple(2, -3), -1));
        let tiny = BandCfg { max: 4 };
        let (alns, stats) = run::<_, _, _, 8>(&scheme, &pairs, 2, tiny);
        check_all(&scheme, &pairs, &alns);
        assert_eq!(stats.band_overflows, 8, "every lane must overflow");
        assert!(
            stats.max_band <= 2 * 4 + 1,
            "the cap bounds the widest band: {}",
            stats.max_band
        );

        // The default cap admits the proven band: no fallback.
        let (alns, stats) = run::<_, _, _, 8>(&scheme, &pairs, 2, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        assert_eq!(stats.band_overflows, 0);
        assert!(
            stats.max_band > 2 * 50,
            "a 50-diagonal excursion needs a wide band: {}",
            stats.max_band
        );
    }

    /// A broken proof is caught in every build: under a proof that
    /// claims the corridor alone (`w = 0`), the block-swap lanes miss
    /// their exact score, and each is counted and rescued by the scalar
    /// walk.
    #[test]
    fn a_broken_proof_is_rescued_and_counted() {
        let pairs = block_swap_pairs();
        let scheme = global(linear(simple(2, -3), -1));
        let view = BatchView::from_pairs(&pairs);
        let lie = |_: &LinearGap, _, _, _, _| 0;
        let (alns, stats) =
            align_batch_proven::<_, _, _, 8>(&scheme, view.refs(), 2, BandCfg::default(), lie);
        check_all(&scheme, &pairs, &alns);
        assert_eq!(stats.proof_failures, 8, "{stats:?}");
        assert_eq!(
            (stats.lane_pairs, stats.band_overflows, stats.max_band),
            (0, 0, 1)
        );
    }

    /// One predecessor format: over a band that covers the whole
    /// matrix, every lane's byte at every cell is the byte `PredSink`
    /// records from the scalar tile kernel over the same pair, for every
    /// kind × gap model × scoring × tier × lane width.
    #[test]
    fn lane_bytes_equal_the_scalar_pred_sink() {
        fn check<K: AlignKind, G: GapModel, const L: usize>(gap: G, subst: SimpleSubst) {
            let (n, m) = (40, 52);
            let pairs: Vec<(Seq, Seq)> = read_pairs(L, 17)
                .into_iter()
                .map(|(q, s)| (q.subseq(0..n), s.subseq(0..m)))
                .collect();
            let view = BatchView::from_pairs(&pairs);
            let (q_rows, s_cols) = transpose_lanes(view.refs(), &std::array::from_fn(|l| l));
            let scalar: Vec<PredSink> = (pairs.iter())
                .map(|(q, s)| {
                    let mut sink = PredSink::new(n, m);
                    let input = TileIn {
                        top_h: &init_top_h::<K, G>(&gap, m),
                        top_e: &init_top_e::<K, G>(&gap, m),
                        left_h: &init_left_h::<K, G>(&gap, n, gap.open()),
                        left_f: &init_left_f::<G>(n),
                    };
                    let (q, s, out) = (q.codes(), s.codes(), &mut TileOut::new());
                    relax_tile::<K, G, _, _>(
                        &gap,
                        &subst,
                        q,
                        s,
                        (1, 1),
                        (n, m),
                        input,
                        out,
                        &mut sink,
                    );
                    sink
                })
                .collect();
            for tier in Tier::available() {
                let lanes = (&q_rows[..], &s_cols[..]);
                let store = DirStore::<K, L>::relax(tier, &gap, &subst, lanes, n + m);
                let (open, extend) = (gap.open(), gap.extend());
                let what = format!(
                    "{} {} {open}/{extend} {subst:?} L={L}",
                    tier.name(),
                    K::NAME
                );
                for (l, sink) in scalar.iter().enumerate() {
                    for (i, j) in (1..=n).flat_map(|i| (1..=m).map(move |j| (i, j))) {
                        let want = sink.data[(i - 1) * m + j - 1];
                        assert_eq!(
                            store.pred(i, j, l),
                            want,
                            "{what}: lane {l} cell ({i}, {j})"
                        );
                    }
                }
            }
        }
        fn widths<K: AlignKind, G: GapModel>(gap: G) {
            for subst in [simple(2, -1), simple(2, -3)] {
                check::<K, G, 8>(gap, subst);
                check::<K, G, 16>(gap, subst);
                check::<K, G, 32>(gap, subst);
            }
        }
        fn gaps<K: AlignKind>() {
            widths::<K, _>(LinearGap { gap: -2 });
            widths::<K, _>(AffineGap {
                open: -3,
                extend: -1,
            });
            widths::<K, _>(AffineGap {
                open: 0,
                extend: -1,
            });
        }
        gaps::<Global>();
        gaps::<SemiGlobal>();
        gaps::<Local>();
    }

    /// The banded pass is the DP over the band alone: at every narrow
    /// half-width, each lane's optimum and end cell are those of a scalar
    /// `relax` + `BestCell` sweep whose cells off the band are −∞ (the
    /// off-band init stripes included), for every kind × gap model on
    /// square and skewed shapes.
    #[test]
    fn banded_pass_relaxes_the_band_alone() {
        const L: usize = 8;
        fn check<K: AlignKind, G: GapModel>(gap: G, (n, m): (usize, usize)) {
            // Unrelated lanes: their optima lean on the band's edges.
            let (subst, mut sim) = (simple(2, -3), GenomeSim::new(29));
            let pairs: Vec<(Seq, Seq)> =
                (0..L).map(|_| (sim.generate(n), sim.generate(m))).collect();
            let view = BatchView::from_pairs(&pairs);
            let (q_rows, s_cols) = transpose_lanes(view.refs(), &std::array::from_fn(|l| l));
            for w in 0..4 {
                let store =
                    DirStore::<K, L>::relax(Tier::BASELINE, &gap, &subst, (&q_rows, &s_cols), w);
                let band = |i: usize, j: usize| {
                    (store.dlo..=store.dhi).contains(&(j as isize - i as isize))
                };
                let cut = |v: Score, i: usize, j: usize| if band(i, j) { v } else { NEG_INF };
                for (l, (q, s)) in pairs.iter().enumerate() {
                    let (q, s) = (q.codes(), s.codes());
                    let mut h: Vec<Score> =
                        (0..=m).map(|j| cut(K::h_init(&gap, j), 0, j)).collect();
                    let mut e: Vec<Score> = (0..=m).map(|j| cut(h[j] + gap.open(), 0, j)).collect();
                    let left = init_left_h::<K, G>(&gap, n, gap.open());
                    let mut best = BestCell::empty();
                    match K::OPT {
                        OptRegion::Border => best.update(K::h_init(&gap, m), 0, m),
                        OptRegion::Anywhere => best.update(0, 0, 0),
                        OptRegion::Corner => {}
                    }
                    for i in 1..=n {
                        let (mut diag, mut f) = (h[0], NEG_INF);
                        h[0] = cut(left[i - 1], i, 0);
                        if matches!(K::OPT, OptRegion::Border) && i == n {
                            best.update(h[0], n, 0);
                        }
                        for j in 1..=m {
                            let prev = Prev {
                                diag_h: diag,
                                up_h: h[j],
                                up_e: e[j],
                                left_h: h[j - 1],
                                left_f: f,
                            };
                            let next =
                                relax::<K, G, _, false>(&gap, &subst, prev, q[i - 1], s[j - 1]);
                            diag = h[j];
                            (h[j], e[j], f) =
                                (cut(next.h, i, j), cut(next.e, i, j), cut(next.f, i, j));
                            let border = matches!(K::OPT, OptRegion::Border) && (i == n || j == m);
                            if border || matches!(K::OPT, OptRegion::Anywhere) {
                                best.update(h[j], i, j);
                            }
                        }
                    }
                    if matches!(K::OPT, OptRegion::Corner) {
                        best = BestCell {
                            score: h[m],
                            i: n,
                            j: m,
                        };
                    }
                    let got = (
                        store.best.0[l],
                        store.bi.0[l] as usize,
                        store.bj.0[l] as usize,
                    );
                    let want = (to16(best.score, 0), best.i, best.j);
                    assert_eq!(got, want, "{} {n}x{m} w = {w} lane {l}", K::NAME);
                }
            }
        }
        fn shapes<K: AlignKind>() {
            for shape in [(32, 32), (24, 40), (40, 24)] {
                check::<K, _>(LinearGap { gap: -2 }, shape);
                check::<K, _>(
                    AffineGap {
                        open: -3,
                        extend: -1,
                    },
                    shape,
                );
            }
        }
        shapes::<Global>();
        shapes::<SemiGlobal>();
        shapes::<Local>();
    }

    /// Every tier the host has × kind × gap model × lane width: a band
    /// covering the whole matrix reproduces the exact score kernel's
    /// optimum in every lane, and a narrow band yields the same optimum,
    /// end cell and direction planes on every tier.
    #[test]
    fn banded_kernel_matches_exact_score_on_every_tier() {
        fn check<K: AlignKind, G: GapModel, const L: usize>(gap: G, seed: u64) {
            let subst = simple(2, -3);
            let pairs: Vec<(Seq, Seq)> = read_pairs(4 * L, seed)
                .into_iter()
                .map(|(q, s)| (q.subseq(0..40), s.subseq(0..52)))
                .take(L)
                .collect();
            let view = BatchView::from_pairs(&pairs);
            let lanes: [usize; L] = std::array::from_fn(|l| l);
            let (q_rows, s_cols) = transpose_lanes(view.refs(), &lanes);
            let (n, m) = (q_rows.len(), s_cols.len());
            let mut borders = BlockBorders::<L>::init::<K, G>(&gap, n, m);
            let exact = block_kernel_kind::<K, G, _, false, L>(
                &gap,
                &subst,
                &q_rows,
                &s_cols,
                &mut borders,
                0,
            )
            .best;
            let run = |tier: Tier, w: usize| {
                let store = DirStore::<K, L>::relax(tier, &gap, &subst, (&q_rows, &s_cols), w);
                ((store.best, store.bi, store.bj), store.bytes)
            };
            let narrow = run(Tier::BASELINE, 3);
            for tier in Tier::available() {
                let what = format!("{} {} affine={} L={L}", tier.name(), K::NAME, G::AFFINE);
                assert_eq!(run(tier, n + m).0 .0, exact, "{what}: full band vs exact");
                assert!(
                    run(tier, 3) == narrow,
                    "{what}: narrow band vs baseline tier"
                );
            }
        }
        fn widths<K: AlignKind, G: GapModel>(gap: G) {
            for seed in 0..2 {
                check::<K, G, 8>(gap, seed);
                check::<K, G, 16>(gap, seed);
                check::<K, G, 32>(gap, seed);
            }
        }
        fn gaps<K: AlignKind>() {
            widths::<K, _>(LinearGap { gap: -2 });
            widths::<K, _>(AffineGap {
                open: -3,
                extend: -1,
            });
        }
        gaps::<Global>();
        gaps::<SemiGlobal>();
        gaps::<Local>();
    }

    /// Soundness of the score bound, by brute force: at every half-width
    /// `w` with `UB(w + 1) < S`, the banded kernel reproduces a lane's
    /// exact optimum `S` at the full band's end cell, and
    /// `proven_half_width` is the narrowest such `w`. Square and skewed
    /// shapes, identity from 100 % down to unrelated sequences, every
    /// kind × gap model, `open = 0`, and a scheme with `σ_max ≤ 0`.
    #[test]
    fn score_bounded_band_is_exact_by_brute_force() {
        const L: usize = 8;
        /// `L` pairs of shape `n × m`: `q` mutated from a prefix of `s`
        /// at `divergence` (padded or cut to `n`), or unrelated (`None`).
        fn shaped_pairs(n: usize, m: usize, divergence: Option<f64>, seed: u64) -> Vec<(Seq, Seq)> {
            let mut sim = GenomeSim::new(seed);
            (0..L)
                .map(|_| {
                    let s = sim.generate(m);
                    let q = match divergence {
                        Some(d) => {
                            let mut q = sim.mutate(&s.subseq(0..n.min(m)), d).codes().to_vec();
                            q.extend_from_slice(sim.generate(n).codes());
                            q.truncate(n);
                            Seq::from_codes(q).unwrap()
                        }
                        None => sim.generate(n),
                    };
                    (q, s)
                })
                .collect()
        }
        fn check<K: AlignKind, G: GapModel>(gap: G, subst: SimpleSubst) {
            let shapes = [(32, 32), (32, 19), (13, 32), (1, 9), (27, 28)];
            let identities = [Some(0.0), Some(0.05), Some(0.2), Some(0.5), None];
            // Debug builds (no vector code) sweep every third case.
            let stride = if cfg!(debug_assertions) { 3 } else { 1 };
            for (seed, (&(n, m), divergence)) in shapes
                .iter()
                .flat_map(|shape| identities.iter().map(move |&d| (shape, d)))
                .enumerate()
                .step_by(stride)
            {
                let (open, extend) = (gap.open(), gap.extend());
                let what = format!(
                    "{} open={open} extend={extend} {subst:?} {n}x{m} {divergence:?}",
                    K::NAME
                );
                let pairs = shaped_pairs(n, m, divergence, seed as u64);
                let view = BatchView::from_pairs(&pairs);
                let lanes: [usize; L] = std::array::from_fn(|l| l);
                let (q_rows, s_cols) = transpose_lanes(view.refs(), &lanes);
                let mut borders = BlockBorders::<L>::init::<K, G>(&gap, n, m);
                let exact = block_kernel_kind::<K, G, _, false, L>(
                    &gap,
                    &subst,
                    &q_rows,
                    &s_cols,
                    &mut borders,
                    0,
                )
                .best;
                let run = |w: usize| {
                    DirStore::<K, L>::relax(Tier::BASELINE, &gap, &subst, (&q_rows, &s_cols), w)
                };
                let full = run(n + m);
                assert_eq!(full.best, exact, "{what}: full band vs exact");
                let ub = |k: usize| off_band_bound::<K, G>(&gap, subst.max_score(), n, m, k);
                // Past `min(n, m)` the band is clamped to the whole matrix.
                for w in 0..=n.min(m) {
                    let band = run(w);
                    for l in 0..L {
                        if ub(w + 1) < from16(exact.0[l], 0) as i64 {
                            assert_eq!(
                                (band.best.0[l], band.bi.0[l], band.bj.0[l]),
                                (full.best.0[l], full.bi.0[l], full.bj.0[l]),
                                "{what}: lane {l} at w = {w}"
                            );
                        }
                    }
                }
                for l in 0..L {
                    let best = from16(exact.0[l], 0);
                    let w = proven_half_width::<K, G>(&gap, subst.max_score(), n, m, best);
                    let proven = |w: usize| ub(w + 1) < best as i64;
                    assert!(w == n.min(m) || proven(w), "{what}: lane {l} w = {w}");
                    assert!(
                        w == 0 || !proven(w - 1),
                        "{what}: lane {l} w = {w} not tight"
                    );
                }
            }
        }
        fn gaps<K: AlignKind>() {
            for subst in [simple(2, -3), simple(0, -1)] {
                check::<K, _>(LinearGap { gap: -2 }, subst);
                check::<K, _>(
                    AffineGap {
                        open: -3,
                        extend: -1,
                    },
                    subst,
                );
                check::<K, _>(
                    AffineGap {
                        open: 0,
                        extend: -1,
                    },
                    subst,
                );
            }
        }
        gaps::<Global>();
        gaps::<SemiGlobal>();
        gaps::<Local>();
    }

    /// Illumina-profile reads under the reads workload's scheme: the
    /// exact scores prove a band of a few diagonals, so every group runs
    /// one narrow pass — no overflow, and fewer than 1,500 band cells
    /// per pair (a fixed 33-diagonal band costs ≈ 5,000).
    #[test]
    fn illumina_reads_run_a_score_bounded_band() {
        let pairs = read_pairs(512, 31);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let (alns, stats) = run::<_, _, _, 16>(&scheme, &pairs, 1, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        assert!(stats.lane_pairs >= 400, "{stats:?}");
        assert_eq!(stats.band_overflows, 0, "{stats:?}");
        assert!(
            stats.band_cells <= 1_500 * stats.lane_pairs,
            "{} band cells per pair",
            stats.band_cells / stats.lane_pairs
        );
    }

    #[test]
    fn mixed_buckets_and_leftovers_cover_input() {
        let mut pairs = read_pairs(100, 7);
        let mut extra = read_pairs(37, 8);
        for (q, _) in extra.iter_mut() {
            *q = q.subseq(0..q.len().min(100));
        }
        pairs.extend(extra);
        let scheme = global(affine(simple(2, -1), -2, -1));
        let (alns, stats) = run::<_, _, _, 16>(&scheme, &pairs, 1, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        assert_eq!(
            stats.lane_pairs + stats.scalar_pairs + stats.band_overflows + stats.proof_failures,
            pairs.len() as u64
        );
        assert_eq!(stats.proof_failures, 0, "a correct proof never fails");
        // Workers' results and telemetry merge to the same answer at
        // every thread count.
        for threads in [3, 8] {
            let (par, par_stats) = run::<_, _, _, 16>(&scheme, &pairs, threads, BandCfg::default());
            assert_eq!(par, alns, "threads = {threads}");
            assert_eq!(par_stats, stats, "threads = {threads}");
        }
    }
}
