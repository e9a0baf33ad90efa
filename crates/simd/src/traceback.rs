//! Lane-packed banded traceback for the inter-sequence SIMD backend.
//!
//! The score path ([`crate::batch`]) keeps one whole alignment per
//! 16-bit vector lane; this module extends that shape to full
//! tracebacks so a short-read batch can produce CIGARs without ever
//! leaving the vector unit — the very alignments the scalar walk
//! returns. Three ideas combine:
//!
//! * **Packed per-lane direction store** — each banded DP cell records
//!   2 direction bits per lane (`up`/`left` set ⇒ gap, both clear ⇒
//!   diagonal) plus, for affine schemes, one `E`-extend and one
//!   `F`-extend bit. Bits for all lanes of one cell live in a single
//!   `u32` bit-plane, so the store costs 4 `u32`s per band cell
//!   regardless of lane count (L ≤ 32).
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
    block_kernel_kind, from16, max_block_extent, to16, BlockBorders, SimdSubst, SENT16,
};
use crate::lanes::I16s;
use anyseq_core::alignment::Alignment;
use anyseq_core::fullmatrix::trace;
use anyseq_core::kind::{AlignKind, OptRegion};
use anyseq_core::pass::{init_left_f, init_left_h, init_top_e, init_top_h};
use anyseq_core::relax::pred;
use anyseq_core::scheme::Scheme;
use anyseq_core::score::Score;
use anyseq_core::scoring::GapModel;
use anyseq_obs::Stage;
use anyseq_seq::PairRef;

/// Smallest run of one shape the traceback path runs as a lane group
/// instead of `k` scalar `align_codes` calls. A padded group pays
/// a whole `L`-lane score pass plus banded pass whatever its fill, so
/// the break-even sits higher than the score path's 2. Measured on
/// 150 × 150 global affine pairs at 1 % divergence, L = 16, with the
/// score-bounded band, 4 runs: one group costs 1.65–1.84 scalar pairs
/// on the AVX2 tier (170–260 µs against 92–158 µs per pair on a 2-vCPU
/// host in a slow spell) and 2.28–2.48 on baseline (351–372 µs against
/// 142–161 µs), so `k = 2` wins on AVX2 (0.82–0.92×) but loses on
/// baseline (1.14–1.24×) while `k = 3` wins on both (0.55–0.61× /
/// 0.76–0.83×).
pub(crate) const ALIGN_MIN_PARTIAL: usize = 3;

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
        self.band_cells += other.band_cells;
        self.bytes_copied += other.bytes_copied;
        self.max_band = self.max_band.max(other.max_band);
        self.xdrop_retired += other.xdrop_retired;
        self.pad_cells += other.pad_cells;
    }
}

/// Packed per-lane direction bit-planes over the band cells of one
/// lane group: index `(i − 1) · bw + p` for DP row `i ∈ 1..=n` and band
/// position `p` (diagonal `j − i = dlo + p`).
struct DirStore {
    /// The band's lowest diagonal `j − i`.
    dlo: isize,
    /// The band's width in diagonals.
    bw: usize,
    /// Lane bit set ⇒ `H` came from `E` (vertical gap wins).
    up: Vec<u32>,
    /// Lane bit set ⇒ `H` came from `F` (horizontal gap wins).
    left: Vec<u32>,
    /// Lane bit set ⇒ `E` extended (else it opened). Affine only.
    e_ext: Vec<u32>,
    /// Lane bit set ⇒ `F` extended (else it opened). Affine only.
    f_ext: Vec<u32>,
    /// Lane bit set ⇒ the ν = 0 clamp fired (`H ≤ 0`): a local path
    /// *starts* here. `NU_ZERO` kinds only.
    stop: Vec<u32>,
}

impl DirStore {
    /// The store of an `n × m` problem's band of half-width `w`: the
    /// diagonals `j − i ∈ [dlo, dhi]` around the corridor, clamped to
    /// the matrix.
    fn new(n: usize, m: usize, w: usize, affine: bool, nu_zero: bool) -> DirStore {
        let (ni, mi, wi) = (n as isize, m as isize, w as isize);
        let skew = mi - ni;
        let dlo = (skew.min(0) - wi).max(-ni);
        let dhi = (skew.max(0) + wi).min(mi);
        let bw = (dhi - dlo + 1) as usize;
        let cells = n * bw;
        let plane = |on: bool| if on { vec![0; cells] } else { Vec::new() };
        DirStore {
            dlo,
            bw,
            up: plane(true),
            left: plane(true),
            e_ext: plane(affine),
            f_ext: plane(affine),
            stop: plane(nu_zero),
        }
    }

    /// The [`pred`] byte the scalar relaxation records at DP cell
    /// `(i, j)` of the band, composed from lane `lane`'s bits.
    fn pred(&self, i: usize, j: usize, lane: usize) -> u8 {
        let idx = (i - 1) * self.bw + (j as isize - i as isize - self.dlo) as usize;
        let set = |plane: &[u32]| plane.get(idx).is_some_and(|&bits| bits >> lane & 1 != 0);
        let dir = if set(&self.stop) {
            pred::NONE
        } else if set(&self.up) {
            pred::UP
        } else if set(&self.left) {
            pred::LEFT
        } else {
            pred::DIAG
        };
        let e_ext = if set(&self.e_ext) { pred::E_EXT } else { 0 };
        let f_ext = if set(&self.f_ext) { pred::F_EXT } else { 0 };
        dir | e_ext | f_ext
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

/// Per-lane banded optimum: best value plus the 1-based DP cell it was
/// attained at (lane positions fit i16 — the extent budget caps n, m).
struct BandedOpt<const L: usize> {
    best: I16s<L>,
    bi: I16s<L>,
    bj: I16s<L>,
}

impl<const L: usize> BandedOpt<L> {
    /// Strict-greater candidate update at cell `(i, j)`. Candidates
    /// arrive in row-major order (seeds first), so first-max-wins
    /// reproduces the scalar `BestCell` tie-break: the smallest
    /// `(i, j)` among equal scores.
    #[inline(always)]
    fn update(&mut self, val: I16s<L>, i: usize, j: usize) {
        let better = val.gt_mask(self.best);
        self.best = val.blend(better, self.best);
        self.bi = I16s::splat(i as i16).blend(better, self.bi);
        self.bj = I16s::splat(j as i16).blend(better, self.bj);
    }
}

/// Relaxes one lane group over `store`'s band on `tier`, recording
/// packed directions. Returns the per-lane kind-`K` optimum
/// (differential base 0) and the cell where it is attained;
/// bit-identical on every tier.
///
/// Cells outside the band (or the matrix) read as the saturating
/// sentinel, exactly like the full-width kernel's −∞ stripes, so a
/// path that would profit from leaving the band simply scores lower
/// than the exact optimum.
fn banded_group_kernel<K, G, SS, const L: usize>(
    tier: Tier,
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    store: &mut DirStore,
) -> BandedOpt<L>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    tier.run(
        #[inline(always)]
        || banded_body::<K, G, SS, L>(gap, subst, q_rows, s_cols, store),
    )
}

/// `#[inline(always)]` so the relaxation takes the target features of
/// the tier trampoline it is inlined into.
#[inline(always)]
fn banded_body<K, G, SS, const L: usize>(
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    store: &mut DirStore,
) -> BandedOpt<L>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let n = q_rows.len();
    let m = s_cols.len();
    let (dlo, bw) = (store.dlo, store.bw);
    let sent = I16s::<L>::splat(SENT16);
    let ext = gap.extend() as i16;
    let openext = (gap.open() + gap.extend()) as i16;

    // Lane-uniform kind-`K` init stripes (differential base 0).
    let top_h = init_top_h::<K, G>(gap, m);
    let top_e = init_top_e::<K, G>(gap, m);
    let left_h = init_left_h::<K, G>(gap, n, gap.open());
    let left_f = init_left_f::<G>(n);
    debug_assert!(left_f.iter().all(|&v| v <= SENT16 as Score));

    // Optimum seeds, in `BestCell` candidate order: border kinds can
    // end on the init stripes at (0, m) — the (n, 0) seed arrives in
    // row-major order below — and anywhere kinds always have the empty
    // alignment at the origin.
    let mut opt = match K::OPT {
        OptRegion::Corner => BandedOpt {
            best: sent,
            bi: I16s::splat(n as i16),
            bj: I16s::splat(m as i16),
        },
        OptRegion::Border => BandedOpt {
            best: I16s::splat(to16(top_h[m], 0)),
            bi: I16s::splat(0),
            bj: I16s::splat(m as i16),
        },
        OptRegion::Anywhere => BandedOpt {
            best: I16s::splat(0),
            bi: I16s::splat(0),
            bj: I16s::splat(0),
        },
    };

    // Row 0: band position p holds column j = dlo + p.
    let mut h = vec![sent; bw];
    let mut e = vec![sent; bw];
    for p in 0..bw {
        let j = dlo + p as isize;
        if (0..=m as isize).contains(&j) {
            h[p] = I16s::splat(to16(top_h[j as usize], 0));
            if G::AFFINE && j >= 1 {
                e[p] = I16s::splat(to16(top_e[j as usize - 1], 0));
            }
        }
    }

    for i in 1..=n {
        let qc = &q_rows[i - 1];
        let row_base = (i - 1) * bw;
        let mut f = sent;
        // In the sliding band layout, position p at row i is column
        // j = i + dlo + p; relative to row i−1 the same p is the
        // diagonal neighbour, p+1 is the vertical neighbour and the
        // freshly written p−1 is the horizontal neighbour.
        for p in 0..bw {
            let j = i as isize + dlo + p as isize;
            if j < 0 || j > m as isize {
                h[p] = sent;
                if G::AFFINE {
                    e[p] = sent;
                }
                continue;
            }
            if j == 0 {
                h[p] = I16s::splat(to16(left_h[i - 1], 0));
                if G::AFFINE {
                    e[p] = sent;
                }
                f = sent;
                // The (n, 0) border seed — skipping all of s.
                if matches!(K::OPT, OptRegion::Border) && i == n {
                    opt.update(h[p], n, 0);
                }
                continue;
            }
            let j = j as usize;
            let diag = h[p];
            let up = if p + 1 < bw { h[p + 1] } else { sent };
            let left = if p > 0 { h[p - 1] } else { sent };

            let (ecur, e_ext_mask) = if G::AFFINE {
                let extend = if p + 1 < bw { e[p + 1] } else { sent }.sat_adds(ext);
                let open = up.sat_adds(openext);
                (extend.max(open), extend.gt_mask(open))
            } else {
                (up.sat_adds(ext), 0)
            };
            let (fcur, f_ext_mask) = if G::AFFINE {
                let extend = f.sat_adds(ext);
                let open = left.sat_adds(openext);
                (extend.max(open), extend.gt_mask(open))
            } else {
                (left.sat_adds(ext), 0)
            };
            let dval = diag.sat_add(subst.lanes_score(qc, &s_cols[j - 1]));
            let mut hval = dval.max(ecur).max(fcur);

            // Direction masks come from the raw (pre-clamp) value: a
            // clamped cell's directions are dead — its `stop` bit makes
            // the decoder end the path there instead of reading them.
            let diag_mask = dval.eq_mask(hval);
            let up_mask = ecur.eq_mask(hval) & !diag_mask;
            let left_mask = fcur.eq_mask(hval) & !diag_mask & !up_mask;
            store.up[row_base + p] = up_mask;
            store.left[row_base + p] = left_mask;
            if K::NU_ZERO {
                store.stop[row_base + p] = I16s::splat(1).gt_mask(hval);
                hval = hval.maxs(0);
            }
            if G::AFFINE {
                store.e_ext[row_base + p] = e_ext_mask;
                store.f_ext[row_base + p] = f_ext_mask;
                e[p] = ecur;
            }
            f = fcur;
            h[p] = hval;

            match K::OPT {
                OptRegion::Corner => {}
                OptRegion::Border => {
                    if j == m || i == n {
                        opt.update(hval, i, j);
                    }
                }
                OptRegion::Anywhere => opt.update(hval, i, j),
            }
        }
    }

    if matches!(K::OPT, OptRegion::Corner) {
        let corner = (m as isize - n as isize - dlo) as usize;
        opt.best = h[corner];
    }
    opt
}

/// Aligns one lane group's pairs in one banded vector pass at the
/// group's widest proven width (see [`proven_half_width`]), capped at
/// [`BandCfg::max`]. A lane is decoded only under its own proof: its
/// proven width fits the pass, so the band holds all of its optimal
/// paths and the lane decodes to the scalar walk's alignment. Returns
/// one entry per live lane: `None` for lanes whose proof the cap cuts
/// (the caller rescues those with scalar traceback).
fn align_lane_group<K, G, SS, const L: usize>(
    gap: &G,
    subst: &SS,
    pairs: &[PairRef<'_>],
    group: &LaneGroup<L>,
    band: BandCfg,
    stats: &mut TraceStats,
) -> Vec<Option<Alignment>>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let (n, m) = group.shape;

    // The lane transpose: the only sequence-byte copy on this path.
    stats.bytes_copied += ((n + m) * L) as u64;
    let (q_rows, s_cols) =
        anyseq_obs::span(Stage::Transpose, || transpose_lanes(pairs, &group.lanes));

    // Exact kind-`K` optima from the full-width score kernel: they
    // prove each lane's band.
    let mut borders = BlockBorders::<L>::init::<K, G>(gap, n, m);
    let exact = anyseq_obs::span(Stage::Kernel, || {
        block_kernel_kind::<K, G, SS, false, L>(gap, subst, &q_rows, &s_cols, &mut borders, 0)
    })
    .best;
    let proven: [usize; L] = std::array::from_fn(|l| {
        let best = from16(exact.0[l], 0);
        proven_half_width::<K, G>(gap, subst.max_score(), n, m, best)
    });
    let w = proven[..group.fill]
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .min(band.max);

    let mut store = DirStore::new(n, m, w, G::AFFINE, K::NU_ZERO);
    let banded = anyseq_obs::span(Stage::Kernel, || {
        banded_group_kernel::<K, G, SS, L>(Tier::detect(), gap, subst, &q_rows, &s_cols, &mut store)
    });
    stats.band_cells += (n * store.bw * L) as u64;
    stats.max_band = stats.max_band.max(store.bw as u64);

    anyseq_obs::span(Stage::Traceback, || {
        let lanes = group.live().iter().enumerate();
        lanes
            .map(|(l, &idx)| {
                if proven[l] > w {
                    stats.band_overflows += 1;
                    return None;
                }
                debug_assert_eq!(banded.best.0[l], exact.0[l], "a proven band is exact");
                stats.lane_pairs += 1;
                let p = pairs[idx];
                let end = (banded.bi.0[l] as usize, banded.bj.0[l] as usize);
                let score = from16(exact.0[l], 0);
                Some(trace::<K>(p.q, p.s, score, end, |i, j| store.pred(i, j, l)))
            })
            .collect()
    })
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
    let gap = *scheme.gap();
    let subst = *scheme.subst();
    let extent_budget = max_block_extent(&gap, &subst);
    // Exact-shape groups: the band and the proving score pass are
    // sized by the group's shape, which padding would only widen.
    let built = LaneGroups::<L>::build(pairs, extent_budget, ALIGN_MIN_PARTIAL, 0);
    let scalar = |idx: usize| {
        let p = pairs[idx];
        anyseq_obs::span(Stage::Traceback, || scheme.align_codes(p.q, p.s))
    };
    let group = |group: &LaneGroup<L>, stats: &mut TraceStats, out: &mut Vec<_>| {
        let alns = align_lane_group::<K, G, SS, L>(&gap, &subst, pairs, group, band, stats);
        for (&idx, aln) in group.live().iter().zip(alns) {
            // `None`: band overflow (already counted), rescued by the
            // scalar path for this lane only.
            out.push((idx, aln.unwrap_or_else(|| scalar(idx))));
        }
    };
    built.run(threads, pairs.len(), Alignment::empty(0), group, scalar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::kind::{Global, Local, SemiGlobal};
    use anyseq_core::prelude::{affine, global, linear, local, semiglobal, simple};
    use anyseq_core::scoring::{AffineGap, LinearGap, SimpleSubst, SubstScore};
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

    #[test]
    fn band_overflow_falls_back_to_scalar() {
        // A 50-base block swap pushes the optimal path ~50 diagonals
        // off the corridor; a band capped at 4 cannot contain it.
        let mut sim = GenomeSim::new(23);
        let head = sim.generate(50);
        let tail = sim.generate(100);
        let mut q_codes = head.codes().to_vec();
        q_codes.extend_from_slice(tail.codes());
        let mut s_codes = tail.codes().to_vec();
        s_codes.extend_from_slice(head.codes());
        let q = Seq::from_codes(q_codes).unwrap();
        let s = Seq::from_codes(s_codes).unwrap();
        let pairs: Vec<(Seq, Seq)> = (0..8).map(|_| (q.clone(), s.clone())).collect();

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
                let mut store = DirStore::new(n, m, w, G::AFFINE, K::NU_ZERO);
                let opt = banded_group_kernel::<K, G, _, L>(
                    tier, &gap, &subst, &q_rows, &s_cols, &mut store,
                );
                (
                    (opt.best, opt.bi, opt.bj),
                    [store.up, store.left, store.e_ext, store.f_ext, store.stop],
                )
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
                    let mut store = DirStore::new(n, m, w, G::AFFINE, K::NU_ZERO);
                    banded_group_kernel::<K, G, _, L>(
                        Tier::BASELINE,
                        &gap,
                        &subst,
                        &q_rows,
                        &s_cols,
                        &mut store,
                    )
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
            stats.lane_pairs + stats.scalar_pairs + stats.band_overflows,
            pairs.len() as u64
        );
        // Workers' results and telemetry merge to the same answer at
        // every thread count.
        for threads in [3, 8] {
            let (par, par_stats) = run::<_, _, _, 16>(&scheme, &pairs, threads, BandCfg::default());
            assert_eq!(par, alns, "threads = {threads}");
            assert_eq!(par_stats, stats, "threads = {threads}");
        }
    }
}
