//! Lane-packed banded traceback for the inter-sequence SIMD backend.
//!
//! The score path ([`crate::batch`]) keeps one whole alignment per
//! 16-bit vector lane; this module extends that shape to full
//! tracebacks so a short-read batch can produce CIGARs without ever
//! leaving the vector unit. Three ideas combine:
//!
//! * **Packed per-lane direction store** — each banded DP cell records
//!   2 direction bits per lane (`up`/`left` set ⇒ gap, both clear ⇒
//!   diagonal) plus, for affine schemes, one `E`-extend and one
//!   `F`-extend bit. Bits for all lanes of one cell live in a single
//!   `u32` bit-plane, so the store costs 4 `u32`s per band cell
//!   regardless of lane count (L ≤ 32).
//! * **Adaptive band** — directions are only recorded inside a
//!   diagonal band `j − i ∈ [dlo, dhi]` around the alignment corridor.
//!   The group's banded corner score is checked lane-by-lane against
//!   the exact score from the full-width score kernel; any mismatch
//!   means a lane's optimal path escaped the band, and the group is
//!   re-run with the band width doubled (up to [`BandCfg::max`]).
//!   Lanes that still overflow fall back to the scalar
//!   `Scheme::align` — bit-exactness is never traded for speed.
//! * **Exactness by construction** — a lane is only decoded when its
//!   banded corner equals the exact score, so the decoded path
//!   realizes precisely that score and the CIGAR replays to it
//!   (`Alignment::validate` enforces this in the cross-engine suite).
//!
//! Tie-breaking prefers diagonal over `E` (vertical) over `F`
//! (horizontal), and gap *extension* over gap *open* on equal values.
//! The latter is what keeps affine CIGARs consistent: an open step is
//! only ever taken when it is strictly better, which (with
//! `open ≤ 0`) implies the cell above/left is not itself gap-preferring,
//! so two DP gap runs can never silently merge into one CIGAR run.

use crate::batch::{transpose_lanes, LaneGroup, LaneGroups};
use crate::isa::Tier;
use crate::kernel::{
    block_kernel_kind, from16, max_block_extent, to16, BlockBorders, SimdSubst, SENT16,
};
use crate::lanes::I16s;
use anyseq_core::alignment::{AlignOp, Alignment};
use anyseq_core::kind::{AlignKind, OptRegion};
use anyseq_core::pass::{init_left_f, init_left_h, init_top_e, init_top_h};
use anyseq_core::scheme::Scheme;
use anyseq_core::score::Score;
use anyseq_core::scoring::GapModel;
use anyseq_obs::Stage;
use anyseq_seq::PairRef;

/// Smallest bucket remainder the traceback path runs as a partial lane
/// group instead of `k` scalar `align_codes` calls. A padded group pays
/// a whole `L`-lane score pass plus banded pass whatever its fill, so
/// the break-even sits higher than the score path's 2. Measured on
/// `reads_align`-shaped pairs (150 × 150, global affine, L = 16): one
/// group costs 177 µs on the AVX2 tier and 240 µs on baseline against
/// 66–70 µs per scalar pair, so `k = 3` is a wash on AVX2 (0.94×) and a
/// loss on baseline (1.13×) while `k = 4` wins on both (0.67× / 0.86×).
pub(crate) const ALIGN_MIN_PARTIAL: usize = 4;

/// Adaptive-band tuning for the SIMD traceback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandCfg {
    /// Initial band half-width (diagonals each side of the corridor).
    pub initial: usize,
    /// Maximum half-width before a lane falls back to scalar traceback.
    pub max: usize,
}

impl Default for BandCfg {
    fn default() -> BandCfg {
        // 16 diagonals absorb Illumina-profile indels outright; 256
        // saturates a whole short-read matrix, so overflow fallbacks
        // only occur for long, structurally divergent pairs.
        BandCfg {
            initial: 16,
            max: 256,
        }
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
    /// Banded passes that were re-run with a doubled band width.
    pub band_widenings: u64,
    /// Pairs whose optimal path escaped the maximum band and were
    /// rescued by scalar traceback.
    pub band_overflows: u64,
    /// Vector DP cells relaxed across all banded passes (retries
    /// included) — `rows × band width × lanes` per pass.
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
    }
}

/// Packed per-lane direction bit-planes over the band cells of one
/// lane group: index `(i − 1) · band_width + p` for DP row `i ∈ 1..=n`
/// and band position `p` (diagonal `j − i = dlo + p`).
struct DirStore {
    /// Lane bit set ⇒ `H` came from `E` (vertical gap wins).
    up: Vec<u32>,
    /// Lane bit set ⇒ `H` came from `F` (horizontal gap wins).
    left: Vec<u32>,
    /// Lane bit set ⇒ `E` extended (else it opened). Affine only.
    e_ext: Vec<u32>,
    /// Lane bit set ⇒ `F` extended (else it opened). Affine only.
    f_ext: Vec<u32>,
    /// Lane bit set ⇒ the ν = 0 clamp fired (`H` would have gone
    /// negative): a local path *starts* here. `NU_ZERO` kinds only.
    stop: Vec<u32>,
}

impl DirStore {
    fn new(cells: usize, affine: bool, nu_zero: bool) -> DirStore {
        DirStore {
            up: vec![0; cells],
            left: vec![0; cells],
            e_ext: if affine { vec![0; cells] } else { Vec::new() },
            f_ext: if affine { vec![0; cells] } else { Vec::new() },
            stop: if nu_zero { vec![0; cells] } else { Vec::new() },
        }
    }
}

/// The diagonal band `j − i ∈ [dlo, dhi]` for an `n × m` problem at
/// half-width `w`, clamped to the matrix.
fn band_range(n: usize, m: usize, w: usize) -> (isize, isize) {
    let (n, m, w) = (n as isize, m as isize, w as isize);
    let skew = m - n;
    let dlo = (skew.min(0) - w).max(-n);
    let dhi = (skew.max(0) + w).min(m);
    (dlo, dhi)
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

/// Relaxes one lane group over the band on `tier`, recording packed
/// directions. Returns the per-lane kind-`K` optimum (differential
/// base 0) and the cell where it is attained; bit-identical on every
/// tier.
///
/// Cells outside the band (or the matrix) read as the saturating
/// sentinel, exactly like the full-width kernel's −∞ stripes, so a
/// path that would profit from leaving the band simply scores lower
/// than the exact optimum — which the caller detects by comparison.
#[allow(clippy::too_many_arguments)]
fn banded_group_kernel<K, G, SS, const L: usize>(
    tier: Tier,
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    dlo: isize,
    dhi: isize,
    store: &mut DirStore,
) -> BandedOpt<L>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    tier.run(
        #[inline(always)]
        || banded_body::<K, G, SS, L>(gap, subst, q_rows, s_cols, dlo, dhi, store),
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
    dlo: isize,
    dhi: isize,
    store: &mut DirStore,
) -> BandedOpt<L>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let n = q_rows.len();
    let m = s_cols.len();
    let bw = (dhi - dlo + 1) as usize;
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
                (extend.max(open), extend.ge_mask(open))
            } else {
                (up.sat_adds(ext), 0)
            };
            let (fcur, f_ext_mask) = if G::AFFINE {
                let extend = f.sat_adds(ext);
                let open = left.sat_adds(openext);
                (extend.max(open), extend.ge_mask(open))
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
                store.stop[row_base + p] = I16s::splat(0).gt_mask(hval);
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

/// Walks one lane's packed directions from the end cell `(i_e, j_e)`
/// back to the path's start, emitting ops front-to-back after the
/// final reverse. Returns the ops plus the 0-based `(q_start, s_start)`
/// where the path begins.
///
/// `free_begin` kinds end the walk at the first border touch (the init
/// stripes are free); anchored kinds pad the remaining edge distance
/// with one gap run. `nu_zero` kinds additionally end the walk at the
/// first cell whose `stop` bit is set — the ν = 0 clamp restarted the
/// path there, so its recorded directions are dead.
#[allow(clippy::too_many_arguments)] // one DP coordinate frame, one call site
fn decode_lane(
    store: &DirStore,
    end: (usize, usize),
    dlo: isize,
    bw: usize,
    lane: usize,
    q: &[u8],
    s: &[u8],
    affine: bool,
    free_begin: bool,
    nu_zero: bool,
) -> (Vec<AlignOp>, usize, usize) {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        M,
        E,
        F,
    }
    let bit = 1u32 << lane;
    let (mut i, mut j) = end;
    let mut ops = Vec::with_capacity(i + j);
    let mut st = St::M;
    while i > 0 || j > 0 {
        // Boundary stripes carry no directions. For anchored kinds the
        // rest of the path runs along the matrix edge as one gap run
        // (its score is the init stripe's, exactly `gap(len)`); for
        // free-begin kinds the stripe is free and the path ends here.
        if i == 0 {
            if !free_begin {
                ops.extend(std::iter::repeat_n(AlignOp::GapQ, j));
                j = 0;
            }
            break;
        }
        if j == 0 {
            if !free_begin {
                ops.extend(std::iter::repeat_n(AlignOp::GapS, i));
                i = 0;
            }
            break;
        }
        let idx = (i - 1) * bw + (j as isize - i as isize - dlo) as usize;
        match st {
            St::M => {
                if nu_zero && store.stop[idx] & bit != 0 {
                    break;
                }
                if store.up[idx] & bit != 0 {
                    if affine {
                        st = St::E;
                    } else {
                        ops.push(AlignOp::GapS);
                        i -= 1;
                    }
                } else if store.left[idx] & bit != 0 {
                    if affine {
                        st = St::F;
                    } else {
                        ops.push(AlignOp::GapQ);
                        j -= 1;
                    }
                } else {
                    ops.push(if q[i - 1] == s[j - 1] {
                        AlignOp::Match
                    } else {
                        AlignOp::Mismatch
                    });
                    i -= 1;
                    j -= 1;
                }
            }
            St::E => {
                ops.push(AlignOp::GapS);
                if store.e_ext[idx] & bit == 0 {
                    st = St::M;
                }
                i -= 1;
            }
            St::F => {
                ops.push(AlignOp::GapQ);
                if store.f_ext[idx] & bit == 0 {
                    st = St::M;
                }
                j -= 1;
            }
        }
    }
    ops.reverse();
    (ops, i, j)
}

/// Aligns one lane group's pairs in one banded vector pass, widening
/// the band until every live lane's corner matches its exact score.
/// Returns one entry per live lane: `None` for lanes that still
/// overflow at [`BandCfg::max`] (the caller rescues those with scalar
/// traceback).
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
    let (n, m) = (pairs[group.lanes[0]].q.len(), pairs[group.lanes[0]].s.len());

    // The lane transpose: the only sequence-byte copy on this path
    // (built once per group; band retries reuse it).
    stats.bytes_copied += ((n + m) * L) as u64;
    let (q_rows, s_cols) =
        anyseq_obs::span(Stage::Transpose, || transpose_lanes(pairs, &group.lanes));

    // Exact kind-`K` optima from the full-width score kernel: the
    // oracle every banded lane must reproduce before it is decoded.
    let mut borders = BlockBorders::<L>::init::<K, G>(gap, n, m);
    let exact = anyseq_obs::span(Stage::Kernel, || {
        block_kernel_kind::<K, G, SS, false, L>(gap, subst, &q_rows, &s_cols, &mut borders, 0)
    })
    .best;

    let tier = Tier::detect();
    let live = group.live_mask();
    let mut w = band.initial.max(1);
    loop {
        let (dlo, dhi) = band_range(n, m, w);
        let bw = (dhi - dlo + 1) as usize;
        let mut store = DirStore::new(n * bw, G::AFFINE, K::NU_ZERO);
        let banded = anyseq_obs::span(Stage::Kernel, || {
            banded_group_kernel::<K, G, SS, L>(
                tier, gap, subst, &q_rows, &s_cols, dlo, dhi, &mut store,
            )
        });
        stats.band_cells += (n * bw * L) as u64;
        stats.max_band = stats.max_band.max(bw as u64);

        let in_band = banded.best.eq_mask(exact);
        let full_matrix = dlo <= -(n as isize) && dhi >= m as isize;
        if in_band & live == live || full_matrix || w >= band.max {
            debug_assert!(!full_matrix || in_band & live == live);
            return anyseq_obs::span(Stage::Traceback, || {
                let lanes = group.live().iter().enumerate();
                lanes
                    .map(|(l, &idx)| {
                        if in_band & (1 << l) == 0 {
                            stats.band_overflows += 1;
                            return None;
                        }
                        stats.lane_pairs += 1;
                        let p = pairs[idx];
                        let end = (banded.bi.0[l] as usize, banded.bj.0[l] as usize);
                        let (ops, q_start, s_start) = decode_lane(
                            &store,
                            end,
                            dlo,
                            bw,
                            l,
                            p.q,
                            p.s,
                            G::AFFINE,
                            K::FREE_BEGIN,
                            K::NU_ZERO,
                        );
                        Some(Alignment {
                            score: from16(exact.0[l], 0),
                            ops,
                            q_start,
                            q_end: end.0,
                            s_start,
                            s_end: end.1,
                        })
                    })
                    .collect()
            });
        }
        stats.band_widenings += 1;
        w = (w * 2).min(band.max);
    }
}

/// Aligns a batch of independent pairs with `L`-lane SIMD banded
/// traceback; returns one kind-`K` [`Alignment`] per pair, in input
/// order, plus the run's band telemetry. `threads` works as in
/// [`score_batch_simd`](crate::batch::score_batch_simd); neither the
/// alignments nor the telemetry depend on it. Scores are bit-identical
/// to `scheme.align`; CIGARs are
/// guaranteed to replay to that score (ties may be broken differently
/// than the scalar Hirschberg traceback). X-drop never applies here —
/// tracebacks are always exact.
///
/// Pairs that cannot ride a lane group (bucket remainders below
/// `ALIGN_MIN_PARTIAL`, empty or oversized sequences) and lanes whose
/// optimal path escapes the maximum band are aligned by the scalar
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
    let built = LaneGroups::<L>::build(pairs, extent_budget, ALIGN_MIN_PARTIAL);
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
    use anyseq_core::scoring::{AffineGap, LinearGap};
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

    fn check_all<K: AlignKind, G: GapModel, SS: SimdSubst>(
        scheme: &Scheme<K, G, SS>,
        pairs: &[(Seq, Seq)],
        alns: &[Alignment],
    ) {
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(alns[k].score, scheme.score(q, s), "pair {k} score");
            alns[k]
                .validate::<K, _, _>(q, s, scheme.gap(), scheme.subst())
                .unwrap_or_else(|e| panic!("pair {k}: {e}"));
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
        let tiny = BandCfg { initial: 2, max: 4 };
        let (alns, stats) = run::<_, _, _, 8>(&scheme, &pairs, 2, tiny);
        check_all(&scheme, &pairs, &alns);
        assert_eq!(stats.band_overflows, 8, "every lane must overflow");
        assert!(
            stats.band_widenings > 0,
            "the band widened before giving up"
        );
        assert!(
            stats.max_band <= 2 * 4 + 1,
            "the cap bounds the widest band: {}",
            stats.max_band
        );

        // The default band contains the same paths without fallback —
        // after adaptively widening past its initial width.
        let (alns, stats) = run::<_, _, _, 8>(&scheme, &pairs, 2, BandCfg::default());
        check_all(&scheme, &pairs, &alns);
        assert_eq!(stats.band_overflows, 0);
        assert!(
            stats.max_band > 2 * BandCfg::default().initial as u64 + 1,
            "a 50-diagonal excursion forces widening: {}",
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
                let (dlo, dhi) = band_range(n, m, w);
                let bw = (dhi - dlo + 1) as usize;
                let mut store = DirStore::new(n * bw, G::AFFINE, K::NU_ZERO);
                let opt = banded_group_kernel::<K, G, _, L>(
                    tier, &gap, &subst, &q_rows, &s_cols, dlo, dhi, &mut store,
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
