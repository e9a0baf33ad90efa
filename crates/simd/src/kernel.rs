//! The vectorized block kernel: relaxes `L` *independent* equally-sized
//! tiles, one per SIMD lane, with 16-bit differential scores
//! (paper §IV-A: "Vectorization is done over blocks that consist of rows
//! from independent submatrices ... we use smaller data types (e.g.
//! 16 bits ...) for scores within a block" — here whole independent tiles
//! per lane, the natural strengthening of rows-per-lane that needs no
//! auxiliary score-lookup array).
//!
//! Scores inside a block are *differences to the block's incoming corner
//! value* (one rebase constant per lane); the i32 ↔ i16 conversion happens
//! only on the `O(h + w)` boundary stripes. Saturating arithmetic keeps
//! the −∞ sentinel pinned instead of wrapping.

use crate::isa::Tier;
use crate::lanes::I16s;
use anyseq_core::kind::{AlignKind, OptRegion};
use anyseq_core::pass::{init_left_f, init_left_h, init_top_e, init_top_h};
use anyseq_core::score::{Score, NEG_INF};
use anyseq_core::scoring::{GapModel, MatrixSubst, SimpleSubst, SubstScore};

/// The 16-bit −∞ sentinel. Large enough below any legitimate
/// differential score (bounded by `(h+w)·max|step|`, see
/// [`max_block_extent`]) that saturated drift never climbs back into the
/// legitimate range before a `max` rescues the cell.
pub const SENT16: i16 = -25_000;

/// Largest `h + w` a block may have for i16 differential scores to be
/// provably exact under the given scheme (paper §IV-A's bound: the
/// largest differential magnitude is `(h+w)` steps of the largest
/// per-step score change).
pub fn max_block_extent<G: GapModel, S: SubstScore>(gap: &G, subst: &S) -> usize {
    let step = subst
        .max_score()
        .abs()
        .max(subst.min_score().abs())
        .max(gap.extend().abs())
        .max((gap.open() + gap.extend()).abs())
        .max(1);
    // Keep differential values within ±12000, far from SENT16.
    (12_000 / step) as usize
}

/// Converts an absolute i32 score to a lane-local differential i16.
#[inline(always)]
pub fn to16(v: Score, base: Score) -> i16 {
    if v <= NEG_INF / 2 {
        SENT16
    } else {
        let d = v - base;
        debug_assert!(
            (-12_000..=12_000).contains(&d),
            "differential {d} exceeds the i16 block budget"
        );
        d as i16
    }
}

/// Converts a lane-local differential i16 back to an absolute i32 score.
#[inline(always)]
pub fn from16(v: i16, base: Score) -> Score {
    if v <= SENT16 / 2 {
        NEG_INF
    } else {
        base + v as Score
    }
}

/// Substitution functions usable inside the vector kernel.
///
/// The extra method is the paper's "substitution function" specialized
/// per lane block; [`SimpleSubst`] compiles to a branchless compare+blend,
/// [`MatrixSubst`] to per-lane gathers.
pub trait SimdSubst: SubstScore {
    /// σ over `L` lanes of base-code pairs.
    fn lanes_score<const L: usize>(&self, q: &[u8; L], s: &[u8; L]) -> I16s<L>;
}

impl SimdSubst for SimpleSubst {
    #[inline(always)]
    fn lanes_score<const L: usize>(&self, q: &[u8; L], s: &[u8; L]) -> I16s<L> {
        crate::lanes::select_eq(q, s, self.matches as i16, self.mismatch as i16)
    }
}

impl SimdSubst for MatrixSubst {
    #[inline(always)]
    fn lanes_score<const L: usize>(&self, q: &[u8; L], s: &[u8; L]) -> I16s<L> {
        let mut out = [0i16; L];
        for l in 0..L {
            out[l] = self.table[q[l] as usize][s[l] as usize] as i16;
        }
        I16s(out)
    }
}

/// Boundary stripes of a block of `L` independent tiles, in lane-local
/// differential i16 representation.
///
/// The kernel works **in place**: on return `top_h`/`top_e` hold the
/// bottom stripes and `left_h`/`left_f` hold the right stripes (the same
/// rolling-buffer trick as the scalar tile kernel).
#[derive(Default)]
pub struct BlockBorders<const L: usize> {
    /// `H` crossing the top edge, `w + 1` vectors (corner included).
    pub top_h: Vec<I16s<L>>,
    /// `E` crossing the top edge, `w` vectors (empty for linear models).
    pub top_e: Vec<I16s<L>>,
    /// `H` crossing the left edge, `h` vectors.
    pub left_h: Vec<I16s<L>>,
    /// `F` crossing the left edge, `h` vectors (empty for linear models).
    pub left_f: Vec<I16s<L>>,
}

impl<const L: usize> BlockBorders<L> {
    /// Kind-`K` initialization stripes of a whole `h × w` matrix,
    /// lane-uniform with differential base 0 — the block a batch lane
    /// group starts from.
    pub fn init<K: AlignKind, G: GapModel>(gap: &G, h: usize, w: usize) -> BlockBorders<L> {
        let lift = |stripe: Vec<Score>| stripe.iter().map(|&v| I16s::splat(to16(v, 0))).collect();
        BlockBorders {
            top_h: lift(init_top_h::<K, G>(gap, w)),
            top_e: lift(init_top_e::<K, G>(gap, w)),
            left_h: lift(init_left_h::<K, G>(gap, h, gap.open())),
            left_f: lift(init_left_f::<G>(h)),
        }
    }
}

/// Per-lane optimum produced by [`block_kernel_kind`].
pub struct KernelOpt<const L: usize> {
    /// Best score per lane over the kind's optimum region, in the same
    /// lane-local differential representation as the block borders. For
    /// `Corner` kinds this is the bottom-right cell.
    pub best: I16s<L>,
    /// Bit mask of lanes retired early by X-drop (0 when X-drop is off).
    pub retired: u32,
}

/// Relaxes a block of `L` independent `h × w` tiles, one per lane,
/// deriving the per-cell dataflow from `K`'s contract.
///
/// * `q_rows[r]` — the `L` query codes of tile-local row `r` (one per lane),
/// * `s_cols[c]` — the `L` subject codes of tile-local column `c`.
///
/// `NU_ZERO` clamps every cell at 0 (local alignment), and the per-lane
/// optimum is tracked over `K::OPT`'s region — `Corner`: the
/// bottom-right cell; `Border`: last row + last column + the
/// initialization seeds `H(0,w)`/`H(h,0)`; `Anywhere`: every cell plus
/// the empty-alignment score 0. For `Corner` kinds every extra
/// accumulator folds out and only the border relaxation remains.
///
/// With `XDROP = true` (non-`Corner` kinds only) a lane is *retired* once
/// the maximum of its current row drops more than `xdrop` below the
/// lane's running block maximum: its optimum freezes at the best already
/// seen and, when every lane has retired, the remaining rows are skipped
/// entirely. Retired lanes may under-report the true optimum — X-drop is
/// a heuristic; the default `XDROP = false` path is bit-exact.
///
/// Runs on the host's best ISA tier (see [`mod@crate::isa`]).
pub fn block_kernel_kind<K, G, SS, const XDROP: bool, const L: usize>(
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    borders: &mut BlockBorders<L>,
    xdrop: i16,
) -> KernelOpt<L>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let tier = Tier::detect();
    block_kernel_kind_on::<K, G, SS, XDROP, L>(tier, gap, subst, q_rows, s_cols, borders, xdrop)
}

/// [`block_kernel_kind`] on an explicit tier — the crate-private seam
/// the tier-identity tests drive; results are bit-identical on every
/// tier.
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_kernel_kind_on<K, G, SS, const XDROP: bool, const L: usize>(
    tier: Tier,
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    borders: &mut BlockBorders<L>,
    xdrop: i16,
) -> KernelOpt<L>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let h = q_rows.len();
    let w = s_cols.len();
    assert!(h > 0 && w > 0);
    assert_eq!(borders.top_h.len(), w + 1);
    assert_eq!(borders.left_h.len(), h);
    if G::AFFINE {
        assert_eq!(borders.top_e.len(), w);
        assert_eq!(borders.left_f.len(), h);
    }
    debug_assert!(
        !XDROP || !matches!(K::OPT, OptRegion::Corner),
        "X-drop is meaningless for corner-optimum kinds"
    );
    tier.run(
        #[inline(always)]
        || kind_body::<K, G, SS, XDROP, L>(gap, subst, q_rows, s_cols, borders, xdrop),
    )
}

/// The relaxation proper; `#[inline(always)]` so it takes the target
/// features of the tier trampoline it is inlined into.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn kind_body<K, G, SS, const XDROP: bool, const L: usize>(
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    borders: &mut BlockBorders<L>,
    xdrop: i16,
) -> KernelOpt<L>
where
    K: AlignKind,
    G: GapModel,
    SS: SimdSubst,
{
    let h = q_rows.len();
    let w = s_cols.len();
    // Stripes as slices of known length and the scoring function by
    // value: the stores below then provably alias neither a `Vec`
    // header nor `subst`, so lengths, pointers and the match/mismatch
    // splats stay in registers across the inner loop.
    let top_h = &mut borders.top_h[..w + 1];
    let left_h = &mut borders.left_h[..h];
    let (top_e, left_f): (&mut [I16s<L>], &mut [I16s<L>]) = if G::AFFINE {
        (&mut borders.top_e[..w], &mut borders.left_f[..h])
    } else {
        (&mut [], &mut [])
    };
    let subst = *subst;
    let ext = gap.extend() as i16;
    let openext = (gap.open() + gap.extend()) as i16;
    let all: u32 = if L >= 32 { u32::MAX } else { (1u32 << L) - 1 };

    // Optimum seeds: Border kinds can end on the init stripes at H(0,w)
    // (H(h,0) is folded in at the end, it sits in the final bottom
    // stripe); Anywhere kinds always have the empty alignment (score 0).
    let mut best = match K::OPT {
        OptRegion::Corner => I16s::splat(SENT16),
        OptRegion::Border => top_h[w],
        OptRegion::Anywhere => I16s::splat(0),
    };
    let mut active = all;
    let mut retired = 0u32;
    let mut run_max = I16s::<L>::splat(SENT16);

    for r in 0..h {
        let qc = &q_rows[r];
        let mut diag = top_h[0];
        top_h[0] = left_h[r];
        let mut left = top_h[0];
        let mut f = if G::AFFINE {
            left_f[r]
        } else {
            I16s::splat(SENT16)
        };
        let mut row_max = I16s::<L>::splat(SENT16);
        for c in 0..w {
            let up = top_h[c + 1];
            let e = if G::AFFINE {
                top_e[c].sat_adds(ext).max(up.sat_adds(openext))
            } else {
                up.sat_adds(ext)
            };
            f = if G::AFFINE {
                f.sat_adds(ext).max(left.sat_adds(openext))
            } else {
                left.sat_adds(ext)
            };
            let sub = subst.lanes_score(qc, &s_cols[c]);
            let mut hval = diag.sat_add(sub).max(e).max(f);
            if K::NU_ZERO {
                hval = hval.maxs(0);
            }
            if XDROP || matches!(K::OPT, OptRegion::Anywhere) {
                row_max = row_max.max(hval);
            }
            diag = up;
            top_h[c + 1] = hval;
            if G::AFFINE {
                top_e[c] = e;
            }
            left = hval;
        }
        left_h[r] = top_h[w];
        if G::AFFINE {
            left_f[r] = f;
        }
        match K::OPT {
            OptRegion::Corner => {}
            // Right-column candidate H(r+1, w).
            OptRegion::Border => best = top_h[w].max(best).blend(active, best),
            OptRegion::Anywhere => best = row_max.max(best).blend(active, best),
        }
        if XDROP {
            run_max = run_max.max(row_max).blend(active, run_max);
            let cutoff = run_max.sat_adds(xdrop.saturating_neg());
            let dropped = cutoff.gt_mask(row_max) & active;
            if dropped != 0 {
                retired |= dropped;
                active &= !dropped;
                if active == 0 {
                    break;
                }
            }
        }
    }

    match K::OPT {
        OptRegion::Corner => best = top_h[w],
        // Bottom-row candidates H(h, 0..=w) — including the H(h, 0) seed,
        // which the rolling buffers leave in `top_h[0]` after the last row.
        OptRegion::Border => {
            let mut bottom = top_h[0];
            for c in 1..=w {
                bottom = bottom.max(top_h[c]);
            }
            best = bottom.max(best).blend(active, best);
        }
        OptRegion::Anywhere => {}
    }
    KernelOpt { best, retired }
}

/// Masked-dataflow variant of [`block_kernel_kind`]`::<Global>` used by
/// the SeqAn-like baseline: intrinsics-level SIMD code "requires to
/// emulate control flow constructs such as if, while, or break with
/// masked data flow — a time-consuming and error-prone process" (paper
/// §V). This kernel therefore unconditionally maintains the affine E/F
/// lanes (even for linear schemes), a running block maximum, and a ν
/// floor mask — the redundant lane work a masked translation of the
/// general variant carries. Results are identical; only the instruction
/// count differs. Runs on the same ISA tier as [`block_kernel_kind`], so
/// the two stay comparable like for like.
pub fn block_kernel_masked<G, SS, const L: usize>(
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    borders: &mut BlockBorders<L>,
) where
    G: GapModel,
    SS: SimdSubst,
{
    let h = q_rows.len();
    let w = s_cols.len();
    assert!(h > 0 && w > 0);
    assert_eq!(borders.top_h.len(), w + 1);
    assert_eq!(borders.left_h.len(), h);

    // E/F stripes are materialized even for linear gap models.
    if borders.top_e.len() != w {
        borders.top_e = (0..w)
            .map(|c| borders.top_h[c + 1].sat_adds(gap.open() as i16))
            .collect();
    }
    if borders.left_f.len() != h {
        borders.left_f = vec![I16s::splat(SENT16); h];
    }
    Tier::detect().run(
        #[inline(always)]
        || masked_body(gap, subst, q_rows, s_cols, borders),
    )
}

#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn masked_body<G, SS, const L: usize>(
    gap: &G,
    subst: &SS,
    q_rows: &[[u8; L]],
    s_cols: &[[u8; L]],
    borders: &mut BlockBorders<L>,
) where
    G: GapModel,
    SS: SimdSubst,
{
    let h = q_rows.len();
    let w = s_cols.len();
    // Same slice-and-copy prologue as `kind_body`, so the two kernels
    // differ by the masked ballast only.
    let top_h = &mut borders.top_h[..w + 1];
    let top_e = &mut borders.top_e[..w];
    let left_h = &mut borders.left_h[..h];
    let left_f = &mut borders.left_f[..h];
    let subst = *subst;
    let ext = gap.extend() as i16;
    let openext = (gap.open() + gap.extend()) as i16;
    // Masked-flow ballast: these accumulators exist in the "general"
    // masked translation whether or not the variant needs them.
    let mut running_max = I16s::<L>::splat(SENT16);
    let nu_floor = I16s::<L>::splat(SENT16);

    for r in 0..h {
        let qc = &q_rows[r];
        let mut diag = top_h[0];
        top_h[0] = left_h[r];
        let mut left = top_h[0];
        let mut f = left_f[r];
        for c in 0..w {
            let up = top_h[c + 1];
            let e = top_e[c].sat_adds(ext).max(up.sat_adds(openext));
            f = f.sat_adds(ext).max(left.sat_adds(openext));
            let sub = subst.lanes_score(qc, &s_cols[c]);
            let mut hval = diag.sat_add(sub).max(e).max(f);
            // ν mask applied unconditionally (a no-op floor for global).
            hval = hval.max(nu_floor);
            running_max = running_max.max(hval);
            diag = up;
            top_h[c + 1] = hval;
            top_e[c] = e;
            left = hval;
        }
        left_h[r] = top_h[w];
        left_f[r] = f;
    }
    // Keep the running maximum live so the optimizer cannot drop the
    // masked ballast.
    std::hint::black_box(running_max.hmax());
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::kind::{Extension, FreeEnd, Global, Local, SemiGlobal};
    use anyseq_core::pass::score_pass;
    use anyseq_core::scoring::{simple, AffineGap, GapModel, LinearGap};
    use anyseq_core::tile::{relax_tile, NoSink, TileIn, TileOut};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `L` random problems of one `h × w` shape, one per lane.
    struct Lanes<const L: usize> {
        qs: Vec<Vec<u8>>,
        ss: Vec<Vec<u8>>,
        q_rows: Vec<[u8; L]>,
        s_cols: Vec<[u8; L]>,
    }

    fn random_lanes<const L: usize>(h: usize, w: usize, seed: u64) -> Lanes<L> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |len: usize| -> Vec<Vec<u8>> {
            (0..L)
                .map(|_| (0..len).map(|_| rng.gen_range(0..4u8)).collect())
                .collect()
        };
        let qs = draw(h);
        let ss = draw(w);
        Lanes {
            q_rows: (0..h).map(|r| std::array::from_fn(|l| qs[l][r])).collect(),
            s_cols: (0..w).map(|c| std::array::from_fn(|l| ss[l][c])).collect(),
            qs,
            ss,
        }
    }

    /// Runs the kernel on `tier` with `L` whole small problems and
    /// compares every lane's out-borders against the scalar tile kernel
    /// and its optimum against the scalar score pass. `XDROP` runs with a
    /// threshold no lane can reach, which must not change a bit.
    fn check_against_scalar<K, G, const XDROP: bool, const L: usize>(tier: Tier, gap: G, seed: u64)
    where
        K: AlignKind,
        G: GapModel + Copy,
    {
        let subst = simple(2, -3);
        let (h, w) = (21, 15);
        let lanes = random_lanes::<L>(h, w, seed);
        let top_h = init_top_h::<K, G>(&gap, w);
        let top_e = init_top_e::<K, G>(&gap, w);
        let left_h = init_left_h::<K, G>(&gap, h, gap.open());
        let left_f = init_left_f::<G>(h);
        let mut borders = BlockBorders::<L>::init::<K, G>(&gap, h, w);
        let opt = block_kernel_kind_on::<K, G, _, XDROP, L>(
            tier,
            &gap,
            &subst,
            &lanes.q_rows,
            &lanes.s_cols,
            &mut borders,
            if XDROP { 12_000 } else { 0 },
        );
        assert_eq!(opt.retired, 0);
        let what = format!(
            "{} {} affine={} xdrop={XDROP} L={L} seed={seed}",
            tier.name(),
            K::NAME,
            G::AFFINE
        );
        for l in 0..L {
            let (q, s) = (&lanes.qs[l], &lanes.ss[l]);
            let mut out = TileOut::new();
            relax_tile::<K, G, _, _>(
                &gap,
                &subst,
                q,
                s,
                (1, 1),
                (h, w),
                TileIn {
                    top_h: &top_h,
                    top_e: &top_e,
                    left_h: &left_h,
                    left_f: &left_f,
                },
                &mut out,
                &mut NoSink,
            );
            let lane = |v: &[I16s<L>]| v.iter().map(|x| from16(x.0[l], 0)).collect::<Vec<_>>();
            assert_eq!(lane(&borders.top_h), out.bot_h, "{what} lane {l} bottom H");
            assert_eq!(
                lane(&borders.left_h),
                out.right_h,
                "{what} lane {l} right H"
            );
            if G::AFFINE {
                assert_eq!(lane(&borders.top_e), out.bot_e, "{what} lane {l} bottom E");
                assert_eq!(
                    lane(&borders.left_f),
                    out.right_f,
                    "{what} lane {l} right F"
                );
            }
            let pass = score_pass::<K, G, _>(&gap, &subst, q, s, gap.open());
            assert_eq!(
                from16(opt.best.0[l], 0),
                pass.score,
                "{what} lane {l} optimum"
            );
        }
    }

    const LIN: LinearGap = LinearGap { gap: -2 };
    const AFF: AffineGap = AffineGap {
        open: -3,
        extend: -1,
    };

    #[test]
    fn block_matches_scalar_linear() {
        for seed in 0..4 {
            check_against_scalar::<Global, _, false, 8>(
                Tier::detect(),
                LinearGap { gap: -1 },
                seed,
            );
        }
    }

    #[test]
    fn block_matches_scalar_affine() {
        for seed in 0..4 {
            check_against_scalar::<Global, _, false, 8>(Tier::detect(), AFF, seed);
        }
    }

    #[test]
    fn kind_kernel_matches_scalar_pass_all_kinds() {
        for seed in 0..4 {
            let tier = Tier::detect();
            check_against_scalar::<Global, _, false, 8>(tier, LIN, seed);
            check_against_scalar::<Global, _, false, 8>(tier, AFF, seed);
            check_against_scalar::<SemiGlobal, _, false, 8>(tier, LIN, seed);
            check_against_scalar::<SemiGlobal, _, false, 8>(tier, AFF, seed);
            check_against_scalar::<Local, _, false, 8>(tier, LIN, seed);
            check_against_scalar::<Local, _, false, 8>(tier, AFF, seed);
            check_against_scalar::<FreeEnd, _, false, 8>(tier, LIN, seed);
            check_against_scalar::<FreeEnd, _, false, 8>(tier, AFF, seed);
            check_against_scalar::<Extension, _, false, 8>(tier, LIN, seed);
            check_against_scalar::<Extension, _, false, 8>(tier, AFF, seed);
        }
    }

    /// Every tier the host has × kind × gap model × X-drop × lane width:
    /// borders and optimum bit-identical to the scalar oracle. (Run it
    /// with `--release` too: only optimised builds execute vector code.)
    #[test]
    fn every_tier_kind_gap_xdrop_and_width_matches_scalar() {
        fn widths<K: AlignKind, G: GapModel + Copy, const XDROP: bool>(tier: Tier, gap: G) {
            for seed in 0..2 {
                check_against_scalar::<K, G, XDROP, 8>(tier, gap, seed);
                check_against_scalar::<K, G, XDROP, 16>(tier, gap, seed);
                check_against_scalar::<K, G, XDROP, 32>(tier, gap, seed);
            }
        }
        fn gaps<K: AlignKind, const XDROP: bool>(tier: Tier) {
            widths::<K, _, XDROP>(tier, LIN);
            widths::<K, _, XDROP>(tier, AFF);
        }
        for tier in Tier::available() {
            // X-drop does not exist for corner-optimum kinds.
            gaps::<Global, false>(tier);
            gaps::<SemiGlobal, false>(tier);
            gaps::<SemiGlobal, true>(tier);
            gaps::<Local, false>(tier);
            gaps::<Local, true>(tier);
        }
    }

    /// A threshold that does retire lanes: which lanes retire, and the
    /// optimum they freeze at, must not depend on the tier either.
    #[test]
    fn xdrop_retirement_is_tier_independent() {
        fn run<K: AlignKind, const L: usize>(tier: Tier, seed: u64) -> ([i16; L], u32) {
            let (h, w) = (40, 40);
            let lanes = random_lanes::<L>(h, w, seed);
            let mut borders = BlockBorders::<L>::init::<K, _>(&AFF, h, w);
            let opt = block_kernel_kind_on::<K, _, _, true, L>(
                tier,
                &AFF,
                &simple(2, -3),
                &lanes.q_rows,
                &lanes.s_cols,
                &mut borders,
                6,
            );
            (opt.best.0, opt.retired)
        }
        for seed in 0..4 {
            let semi = run::<SemiGlobal, 16>(Tier::BASELINE, seed);
            let loc = run::<Local, 32>(Tier::BASELINE, seed);
            for tier in Tier::available() {
                assert_eq!(run::<SemiGlobal, 16>(tier, seed), semi, "{}", tier.name());
                assert_eq!(run::<Local, 32>(tier, seed), loc, "{}", tier.name());
            }
        }
    }

    /// The codegen guard. Tiers are bit-identical, so if the relaxation
    /// ever stops inlining into its `#[target_feature]` trampoline the
    /// "AVX2" kernel silently becomes baseline code and every identity
    /// test above still passes; only the clock sees it. On an AVX2 host
    /// the tiered L = 16 kernel measures 1.8–2.0× the baseline build of
    /// the same body; below 1.4× the tier is broken. Optimised builds
    /// only — debug code is vectorised on neither tier.
    #[test]
    fn avx2_tier_outruns_the_baseline_build() {
        if cfg!(debug_assertions) || crate::isa() != "avx2" {
            return;
        }
        const L: usize = 16;
        let (h, w) = (150, 150);
        let lanes = random_lanes::<L>(h, w, 0x15a);
        let subst = simple(2, -1);
        let fresh = BlockBorders::<L>::init::<Global, _>(&AFF, h, w);
        let mut block = BlockBorders::<L>::init::<Global, _>(&AFF, h, w);
        let mut time = |tier: Tier| {
            let t0 = std::time::Instant::now();
            for _ in 0..200 {
                block.top_h.clone_from(&fresh.top_h);
                block.top_e.clone_from(&fresh.top_e);
                block.left_h.clone_from(&fresh.left_h);
                block.left_f.clone_from(&fresh.left_f);
                let opt = block_kernel_kind_on::<Global, _, _, false, L>(
                    tier,
                    &AFF,
                    &subst,
                    &lanes.q_rows,
                    &lanes.s_cols,
                    &mut block,
                    0,
                );
                std::hint::black_box(opt.best.0);
            }
            t0.elapsed().as_secs_f64()
        };
        // Best of seven alternating rounds: the minimum is what the
        // code can do; the shared host only ever adds time.
        let (mut baseline, mut tiered) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..7 {
            baseline = baseline.min(time(Tier::BASELINE));
            tiered = tiered.min(time(Tier::detect()));
        }
        let ratio = baseline / tiered;
        assert!(
            ratio >= 1.4,
            "avx2 tier runs the lane kernel at {ratio:.2}x the baseline build (< 1.4): \
             the body is not inlining into the trampoline"
        );
    }

    #[test]
    fn masked_kernel_matches_general_kernel() {
        const L: usize = 16;
        let (h, w) = (19, 27);
        let lanes = random_lanes::<L>(h, w, 3);
        let subst = simple(2, -1);
        let mut general = BlockBorders::<L>::init::<Global, _>(&AFF, h, w);
        let mut masked = BlockBorders::<L>::init::<Global, _>(&AFF, h, w);
        block_kernel_kind::<Global, _, _, false, L>(
            &AFF,
            &subst,
            &lanes.q_rows,
            &lanes.s_cols,
            &mut general,
            0,
        );
        block_kernel_masked(&AFF, &subst, &lanes.q_rows, &lanes.s_cols, &mut masked);
        assert_eq!(masked.top_h, general.top_h);
        assert_eq!(masked.left_h, general.left_h);
    }

    #[test]
    fn huge_xdrop_threshold_is_bit_exact() {
        const L: usize = 4;
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        let (h, w) = (12, 9);
        let lanes = random_lanes::<L>(h, w, 7);
        let mut exact_b = BlockBorders::<L>::init::<SemiGlobal, _>(&gap, h, w);
        let exact = block_kernel_kind::<SemiGlobal, _, _, false, L>(
            &gap,
            &subst,
            &lanes.q_rows,
            &lanes.s_cols,
            &mut exact_b,
            0,
        );
        let mut xd_b = BlockBorders::<L>::init::<SemiGlobal, _>(&gap, h, w);
        let xd = block_kernel_kind::<SemiGlobal, _, _, true, L>(
            &gap,
            &subst,
            &lanes.q_rows,
            &lanes.s_cols,
            &mut xd_b,
            10_000,
        );
        assert_eq!(xd.retired, 0);
        assert_eq!(xd.best.0, exact.best.0);
    }

    #[test]
    fn xdrop_retires_diverged_lanes() {
        const L: usize = 4;
        let gap = LinearGap { gap: -2 };
        let subst = simple(2, -3);
        // Matching prefix, then long hard divergence: the running max is
        // reached early and every later row only sinks.
        let q: Vec<u8> = [vec![0u8; 10], vec![1u8; 60]].concat();
        let s: Vec<u8> = [vec![0u8; 10], vec![2u8; 60]].concat();
        let mut borders = BlockBorders::<L>::init::<SemiGlobal, _>(&gap, q.len(), s.len());
        let q_rows: Vec<[u8; L]> = q.iter().map(|&b| [b; L]).collect();
        let s_cols: Vec<[u8; L]> = s.iter().map(|&b| [b; L]).collect();
        let opt = block_kernel_kind::<SemiGlobal, _, _, true, L>(
            &gap,
            &subst,
            &q_rows,
            &s_cols,
            &mut borders,
            20,
        );
        assert_eq!(opt.retired, (1u32 << L) - 1, "all lanes should retire");
        // Here retirement is lossless: the exact semi-global optimum is
        // the free-begin seed (score 0), seen before any lane retires.
        let exact = score_pass::<SemiGlobal, _, _>(&gap, &subst, &q, &s, gap.open());
        for l in 0..L {
            assert_eq!(from16(opt.best.0[l], 0), exact.score, "lane {l}");
        }
    }

    #[test]
    fn conversion_round_trip() {
        for v in [-3000, -1, 0, 5, 11_999] {
            assert_eq!(from16(to16(v + 1000, 1000), 1000), v + 1000);
        }
        assert_eq!(to16(NEG_INF, 0), SENT16);
        assert_eq!(from16(SENT16, 12345), NEG_INF);
    }

    #[test]
    fn extent_budget_reasonable() {
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let ext = max_block_extent(&gap, &subst);
        // 2×512 tiles must fit comfortably.
        assert!(ext >= 2048, "extent {ext}");
    }
}
