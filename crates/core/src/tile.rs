//! The tile kernel: relaxes a rectangular DP submatrix given its boundary
//! stripes — the computational primitive shared by *every* execution
//! backend (scalar pass, wavefront tiles, SIMD blocks, GPU-sim stripes,
//! FPGA-sim PE array all reproduce this contract).
//!
//! # Border protocol (paper Fig. 2)
//!
//! A tile covers cells `(i, j)` with `i0 ≤ i ≤ i1`, `j0 ≤ j ≤ j1`
//! (1-based), height `h = i1−i0+1` and width `w = j1−j0+1`. It consumes:
//!
//! * `top_h[k] = H(i0−1, j0−1+k)` for `k = 0..=w` — note the *corner*
//!   `H(i0−1, j0−1)` rides along at index 0, so a diagonal-neighbour
//!   handoff is never needed,
//! * `top_e[c] = E(i0−1, j0+c)` for `c = 0..w` (affine models only),
//! * `left_h[r] = H(i0+r, j0−1)` and `left_f[r] = F(i0+r, j0−1)` for
//!   `r = 0..h`,
//!
//! and produces the symmetric bottom/right stripes for its neighbours.
//! Only these `O(h + w)` stripes are ever stored (paper Fig. 1, right) —
//! the interior cells live in one rolling row, the "intra-tile cyclic
//! buffer" of §IV-A.
//!
//! `bot_h[0]` (the next row's corner) equals `left_h[h−1]`; the in-place
//! rolling-row update below produces it without extra work.

use crate::kind::{AlignKind, OptRegion};
use crate::relax::{relax, BestCell, Prev};
use crate::score::Score;
use crate::scoring::{GapModel, SubstScore};

/// Per-cell observer, compiled out when inactive (paper: swap the `Scores`
/// accessor's `update` member "for a different (more efficient) one at
/// compile time").
pub trait CellSink {
    /// Whether `record` calls should be materialized; when `false` the
    /// predecessor computation in [`relax`] is also eliminated.
    const ACTIVE: bool;

    /// Observes the relaxed cell at tile-local coordinates
    /// (`r`, `c` both 0-based), with its predecessor byte.
    fn record(&mut self, r: usize, c: usize, pred: u8);
}

/// The do-nothing sink used by all score-only engines.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoSink;

impl CellSink for NoSink {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn record(&mut self, _r: usize, _c: usize, _pred: u8) {}
}

/// A sink recording predecessor bytes into a dense row-major matrix
/// (used by the full-matrix traceback engine).
pub struct PredSink {
    /// Row-major `h × w` predecessor bytes.
    pub data: Vec<u8>,
    width: usize,
}

impl PredSink {
    /// Allocates storage for an `h × w` tile.
    pub fn new(h: usize, w: usize) -> PredSink {
        PredSink {
            data: vec![0u8; h * w],
            width: w,
        }
    }

    /// Re-shapes the storage for an `h × w` tile, reusing its
    /// allocation (stale bytes stay until [`relax_tile`] overwrites
    /// every cell).
    pub fn reset(&mut self, h: usize, w: usize) {
        self.data.resize(h * w, 0);
        self.width = w;
    }

    /// The predecessor byte at tile-local `(r, c)`.
    #[inline(always)]
    pub fn at(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.width + c]
    }
}

impl CellSink for PredSink {
    const ACTIVE: bool = true;

    #[inline(always)]
    fn record(&mut self, r: usize, c: usize, pred: u8) {
        self.data[r * self.width + c] = pred;
    }
}

/// Input boundary stripes of a tile (see module docs for the layout).
#[derive(Debug, Clone, Copy)]
pub struct TileIn<'a> {
    /// `H(i0−1, j0−1..=j1)`, length `w + 1`.
    pub top_h: &'a [Score],
    /// `E(i0−1, j0..=j1)`, length `w`; may be empty for linear gap models.
    pub top_e: &'a [Score],
    /// `H(i0..=i1, j0−1)`, length `h`.
    pub left_h: &'a [Score],
    /// `F(i0..=i1, j0−1)`, length `h`; may be empty for linear gap models.
    pub left_f: &'a [Score],
}

/// Output boundary stripes of a tile, plus the tracked optimum.
#[derive(Debug, Clone, Default)]
pub struct TileOut {
    /// `H(i1, j0−1..=j1)`, length `w + 1`.
    pub bot_h: Vec<Score>,
    /// `E(i1, j0..=j1)`, length `w` (empty for linear gap models).
    pub bot_e: Vec<Score>,
    /// `H(i0..=i1, j1)`, length `h`.
    pub right_h: Vec<Score>,
    /// `F(i0..=i1, j1)`, length `h` (empty for linear gap models).
    pub right_f: Vec<Score>,
    /// Best cell seen (only meaningful for non-global kinds).
    pub best: BestCell,
}

impl TileOut {
    /// A fresh, empty output buffer (the kernel resizes as needed).
    pub fn new() -> TileOut {
        TileOut {
            bot_h: Vec::new(),
            bot_e: Vec::new(),
            right_h: Vec::new(),
            right_f: Vec::new(),
            best: BestCell::empty(),
        }
    }
}

/// Relaxes one tile.
///
/// * `q_tile` / `s_tile`: base codes of the rows/columns this tile covers.
/// * `origin = (i0, j0)`: 1-based coordinates of the tile's first cell.
/// * `full_dims = (n, m)`: dimensions of the whole DP matrix — used only to
///   detect whether this tile touches the last row/column for semi-global
///   optimum tracking.
///
/// The kind `K`, gap model `G`, substitution `S` and sink are all
/// compile-time parameters: each combination monomorphizes into a
/// dedicated loop with dead code paths removed — the Rust rendition of the
/// paper's partially-evaluated algorithm variants.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
pub fn relax_tile<K, G, S, Sink>(
    gap: &G,
    subst: &S,
    q_tile: &[u8],
    s_tile: &[u8],
    origin: (usize, usize),
    full_dims: (usize, usize),
    input: TileIn<'_>,
    out: &mut TileOut,
    sink: &mut Sink,
) where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
    Sink: CellSink,
{
    let h = q_tile.len();
    let w = s_tile.len();
    assert!(h > 0 && w > 0, "tiles must be non-empty ({h}×{w})");
    assert_eq!(input.top_h.len(), w + 1, "top_h must cover w+1 columns");
    assert_eq!(input.left_h.len(), h, "left_h must cover h rows");
    if G::AFFINE {
        assert_eq!(input.top_e.len(), w, "top_e must cover w columns");
        assert_eq!(input.left_f.len(), h, "left_f must cover h rows");
    }
    let (i0, j0) = origin;
    let (n, m) = full_dims;

    // Rolling row buffers: `hrow[k]` holds H of the frontier — positions
    // left of the cursor are from the current row, positions right of it
    // from the previous row (the paper's cyclic buffer, Fig. 1 right).
    out.bot_h.clear();
    out.bot_h.extend_from_slice(input.top_h);
    out.bot_e.clear();
    if G::AFFINE {
        out.bot_e.extend_from_slice(input.top_e);
    }
    out.right_h.clear();
    out.right_h.resize(h, 0);
    out.right_f.clear();
    if G::AFFINE {
        out.right_f.resize(h, 0);
    }
    out.best = BestCell::empty();

    let touches_bottom = i0 + h - 1 == n;
    let touches_right = j0 + w - 1 == m;
    let track_anywhere = matches!(K::OPT, OptRegion::Anywhere);
    let track_border = matches!(K::OPT, OptRegion::Border);

    let hrow = &mut out.bot_h[..];
    let erow = &mut out.bot_e[..];

    for r in 0..h {
        let qc = q_tile[r];
        let mut diag = hrow[0];
        hrow[0] = input.left_h[r];
        let mut f = if G::AFFINE {
            input.left_f[r]
        } else {
            crate::score::NEG_INF // never read by the linear specialization
        };
        let mut left = hrow[0];
        for c in 0..w {
            let up_h = hrow[c + 1];
            let up_e = if G::AFFINE { erow[c] } else { 0 };
            let next = relax::<K, G, S, false>(
                gap,
                subst,
                Prev {
                    diag_h: diag,
                    up_h,
                    up_e,
                    left_h: left,
                    left_f: f,
                },
                qc,
                s_tile[c],
            );
            // When the sink is active we need the predecessor byte; rerun
            // relax with WITH_PRED=true. Monomorphization keeps exactly one
            // of the two calls per instantiation.
            let next = if Sink::ACTIVE {
                relax::<K, G, S, true>(
                    gap,
                    subst,
                    Prev {
                        diag_h: diag,
                        up_h,
                        up_e,
                        left_h: left,
                        left_f: f,
                    },
                    qc,
                    s_tile[c],
                )
            } else {
                next
            };
            if Sink::ACTIVE {
                sink.record(r, c, next.pred);
            }
            diag = up_h;
            left = next.h;
            hrow[c + 1] = next.h;
            if G::AFFINE {
                erow[c] = next.e;
            }
            f = next.f;
            if track_anywhere {
                out.best.update(next.h, i0 + r, j0 + c);
            } else if track_border {
                let on_last_row = touches_bottom && r == h - 1;
                let on_last_col = touches_right && c == w - 1;
                if on_last_row || on_last_col {
                    out.best.update(next.h, i0 + r, j0 + c);
                }
            }
        }
        out.right_h[r] = hrow[w];
        if G::AFFINE {
            out.right_f[r] = f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{Global, Local};
    use crate::score::NEG_INF;
    use crate::scoring::{simple, AffineGap, LinearGap};

    /// Relax a 2×2 global linear tile by hand and compare.
    #[test]
    fn two_by_two_global_linear_matches_hand_computation() {
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        // q = AC, s = AG; init borders for a matrix starting at (1,1):
        // H(0,·) = 0,-1,-2 ; H(·,0) = -1,-2
        let top_h = [0, -1, -2];
        let left_h = [-1, -2];
        let mut out = TileOut::new();
        relax_tile::<Global, _, _, _>(
            &gap,
            &subst,
            &[0u8, 1], // AC
            &[0u8, 2], // AG
            (1, 1),
            (2, 2),
            TileIn {
                top_h: &top_h,
                top_e: &[],
                left_h: &left_h,
                left_f: &[],
            },
            &mut out,
            &mut NoSink,
        );
        // Hand DP: H(1,1)=2 (A=A), H(1,2)=max(-1-1, 2-1, -2-1)=1,
        // H(2,1)=max(-1-1, -2-1, 2-1)=1, H(2,2)=max(2-1, 1-1, 1-1)=1.
        assert_eq!(out.bot_h, vec![-2, 1, 1]);
        assert_eq!(out.right_h, vec![1, 1]);
    }

    #[test]
    fn corner_handoff_bot_h0_equals_last_left_h() {
        let gap = LinearGap { gap: -2 };
        let subst = simple(1, -1);
        let top_h = [0, -2, -4, -6];
        let left_h = [-2, -4, -6];
        let mut out = TileOut::new();
        relax_tile::<Global, _, _, _>(
            &gap,
            &subst,
            &[0, 1, 2],
            &[3, 2, 1],
            (1, 1),
            (3, 3),
            TileIn {
                top_h: &top_h,
                top_e: &[],
                left_h: &left_h,
                left_f: &[],
            },
            &mut out,
            &mut NoSink,
        );
        assert_eq!(out.bot_h[0], left_h[2]);
    }

    #[test]
    fn split_tiles_agree_with_single_tile() {
        // Computing one 4×4 tile must equal computing four 2×2 tiles
        // chained through the border protocol.
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let q = [0u8, 1, 2, 3];
        let s = [3u8, 1, 0, 2];
        let n = 4;
        let m = 4;

        // Whole-matrix reference tile.
        let top_h: Vec<Score> = (0..=m).map(|j| Global::h_init(&gap, j)).collect();
        let top_e: Vec<Score> = (1..=m)
            .map(|j| Global::h_init(&gap, j) + gap.open)
            .collect();
        let left_h: Vec<Score> = (1..=n).map(|i| Global::h_init(&gap, i)).collect();
        let left_f: Vec<Score> = vec![NEG_INF; n];
        let mut whole = TileOut::new();
        relax_tile::<Global, _, _, _>(
            &gap,
            &subst,
            &q,
            &s,
            (1, 1),
            (n, m),
            TileIn {
                top_h: &top_h,
                top_e: &top_e,
                left_h: &left_h,
                left_f: &left_f,
            },
            &mut whole,
            &mut NoSink,
        );

        // 2×2 tiling: tiles (0,0), (0,1), (1,0), (1,1).
        let mut outs = [
            vec![TileOut::new(), TileOut::new()],
            vec![TileOut::new(), TileOut::new()],
        ];
        for ti in 0..2 {
            for tj in 0..2 {
                let i0 = ti * 2 + 1;
                let j0 = tj * 2 + 1;
                let tile_top_h: Vec<Score> = if ti == 0 {
                    (j0 - 1..=j0 + 1).map(|j| Global::h_init(&gap, j)).collect()
                } else {
                    outs[ti - 1][tj].bot_h.clone()
                };
                let tile_top_e: Vec<Score> = if ti == 0 {
                    (j0..=j0 + 1)
                        .map(|j| Global::h_init(&gap, j) + gap.open)
                        .collect()
                } else {
                    outs[ti - 1][tj].bot_e.clone()
                };
                let tile_left_h: Vec<Score> = if tj == 0 {
                    (i0..=i0 + 1).map(|i| Global::h_init(&gap, i)).collect()
                } else {
                    outs[ti][tj - 1].right_h.clone()
                };
                let tile_left_f: Vec<Score> = if tj == 0 {
                    vec![NEG_INF; 2]
                } else {
                    outs[ti][tj - 1].right_f.clone()
                };
                let mut out = TileOut::new();
                relax_tile::<Global, _, _, _>(
                    &gap,
                    &subst,
                    &q[ti * 2..ti * 2 + 2],
                    &s[tj * 2..tj * 2 + 2],
                    (i0, j0),
                    (n, m),
                    TileIn {
                        top_h: &tile_top_h,
                        top_e: &tile_top_e,
                        left_h: &tile_left_h,
                        left_f: &tile_left_f,
                    },
                    &mut out,
                    &mut NoSink,
                );
                outs[ti][tj] = out;
            }
        }
        // Final H(n, m) must agree.
        assert_eq!(
            whole.bot_h[m],
            outs[1][1].bot_h.last().copied().unwrap(),
            "tiled and whole-matrix H(n,m) disagree"
        );
        // Bottom stripes of the bottom tiles must match the whole run.
        assert_eq!(&whole.bot_h[2..], &outs[1][1].bot_h[..]);
        assert_eq!(
            &whole.bot_h[..3],
            &{
                let mut v = outs[1][0].bot_h.clone();
                v.truncate(3);
                v
            }[..]
        );
    }

    #[test]
    fn local_best_tracked() {
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let top_h = [0, 0, 0];
        let left_h = [0, 0];
        let mut out = TileOut::new();
        relax_tile::<Local, _, _, _>(
            &gap,
            &subst,
            &[0, 0],
            &[0, 0],
            (1, 1),
            (2, 2),
            TileIn {
                top_h: &top_h,
                top_e: &[],
                left_h: &left_h,
                left_f: &[],
            },
            &mut out,
            &mut NoSink,
        );
        // all-A vs all-A: best is the 2-match diagonal at (2,2).
        assert_eq!(out.best.score, 4);
        assert_eq!((out.best.i, out.best.j), (2, 2));
    }

    #[test]
    fn pred_sink_records_every_cell() {
        let gap = LinearGap { gap: -1 };
        let subst = simple(2, -1);
        let top_h = [0, -1, -2];
        let left_h = [-1, -2];
        let mut out = TileOut::new();
        let mut sink = PredSink::new(2, 2);
        relax_tile::<Global, _, _, _>(
            &gap,
            &subst,
            &[0, 1],
            &[0, 1],
            (1, 1),
            (2, 2),
            TileIn {
                top_h: &top_h,
                top_e: &[],
                left_h: &left_h,
                left_f: &[],
            },
            &mut out,
            &mut sink,
        );
        use crate::relax::pred;
        // Perfect match diagonal: every cell's direction should be DIAG.
        assert_eq!(sink.at(0, 0) & pred::DIR_MASK, pred::DIAG);
        assert_eq!(sink.at(1, 1) & pred::DIR_MASK, pred::DIAG);
    }
}
