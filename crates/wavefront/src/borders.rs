//! Boundary-stripe storage for tiled wavefront execution (paper Fig. 2:
//! "the values of the rightmost and bottommost border cells of a submatrix
//! need to be kept as long as neighboring submatrices ... have not been
//! computed yet").
//!
//! One slot per tile column holds the horizontal stripe most recently
//! produced in that column (bottom border of the last finished tile);
//! one slot per tile row holds the vertical stripe. The dependency order
//! of the wavefront guarantees a slot has exactly one producer and one
//! consumer alive at any time, so the per-slot mutexes are uncontended —
//! they exist to keep the code `unsafe`-free, costing two lock/unlock
//! pairs per tile (negligible against the `O(tile²)` relaxation work).

use crate::grid::{TileGrid, TileId};
use crate::shard::ShardSeam;
use anyseq_core::kind::AlignKind;
use anyseq_core::score::{Score, NEG_INF};
use anyseq_core::scoring::GapModel;
use parking_lot::Mutex;

/// Horizontal stripe: `H(row, j0−1..=j1)` plus `E(row, j0..=j1)`.
#[derive(Debug, Default, Clone)]
pub struct HStripe {
    /// `H` values (width + 1, including the left corner).
    pub h: Vec<Score>,
    /// `E` values (width; empty for linear gap models).
    pub e: Vec<Score>,
}

/// Vertical stripe: `H(i0..=i1, col)` plus `F(i0..=i1, col)`.
#[derive(Debug, Default, Clone)]
pub struct VStripe {
    /// `H` values (height).
    pub h: Vec<Score>,
    /// `F` values (height; empty for linear gap models).
    pub f: Vec<Score>,
}

/// All live boundary stripes of one in-flight tiled pass.
pub struct BorderStore {
    /// Per tile column: the stripe crossing its top edge frontier.
    pub col: Vec<Mutex<HStripe>>,
    /// Per tile row: the stripe crossing its left edge frontier.
    pub row: Vec<Mutex<VStripe>>,
}

impl BorderStore {
    /// Builds the store with the kind's initialization stripes
    /// (row 0 split across column slots, column 0 across row slots).
    /// `tb` is the Hirschberg top-boundary vertical open (see
    /// [`anyseq_core::pass::init_left_h`]).
    pub fn init<K: AlignKind, G: GapModel>(grid: &TileGrid, gap: &G, tb: Score) -> BorderStore {
        Self::init_slab::<K, G>(grid, gap, tb, 0, None)
    }

    /// Builds the store for a *subject slab*: a grid covering absolute
    /// subject columns `col_offset+1 ..= col_offset+grid.m` of a wider
    /// pair. Row 0 stripes use the kind's init values at the slab's
    /// absolute columns; column 0 stripes come from `seam` — the
    /// frontier exported by the slab to the left — or from the kind's
    /// standard column-0 init when `seam` is `None`. With
    /// `col_offset = 0` and no seam this is exactly [`BorderStore::init`].
    pub fn init_slab<K: AlignKind, G: GapModel>(
        grid: &TileGrid,
        gap: &G,
        tb: Score,
        col_offset: usize,
        seam: Option<&ShardSeam>,
    ) -> BorderStore {
        let col = (0..grid.mt)
            .map(|tj| {
                let (j0, w) = grid.cols(tj as u32);
                let a0 = col_offset + j0; // absolute first column of the tile
                Mutex::new(HStripe {
                    h: (a0 - 1..a0 + w).map(|j| K::h_init(gap, j)).collect(),
                    e: if G::AFFINE {
                        (a0..a0 + w)
                            .map(|j| K::h_init(gap, j) + gap.open())
                            .collect()
                    } else {
                        Vec::new()
                    },
                })
            })
            .collect();
        let row = (0..grid.nt)
            .map(|ti| {
                let (i0, h) = grid.rows(ti as u32);
                Mutex::new(match seam {
                    Some(seam) => VStripe {
                        h: seam.h[i0 - 1..i0 - 1 + h].to_vec(),
                        f: if seam.f.is_empty() {
                            Vec::new()
                        } else {
                            seam.f[i0 - 1..i0 - 1 + h].to_vec()
                        },
                    },
                    None => VStripe {
                        h: (i0..i0 + h)
                            .map(|i| {
                                if K::FREE_BEGIN {
                                    0
                                } else {
                                    tb + (i as Score) * gap.extend()
                                }
                            })
                            .collect(),
                        f: if G::AFFINE {
                            vec![NEG_INF; h]
                        } else {
                            Vec::new()
                        },
                    },
                })
            })
            .collect();
        BorderStore { col, row }
    }

    /// The stripe hand-off: swaps tile `t`'s column and row slots with
    /// the caller's buffers. Called before relaxing, it *takes* the
    /// tile's input stripes (leaving the caller's spare buffers in the
    /// slots, so nothing reallocates); called again after an in-place
    /// kernel, it *publishes* the bottom and right stripes and hands
    /// the spares back.
    pub fn exchange(&self, t: TileId, top: &mut HStripe, left: &mut VStripe) {
        std::mem::swap(top, &mut *self.col[t.tj as usize].lock());
        std::mem::swap(left, &mut *self.row[t.ti as usize].lock());
    }

    /// Exports the frontier at absolute subject column `col` — after a
    /// slab pass each row slot holds the right stripe of its row's last
    /// tile, i.e. `H`/`F` of the slab's final column. Concatenating the
    /// slots top to bottom rebuilds the full-height [`ShardSeam`] the
    /// next slab seeds from.
    pub fn export_seam(&self, grid: &TileGrid, col: usize) -> ShardSeam {
        let mut h = Vec::with_capacity(grid.n);
        let mut f = Vec::new();
        for slot in &self.row {
            let stripe = slot.lock();
            h.extend_from_slice(&stripe.h);
            f.extend_from_slice(&stripe.f);
        }
        ShardSeam { col, h, f }
    }

    /// Resident stripe bytes right now (score payloads only; the slot
    /// vectors and mutexes are O(tiles) and excluded). Observability
    /// reads this to account the wavefront's O(n + m) working set —
    /// the structural reason the tiled pass beats an O(n·m) matrix.
    pub fn bytes(&self) -> usize {
        let score = std::mem::size_of::<Score>();
        let col: usize = self
            .col
            .iter()
            .map(|s| {
                let g = s.lock();
                (g.h.len() + g.e.len()) * score
            })
            .sum();
        let row: usize = self
            .row
            .iter()
            .map(|s| {
                let g = s.lock();
                (g.h.len() + g.f.len()) * score
            })
            .sum();
        col + row
    }

    /// Stripe bytes a store for `grid` retains, without building one:
    /// `H` needs `m + mt` (column slots, one corner each) plus `n`
    /// (row slots); affine gap models add `E` (`m`) and `F` (`n`).
    /// Matches [`BorderStore::bytes`] immediately after `init`.
    pub fn estimated_bytes(grid: &TileGrid, affine: bool) -> usize {
        let h = grid.m + grid.mt + grid.n;
        let ef = if affine { grid.m + grid.n } else { 0 };
        (h + ef) * std::mem::size_of::<Score>()
    }

    /// Assembles the final DP row `H(n, 0..=m)` and `E(n, 1..=m)` from the
    /// column slots (after the pass, each slot holds the bottom stripe of
    /// its column's last tile).
    pub fn assemble_last_rows(&self, grid: &TileGrid) -> (Vec<Score>, Vec<Score>) {
        let mut last_h = Vec::with_capacity(grid.m + 1);
        let mut last_e = Vec::with_capacity(grid.m);
        for (tj, slot) in self.col.iter().enumerate() {
            let stripe = slot.lock();
            if tj == 0 {
                last_h.extend_from_slice(&stripe.h);
            } else {
                last_h.extend_from_slice(&stripe.h[1..]);
            }
            last_e.extend_from_slice(&stripe.e);
        }
        (last_h, last_e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::kind::Global;
    use anyseq_core::scoring::AffineGap;

    #[test]
    fn init_splits_strides_consistently() {
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let grid = TileGrid::new(10, 10, 4); // tiles: 4,4,2
        let store = BorderStore::init::<Global, _>(&grid, &gap, gap.open());
        assert_eq!(store.col.len(), 3);
        assert_eq!(store.row.len(), 3);
        // First column slot: H(0, 0..=4) = 0,-3,-4,-5,-6
        assert_eq!(store.col[0].lock().h, vec![0, -3, -4, -5, -6]);
        // Second: H(0, 4..=8), overlapping the corner at j=4.
        assert_eq!(store.col[1].lock().h, vec![-6, -7, -8, -9, -10]);
        // Last (width 2): H(0, 8..=10)
        assert_eq!(store.col[2].lock().h, vec![-10, -11, -12]);
        // Row slots mirror for column 0.
        assert_eq!(store.row[0].lock().h, vec![-3, -4, -5, -6]);
        assert_eq!(store.row[2].lock().h, vec![-11, -12]);
        // Assembling immediately returns the init row.
        let (h, e) = store.assemble_last_rows(&grid);
        assert_eq!(h.len(), 11);
        assert_eq!(e.len(), 10);
        assert_eq!(h[0], 0);
        assert_eq!(h[10], -12);
    }

    #[test]
    fn byte_accounting_matches_estimate() {
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let grid = TileGrid::new(10, 10, 4);
        let store = BorderStore::init::<Global, _>(&grid, &gap, gap.open());
        assert_eq!(
            store.bytes(),
            BorderStore::estimated_bytes(&grid, true),
            "fresh affine store"
        );
        // Linear stores carry no E/F stripes.
        use anyseq_core::scoring::LinearGap;
        let lin = LinearGap { gap: -1 };
        let store = BorderStore::init::<Global, _>(&grid, &lin, lin.gap);
        assert_eq!(store.bytes(), BorderStore::estimated_bytes(&grid, false));
        assert!(BorderStore::estimated_bytes(&grid, true) > store.bytes());
    }
}
