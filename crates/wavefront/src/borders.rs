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
//!
//! In keep mode (chosen at construction, [`BorderStore::keeping`]) the
//! store also copies every stripe a tile publishes on a kept tile
//! boundary into that boundary's line — a row line per kept tile row,
//! a column line per kept tile column — which the traceback walks back
//! through (`anyseq_core::fullmatrix::walk`). That costs
//! `O(n·m / spacing)` bytes instead of `O(n + m)`; the caller chooses
//! the spacing to bound it.

use crate::grid::{TileGrid, TileId};
use crate::shard::ShardSeam;
use anyseq_core::kind::AlignKind;
use anyseq_core::pass::{ColLine, RowLine};
use anyseq_core::score::{Score, NEG_INF};
use anyseq_core::scoring::GapModel;
use anyseq_core::tile::TileIn;
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

/// A stripe slot, and whether a tile has taken its stripe and not yet
/// published one back (the first of the tile's two exchanges).
#[derive(Default)]
struct Slot<T> {
    stripe: T,
    out: bool,
}

/// All live boundary stripes of one in-flight tiled pass.
pub struct BorderStore {
    grid: TileGrid,
    /// Per tile column: the stripe crossing its top edge frontier.
    col: Vec<Mutex<Slot<HStripe>>>,
    /// Per tile row: the stripe crossing its left edge frontier.
    row: Vec<Mutex<Slot<VStripe>>>,
    /// Keep mode keeps the boundary after every `every`-th tile row
    /// and column (`usize::MAX`, none, otherwise).
    every: usize,
    /// Keep mode: per kept tile row boundary, its joined bottom stripes
    /// (`width + 1` `H`, `width` `E`); per kept tile column boundary,
    /// its joined right stripes (`n` `H`, `n` `F`). Empty otherwise.
    kept_rows: Vec<Mutex<HStripe>>,
    kept_cols: Vec<Mutex<VStripe>>,
}

/// Copies `src` into `dst` from index `at` (nothing for an empty
/// `src`: a linear model's `E`/`F` stripes).
fn copy_at(dst: &mut [Score], at: usize, src: &[Score]) {
    if !src.is_empty() {
        dst[at..at + src.len()].copy_from_slice(src);
    }
}

/// `src[at..at + len]`, or nothing for an empty `src` (a linear
/// model's `E`/`F` stripes).
fn part(src: &[Score], at: usize, len: usize) -> Vec<Score> {
    if src.is_empty() {
        Vec::new()
    } else {
        src[at..at + len].to_vec()
    }
}

impl<T> From<T> for Slot<T> {
    fn from(stripe: T) -> Slot<T> {
        Slot { stripe, out: false }
    }
}

impl BorderStore {
    /// Builds the store for a whole pair from `seeds` — the pass's
    /// boundary stripes, or the kind's own initialization when `None`
    /// (row 0 split across column slots, column 0 across row slots).
    pub fn init<K: AlignKind, G: GapModel>(
        grid: &TileGrid,
        gap: &G,
        seeds: Option<TileIn<'_>>,
    ) -> BorderStore {
        Self::init_slab::<K, G>(grid, gap, seeds, 0, None)
    }

    /// Builds the store for a *subject slab*: a grid covering absolute
    /// subject columns `col_offset+1 ..= col_offset+grid.m` of a wider
    /// pair. Row 0 stripes are the slab's columns of the pair's top
    /// seeds; column 0 stripes come from `seam` — the frontier exported
    /// by the slab to the left — or, for the first slab, from the
    /// pair's left seeds. Without seeds, both are the kind's own
    /// initialization, generated slab by slab. With `col_offset = 0`
    /// and no seam this is exactly [`BorderStore::init`].
    pub fn init_slab<K: AlignKind, G: GapModel>(
        grid: &TileGrid,
        gap: &G,
        seeds: Option<TileIn<'_>>,
        col_offset: usize,
        seam: Option<&ShardSeam>,
    ) -> BorderStore {
        let col = (0..grid.mt)
            .map(|tj| {
                let (j0, w) = grid.cols(tj as u32);
                let a0 = col_offset + j0; // absolute first column of the tile
                Mutex::new(Slot::from(match seeds {
                    Some(seeds) => HStripe {
                        h: seeds.top_h[a0 - 1..a0 + w].to_vec(),
                        e: part(seeds.top_e, a0 - 1, w),
                    },
                    None => HStripe {
                        h: (a0 - 1..a0 + w).map(|j| K::h_init(gap, j)).collect(),
                        e: if G::AFFINE {
                            (a0..a0 + w)
                                .map(|j| K::h_init(gap, j) + gap.open())
                                .collect()
                        } else {
                            Vec::new()
                        },
                    },
                }))
            })
            .collect();
        let row = (0..grid.nt)
            .map(|ti| {
                let (i0, h) = grid.rows(ti as u32);
                Mutex::new(Slot::from(match (seam, seeds) {
                    (Some(seam), _) => VStripe {
                        h: seam.h[i0 - 1..i0 - 1 + h].to_vec(),
                        f: part(&seam.f, i0 - 1, h),
                    },
                    (None, Some(seeds)) => VStripe {
                        h: seeds.left_h[i0 - 1..i0 - 1 + h].to_vec(),
                        f: part(seeds.left_f, i0 - 1, h),
                    },
                    (None, None) => VStripe {
                        h: (i0..i0 + h).map(|i| K::h_init(gap, i)).collect(),
                        f: if G::AFFINE {
                            vec![NEG_INF; h]
                        } else {
                            Vec::new()
                        },
                    },
                }))
            })
            .collect();
        BorderStore {
            grid: *grid,
            col,
            row,
            every: usize::MAX,
            kept_rows: Vec::new(),
            kept_cols: Vec::new(),
        }
    }

    /// The same store in keep mode: every stripe a tile publishes on a
    /// kept boundary — after every `every`-th tile row and column, the
    /// last tile row excepted — is also copied into that boundary's
    /// line, for [`BorderStore::take_lines`].
    pub fn keeping(mut self, affine: bool, every: usize) -> BorderStore {
        let (g, ef) = (self.grid, affine as usize);
        let line = |len: usize, ef_len: usize| (vec![0; len], vec![0; ef_len * ef]);
        self.every = every;
        self.kept_rows = (0..(g.nt - 1) / every)
            .map(|_| {
                let (h, e) = line(g.m + 1, g.m);
                Mutex::new(HStripe { h, e })
            })
            .collect();
        self.kept_cols = (0..g.mt / every)
            .map(|_| {
                let (h, f) = line(g.n, g.n);
                Mutex::new(VStripe { h, f })
            })
            .collect();
        self
    }

    /// The line tile row or column `k` publishes into, if it is kept.
    fn kept<'a, T>(&self, lines: &'a [Mutex<T>], k: usize) -> Option<&'a Mutex<T>> {
        if (k + 1).is_multiple_of(self.every) {
            lines.get(k / self.every)
        } else {
            None
        }
    }

    /// The stripe hand-off: swaps tile `t`'s column and row slots with
    /// the caller's buffers. Called before relaxing, it *takes* the
    /// tile's input stripes (leaving the caller's spare buffers in the
    /// slots, so nothing reallocates); called again after an in-place
    /// kernel, it *publishes* the bottom and right stripes and hands
    /// the spares back — and, in keep mode, copies them into the lines.
    pub fn exchange(&self, t: TileId, top: &mut HStripe, left: &mut VStripe) {
        let (ti, tj) = (t.ti as usize, t.tj as usize);
        let mut col = self.col[tj].lock();
        std::mem::swap(top, &mut col.stripe);
        col.out = !col.out;
        if let Some(line) = self.kept(&self.kept_rows, ti).filter(|_| !col.out) {
            let j0 = self.grid.cols(t.tj).0;
            let HStripe { h, e } = &mut *line.lock();
            copy_at(h, j0 - 1, &col.stripe.h);
            copy_at(e, j0 - 1, &col.stripe.e);
        }
        drop(col);
        let mut row = self.row[ti].lock();
        std::mem::swap(left, &mut row.stripe);
        row.out = !row.out;
        if let Some(line) = self.kept(&self.kept_cols, tj).filter(|_| !row.out) {
            let i0 = self.grid.rows(t.ti).0;
            let VStripe { h, f } = &mut *line.lock();
            copy_at(h, i0 - 1, &row.stripe.h);
            copy_at(f, i0 - 1, &row.stripe.f);
        }
    }

    /// Moves the kept lines out of a keep-mode store after its pass:
    /// the bottom lines of the kept tile rows and the right lines of the
    /// kept tile columns, at absolute subject columns
    /// (`col_offset` as in [`BorderStore::init_slab`]). A row line
    /// spans the store's columns `col_offset..=col_offset + m`. Empty
    /// unless the store was built [`BorderStore::keeping`].
    pub fn take_lines(&self, col_offset: usize) -> (Vec<RowLine>, Vec<ColLine>) {
        let g = &self.grid;
        let last = |k: usize| ((k + 1) * self.every - 1) as u32;
        let rows = self.kept_rows.iter().enumerate().map(|(k, line)| {
            let (i0, h) = g.rows(last(k));
            let HStripe { h: lh, e } = std::mem::take(&mut *line.lock());
            RowLine {
                i: i0 + h - 1,
                h: lh,
                e,
            }
        });
        let cols = self.kept_cols.iter().enumerate().map(|(k, line)| {
            let (j0, w) = g.cols(last(k));
            let VStripe { h, f } = std::mem::take(&mut *line.lock());
            ColLine {
                j: col_offset + j0 + w - 1,
                h,
                f,
            }
        });
        (rows.collect(), cols.collect())
    }

    /// Exports the frontier at absolute subject column `col` — after a
    /// slab pass each row slot holds the right stripe of its row's last
    /// tile, i.e. `H`/`F` of the slab's final column. Concatenating the
    /// slots top to bottom rebuilds the full-height [`ShardSeam`] the
    /// next slab seeds from.
    pub fn export_seam(&self, col: usize) -> ShardSeam {
        let mut h = Vec::with_capacity(self.grid.n);
        let mut f = Vec::new();
        for slot in &self.row {
            let stripe = &slot.lock().stripe;
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
                let g = &s.lock().stripe;
                (g.h.len() + g.e.len()) * score
            })
            .sum();
        let row: usize = self
            .row
            .iter()
            .map(|s| {
                let g = &s.lock().stripe;
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
    pub fn assemble_last_rows(&self) -> (Vec<Score>, Vec<Score>) {
        let mut last_h = Vec::with_capacity(self.grid.m + 1);
        let mut last_e = Vec::with_capacity(self.grid.m);
        for (tj, slot) in self.col.iter().enumerate() {
            let stripe = &slot.lock().stripe;
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
        let store = BorderStore::init::<Global, _>(&grid, &gap, None);
        assert_eq!(store.col.len(), 3);
        assert_eq!(store.row.len(), 3);
        // First column slot: H(0, 0..=4) = 0,-3,-4,-5,-6
        assert_eq!(store.col[0].lock().stripe.h, vec![0, -3, -4, -5, -6]);
        // Second: H(0, 4..=8), overlapping the corner at j=4.
        assert_eq!(store.col[1].lock().stripe.h, vec![-6, -7, -8, -9, -10]);
        // Last (width 2): H(0, 8..=10)
        assert_eq!(store.col[2].lock().stripe.h, vec![-10, -11, -12]);
        // Row slots mirror for column 0.
        assert_eq!(store.row[0].lock().stripe.h, vec![-3, -4, -5, -6]);
        assert_eq!(store.row[2].lock().stripe.h, vec![-11, -12]);
        // Assembling immediately returns the init row.
        let (h, e) = store.assemble_last_rows();
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
        let store = BorderStore::init::<Global, _>(&grid, &gap, None);
        assert_eq!(
            store.bytes(),
            BorderStore::estimated_bytes(&grid, true),
            "fresh affine store"
        );
        // Linear stores carry no E/F stripes.
        use anyseq_core::scoring::LinearGap;
        let lin = LinearGap { gap: -1 };
        let store = BorderStore::init::<Global, _>(&grid, &lin, None);
        assert_eq!(store.bytes(), BorderStore::estimated_bytes(&grid, false));
        assert!(BorderStore::estimated_bytes(&grid, true) > store.bytes());
    }
}
