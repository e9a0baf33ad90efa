//! Tile-grid geometry over an `n × m` DP matrix.

/// Identifier of one tile (row-major tile coordinates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TileId {
    /// Tile row.
    pub ti: u32,
    /// Tile column.
    pub tj: u32,
}

/// Geometry of a tiling: `nt × mt` tiles of size `tile_h × tile_w`
/// (edge tiles are smaller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    /// DP rows (query length).
    pub n: usize,
    /// DP columns (subject length).
    pub m: usize,
    /// Tile height.
    pub tile_h: usize,
    /// Tile width.
    pub tile_w: usize,
    /// Number of tile rows.
    pub nt: usize,
    /// Number of tile columns.
    pub mt: usize,
}

impl TileGrid {
    /// Creates a grid with square-ish tiles of the given size.
    pub fn new(n: usize, m: usize, tile: usize) -> TileGrid {
        assert!(n > 0 && m > 0, "grid requires non-empty matrix");
        assert!(tile > 0, "tile size must be positive");
        TileGrid {
            n,
            m,
            tile_h: tile,
            tile_w: tile,
            nt: n.div_ceil(tile),
            mt: m.div_ceil(tile),
        }
    }

    /// Total number of tiles.
    #[inline]
    pub fn total(&self) -> usize {
        self.nt * self.mt
    }

    /// 1-based first row and height of tile row `ti`.
    #[inline]
    pub fn rows(&self, ti: u32) -> (usize, usize) {
        let i0 = (ti as usize) * self.tile_h + 1;
        let h = self.tile_h.min(self.n + 1 - i0);
        (i0, h)
    }

    /// 1-based first column and width of tile column `tj`.
    #[inline]
    pub fn cols(&self, tj: u32) -> (usize, usize) {
        let j0 = (tj as usize) * self.tile_w + 1;
        let w = self.tile_w.min(self.m + 1 - j0);
        (j0, w)
    }

    /// Flat index of a tile.
    #[inline]
    pub fn index(&self, t: TileId) -> usize {
        t.ti as usize * self.mt + t.tj as usize
    }

    /// Number of unmet dependencies of a tile at the start (its top and
    /// left neighbours; the diagonal is transitively implied).
    #[inline]
    pub fn initial_deps(&self, t: TileId) -> u8 {
        (t.ti > 0) as u8 + (t.tj > 0) as u8
    }

    /// Tiles on anti-diagonal `d` (`d = ti + tj`), in increasing `ti`.
    pub fn diagonal(&self, d: usize) -> impl Iterator<Item = TileId> + '_ {
        let ti_min = d.saturating_sub(self.mt - 1);
        let ti_max = d.min(self.nt - 1);
        (ti_min..=ti_max).map(move |ti| TileId {
            ti: ti as u32,
            tj: (d - ti) as u32,
        })
    }

    /// Number of anti-diagonals.
    #[inline]
    pub fn diagonals(&self) -> usize {
        self.nt + self.mt - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_covers_matrix_exactly() {
        for (n, m, t) in [(100, 100, 32), (1, 1, 8), (33, 65, 32), (512, 7, 64)] {
            let g = TileGrid::new(n, m, t);
            let mut rows = 0;
            for ti in 0..g.nt {
                let (i0, h) = g.rows(ti as u32);
                assert_eq!(i0, rows + 1);
                rows += h;
                assert!(h >= 1 && h <= t);
            }
            assert_eq!(rows, n);
            let mut cols = 0;
            for tj in 0..g.mt {
                let (j0, w) = g.cols(tj as u32);
                assert_eq!(j0, cols + 1);
                cols += w;
            }
            assert_eq!(cols, m);
        }
    }

    #[test]
    fn diagonals_enumerate_every_tile_once() {
        let g = TileGrid::new(100, 70, 16);
        let mut seen = std::collections::HashSet::new();
        for d in 0..g.diagonals() {
            for t in g.diagonal(d) {
                assert_eq!(t.ti as usize + t.tj as usize, d);
                assert!(seen.insert(g.index(t)));
            }
        }
        assert_eq!(seen.len(), g.total());
    }

    #[test]
    fn deps_are_zero_only_for_origin() {
        let g = TileGrid::new(64, 64, 16);
        assert_eq!(g.initial_deps(TileId { ti: 0, tj: 0 }), 0);
        assert_eq!(g.initial_deps(TileId { ti: 0, tj: 3 }), 1);
        assert_eq!(g.initial_deps(TileId { ti: 2, tj: 0 }), 1);
        assert_eq!(g.initial_deps(TileId { ti: 2, tj: 2 }), 2);
    }
}
