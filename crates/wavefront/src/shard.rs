//! Cross-shard border stitching — the paper's Fig. 2 border stripes
//! promoted from an intra-pass detail to a first-class contract between
//! *subject shards* of one alignment pair.
//!
//! A shard is a contiguous slab of subject columns. The only state one
//! slab needs from its left neighbour is the DP frontier at the cut
//! column — `H(1..=n, col)` plus `F(1..=n, col)` for affine models (`E`
//! propagates *down* rows, never *right* across a column cut, so it
//! never crosses a vertical seam). That frontier is a [`ShardSeam`]:
//! small (`O(n)`) and sufficient to restart the pass on the other side
//! of the cut — which bounds the resident border + grid working set of
//! a chromosome-scale pair to one slab.

use crate::borders::BorderStore;
use crate::grid::TileGrid;
use anyseq_core::relax::BestCell;
use anyseq_core::score::Score;

/// The complete DP frontier at one absolute subject column: everything
/// a pass over the columns to its right needs from the columns to its
/// left.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSeam {
    /// Absolute subject column the frontier sits on (1-based; column
    /// `col` is the last column the producing shard relaxed).
    pub col: usize,
    /// `H(1..=n, col)` — one value per query row.
    pub h: Vec<Score>,
    /// `F(1..=n, col)` — one value per query row; empty for linear gap
    /// models (the linear kernel derives vertical moves from `H`).
    pub f: Vec<Score>,
}

/// Cuts an `n × m` DP matrix into contiguous subject-column slabs of at
/// most `shard_cells` cells each (at least one column per slab). Returns
/// half-open `(c0, c1]`-style column ranges `(c0, c1)` with `c0` the
/// number of columns already consumed — slab `k` relaxes absolute
/// columns `c0+1..=c1`.
pub fn plan_columns(n: usize, m: usize, shard_cells: u64) -> Vec<(usize, usize)> {
    if n == 0 || m == 0 {
        return vec![(0, m)];
    }
    let width = ((shard_cells / n as u64).max(1) as usize).min(m);
    let mut plan = Vec::with_capacity(m.div_ceil(width));
    let mut c0 = 0;
    while c0 < m {
        let c1 = (c0 + width).min(m);
        plan.push((c0, c1));
        c0 = c1;
    }
    plan
}

/// Result of one slab pass: the outgoing frontier, the slab-local
/// optimum and the slab's border stripes, from which its share of the
/// final DP row is assembled only on request.
pub struct SlabOutput {
    /// Frontier at the slab's last column — input for the next slab.
    /// Its last entry is the slab's corner `H(n, c1)`.
    pub seam: ShardSeam,
    /// Best cell seen inside the slab (absolute coordinates).
    pub best: BestCell,
    pub(crate) grid: TileGrid,
    pub(crate) borders: BorderStore,
}

impl SlabOutput {
    /// `H(n, c0..=c1)` — width + 1 values including the left corner
    /// (concatenate, dropping the corner on every slab but the first,
    /// to rebuild the full last row) — and `E(n, c0+1..=c1)`, width
    /// values, empty for linear models.
    pub fn last_rows(&self) -> (Vec<Score>, Vec<Score>) {
        self.borders.assemble_last_rows(&self.grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{tiled_score_pass, ParallelCfg, ScalarTiles, TiledPass};
    use anyseq_core::kind::{AlignKind, FreeEnd, Global, Local, SemiGlobal};
    use anyseq_core::pass::score_pass;
    use anyseq_core::scheme::Scheme;
    use anyseq_core::scoring::{simple, AffineGap, GapModel, Scoring};
    use anyseq_seq::genome::GenomeSim;

    #[test]
    fn plan_covers_all_columns_without_overlap() {
        for (n, m, cells) in [(100, 1000, 20_000u64), (7, 13, 1), (5, 5, 1_000_000)] {
            let plan = plan_columns(n, m, cells);
            let mut next = 0;
            for &(c0, c1) in &plan {
                assert_eq!(c0, next);
                assert!(c1 > c0);
                next = c1;
            }
            assert_eq!(next, m);
        }
        assert_eq!(plan_columns(100, 1000, 20_000).len(), 5);
        assert_eq!(plan_columns(5, 5, 1_000_000).len(), 1);
    }

    #[test]
    fn sharded_pass_matches_unsharded_all_kinds() {
        let mut sim = GenomeSim::new(11);
        let q = sim.generate(1100);
        let s = sim.mutate(&q, 0.08);
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let mut cfg = ParallelCfg::threads(4).with_tile(96);
        // Force ~6 slabs of the subject.
        cfg.shard_cells = (q.len() as u64) * (s.len() as u64) / 6;
        let slabs = plan_columns(q.len(), s.len(), cfg.shard_cells).len() as u64;
        assert!(slabs >= 6, "{slabs} slabs");
        macro_rules! check {
            ($kind:ident) => {{
                let scalar =
                    score_pass::<$kind, _, _>(&gap, &subst, q.codes(), s.codes(), gap.open());
                let sharded = tiled_score_pass::<$kind, _, _>(
                    &gap,
                    &subst,
                    q.codes(),
                    s.codes(),
                    gap.open(),
                    &cfg,
                );
                let what = <$kind as AlignKind>::NAME;
                assert_eq!(sharded.score, scalar.score, "{what}");
                assert_eq!(sharded.end, scalar.end, "{what}");
                assert_eq!(sharded.last_h, scalar.last_h, "{what}");
                assert_eq!(sharded.last_e, scalar.last_e, "{what}");
                // The score-only pass keeps no rows, only the running
                // best cell and the last slab's corner.
                let scheme = Scheme {
                    kind: $kind,
                    scoring: Scoring { gap, subst },
                };
                let pass = TiledPass::<ScalarTiles>::new(cfg);
                assert_eq!(
                    pass.score(&scheme, q.codes(), s.codes()),
                    scalar.score,
                    "{what}"
                );
                assert_eq!(pass.shard_count(), slabs, "{what}");
            }};
        }
        check!(Global);
        check!(Local);
        check!(SemiGlobal);
        check!(FreeEnd);
    }

    #[test]
    fn slab_seam_matches_unsharded_interior_column() {
        // The exported frontier must equal the H column of a full pass.
        let mut sim = GenomeSim::new(13);
        let q = sim.generate(300);
        let s = sim.mutate(&q, 0.05);
        let gap = AffineGap {
            open: -3,
            extend: -1,
        };
        let subst = simple(2, -2);
        let cfg = ParallelCfg::threads(2).with_tile(64);
        let cut = 150;
        let slab = TiledPass::<ScalarTiles>::new(cfg).slab::<Global, _, _>(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            (0, cut),
            gap.open(),
            None,
        );
        assert_eq!(slab.seam.col, cut);
        assert_eq!(slab.seam.h.len(), q.len());
        assert_eq!(slab.seam.f.len(), q.len());
        // A prefix-only full pass ends exactly at the cut: its last row
        // corner H(n, cut) must agree with the seam's last entry.
        let prefix =
            score_pass::<Global, _, _>(&gap, &subst, q.codes(), &s.codes()[..cut], gap.open());
        assert_eq!(slab.seam.h[q.len() - 1], prefix.last_h[cut]);
    }
}
