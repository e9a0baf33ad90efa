//! Cross-shard border stitching — the paper's Fig. 2 border stripes
//! promoted from an intra-pass detail to a first-class contract between
//! *subject shards* of one alignment pair.
//!
//! A shard is a contiguous slab of subject columns. The only state one
//! slab needs from its left neighbour is the DP frontier at the cut
//! column — `H(1..=n, col)` plus `F(1..=n, col)` for affine models (`E`
//! propagates *down* rows, never *right* across a column cut, so it
//! never crosses a vertical seam). That frontier is a [`ShardSeam`]:
//! small (`O(n)`), serializable, and sufficient to restart the pass on
//! the other side of the cut — which bounds the resident border +
//! grid working set of a chromosome-scale pair to one slab, and is the
//! hand-off a multi-process deployment would ship over the wire.

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

impl ShardSeam {
    /// Resident payload bytes of the frontier.
    pub fn bytes(&self) -> usize {
        (self.h.len() + self.f.len()) * std::mem::size_of::<Score>()
    }

    /// Serializes the seam (little-endian `col`/`h.len`/`f.len` header
    /// followed by the raw score payloads) — the wire format a
    /// multi-process shard chain would exchange.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.bytes());
        out.extend_from_slice(&(self.col as u64).to_le_bytes());
        out.extend_from_slice(&(self.h.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.f.len() as u64).to_le_bytes());
        for v in &self.h {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.f {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes a seam produced by [`ShardSeam::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardSeam, String> {
        let word = |at: usize| -> Result<u64, String> {
            bytes
                .get(at..at + 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .ok_or_else(|| "seam header truncated".to_string())
        };
        let col = word(0)? as usize;
        let hn = word(8)? as usize;
        let fn_ = word(16)? as usize;
        let need = 24 + (hn + fn_) * std::mem::size_of::<Score>();
        if bytes.len() != need {
            return Err(format!(
                "seam payload length mismatch: have {}, need {need}",
                bytes.len()
            ));
        }
        let score_at = |at: usize| Score::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let h = (0..hn).map(|k| score_at(24 + 4 * k)).collect();
        let f = (0..fn_).map(|k| score_at(24 + 4 * (hn + k))).collect();
        Ok(ShardSeam { col, h, f })
    }
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

/// Result of one slab pass: the outgoing frontier plus the slab's share
/// of the final DP row and the slab-local optimum.
#[derive(Debug, Clone)]
pub struct SlabOutput {
    /// Frontier at the slab's last column — input for the next slab.
    pub seam: ShardSeam,
    /// `H(n, c0..=c1)` — width + 1 values including the left corner
    /// (concatenate, dropping the corner on every slab but the first,
    /// to rebuild the full last row).
    pub last_h: Vec<Score>,
    /// `E(n, c0+1..=c1)` — width values; empty for linear models.
    pub last_e: Vec<Score>,
    /// Best cell seen inside the slab (absolute coordinates).
    pub best: BestCell,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{tiled_score_pass, ParallelCfg, ScalarTiles, TiledPass};
    use anyseq_core::kind::{Global, Local, SemiGlobal};
    use anyseq_core::pass::score_pass;
    use anyseq_core::scoring::{simple, AffineGap, GapModel};
    use anyseq_seq::genome::GenomeSim;

    #[test]
    fn seam_round_trips_stripe_exactly() {
        let seam = ShardSeam {
            col: 1234,
            h: vec![0, -3, 7, Score::MIN / 4, 42],
            f: vec![-9, -8, -7, -6, -5],
        };
        let back = ShardSeam::from_bytes(&seam.to_bytes()).unwrap();
        assert_eq!(back, seam);
        // Linear seams carry no F stripe.
        let lin = ShardSeam {
            col: 1,
            h: vec![5, -5],
            f: Vec::new(),
        };
        assert_eq!(ShardSeam::from_bytes(&lin.to_bytes()).unwrap(), lin);
        assert!(ShardSeam::from_bytes(&lin.to_bytes()[..9]).is_err());
        assert!(ShardSeam::from_bytes(&[0u8; 25]).is_err());
    }

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
        macro_rules! check {
            ($kind:ty) => {{
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
                assert_eq!(sharded.score, scalar.score);
                assert_eq!(sharded.end, scalar.end);
                assert_eq!(sharded.last_h, scalar.last_h);
                assert_eq!(sharded.last_e, scalar.last_e);
            }};
        }
        check!(Global);
        check!(Local);
        check!(SemiGlobal);
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
