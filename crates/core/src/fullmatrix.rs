//! The traceback walk: one H/E/F state machine, specialized per
//! alignment kind like every other engine, that walks an optimal path
//! back from the kind's optimum one block at a time ([`walk`]).
//!
//! The walk starts at the kind's `BestCell` in the `H` state and stops
//! by the kind's rules: a local path at a ν = 0 stop cell, a free-begin
//! path where it meets row 0 or column 0, and an anchored path runs on
//! along that edge to `(0, 0)`. Whenever the path needs a cell outside
//! the block in hand, the walk takes the block that holds it — from the
//! nearest kept line above and to its left (or the rectangle's seeds)
//! down and right to the cell — and recomputes its predecessor bytes,
//! carrying the `E`/`F` state across block edges. A block larger than
//! the base-case area is walked the same way through lines of its own:
//! a kept-lines pass over it, seeded from its top row and left column,
//! and the path leaves it through its top or left edge in whatever
//! state it is in (FastLSA's nested grid lines, Driga et al.,
//! *Algorithmica* 2006). A rectangle within the base-case area is one
//! block with no lines — the full-matrix traceback — and its own
//! relaxation reports the optimum the walk starts from (paper §III-A:
//! "recursion on subsequences is only done if the subsequence sizes
//! exceed a hardware-specific threshold").
//!
//! [`trace`] runs the same state machine and end rules over a store of
//! the caller's own — the SIMD lanes decode their direction bit-planes
//! through it — so every backend's path is the same path.
//!
//! A cell's predecessor byte depends only on its inputs — the `H`/`E`/`F`
//! values of its neighbours — and kept lines hold those values exactly,
//! so a block seeded from them records the bytes the whole-rectangle
//! matrix would: the walk emits the one-block walk's operations on the
//! same rectangle, whatever the lines and however deep they nest.

use crate::alignment::{AlignOp, Alignment};
use crate::kind::AlignKind;
use crate::pass::{finalize_score, ColLine, RowLine, Seeds};
use crate::relax::pred;
use crate::score::Score;
use crate::scoring::{GapModel, SubstScore};
use crate::tile::{relax_tile, PredSink, TileIn, TileOut};
use crate::traceback::{spacing, LinesPass};

/// Traceback state machine states (Gotoh's three matrices), plus the
/// ν = 0 stop of a local path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    H,
    E,
    F,
    Stop,
}

/// Where the walk is: a cell and the state it is in there. Its [`step`]
/// is the one H/E/F state machine of every traceback in the workspace:
/// [`walk`] steps it over recomputed blocks, [`trace`] over any other
/// predecessor store (the SIMD lanes' bit-planes).
///
/// [`step`]: Cursor::step
#[derive(Debug, Clone, Copy)]
struct Cursor {
    i: usize,
    j: usize,
    st: St,
}

impl Cursor {
    /// The walk's start: the kind's optimum cell `end`, in the `H` state.
    fn at(end: (usize, usize)) -> Cursor {
        Cursor {
            i: end.0,
            j: end.1,
            st: St::H,
        }
    }

    /// The cell whose predecessor byte the next [`step`](Self::step)
    /// reads, while the path goes on: `None` once it stopped or met
    /// row 0 or column 0.
    #[inline(always)]
    fn cell(&self) -> Option<(usize, usize)> {
        (self.st != St::Stop && self.i > 0 && self.j > 0).then_some((self.i, self.j))
    }

    /// One step of the state machine at its cell, given that cell's
    /// predecessor byte `p` ([`pred`]): pushes the operation it takes
    /// (reversed order) onto `rev`, or changes state, or stops.
    #[inline(always)]
    fn step(&mut self, p: u8, q: &[u8], s: &[u8], rev: &mut Vec<AlignOp>) {
        let (i, j) = (self.i, self.j);
        match self.st {
            St::H => match p & pred::DIR_MASK {
                pred::DIAG => {
                    rev.push(if q[i - 1] == s[j - 1] {
                        AlignOp::Match
                    } else {
                        AlignOp::Mismatch
                    });
                    (self.i, self.j) = (i - 1, j - 1);
                }
                pred::UP => self.st = St::E,
                pred::LEFT => self.st = St::F,
                _ => self.st = St::Stop,
            },
            St::E => {
                rev.push(AlignOp::GapS);
                self.i = i - 1;
                self.st = if p & pred::E_EXT != 0 { St::E } else { St::H };
            }
            St::F => {
                rev.push(AlignOp::GapQ);
                self.j = j - 1;
                self.st = if p & pred::F_EXT != 0 { St::F } else { St::H };
            }
            St::Stop => unreachable!("a stopped walk takes no step"),
        }
    }

    /// Ends a kind-`K` walk that started at `end` and stands here: an
    /// anchored path runs along row 0 or column 0 to the origin, the
    /// path starts where the walk ended, and a path with no operation is
    /// [`Alignment::empty`].
    fn finish<K: AlignKind>(
        self,
        score: Score,
        end: (usize, usize),
        mut rev: Vec<AlignOp>,
    ) -> Alignment {
        let (mut i, mut j) = (self.i, self.j);
        if !K::FREE_BEGIN {
            // `E` and `F` never extend a run out of the init stripes.
            debug_assert_eq!(self.st, St::H);
            rev.extend(std::iter::repeat_n(AlignOp::GapQ, j));
            rev.extend(std::iter::repeat_n(AlignOp::GapS, i));
            (i, j) = (0, 0);
        }
        if rev.is_empty() {
            return Alignment::empty(score);
        }
        rev.reverse();
        Alignment {
            score,
            ops: rev,
            q_start: i,
            q_end: end.0,
            s_start: j,
            s_end: end.1,
        }
    }
}

/// The kind-`K` alignment of `q × s` with optimum `score` at `end`,
/// traced back over the predecessor bytes `pred_at(i, j)` of a store
/// that holds every cell of the path (1-based DP coordinates): the
/// walk's state machine and end rules over a store of one's own.
#[inline]
pub fn trace<K: AlignKind>(
    q: &[u8],
    s: &[u8],
    score: Score,
    end: (usize, usize),
    mut pred_at: impl FnMut(usize, usize) -> u8,
) -> Alignment {
    let mut at = Cursor::at(end);
    let mut rev = Vec::with_capacity(end.0 + end.1);
    while let Some((i, j)) = at.cell() {
        at.step(pred_at(i, j), q, s, &mut rev);
    }
    at.finish::<K>(score, end, rev)
}

/// The block of a rectangle the walk holds predecessors for: rows
/// `top + 1 ..= top + h`, columns `left + 1 ..= left + w`.
struct Block {
    top: usize,
    left: usize,
    sink: PredSink,
    out: TileOut,
}

impl Block {
    /// Holds nothing: every cell is outside it.
    fn new() -> Block {
        Block {
            top: usize::MAX,
            left: usize::MAX,
            sink: PredSink::new(0, 0),
            out: TileOut::new(),
        }
    }

    /// Recomputes the block `q × s` at `(top, left)` of an `n × m`
    /// rectangle from its boundary stripes.
    #[allow(clippy::too_many_arguments)]
    fn enter<K: AlignKind, G: GapModel, S: SubstScore>(
        &mut self,
        gap: &G,
        subst: &S,
        q: &[u8],
        s: &[u8],
        input: TileIn<'_>,
        (top, left): (usize, usize),
        dims: (usize, usize),
    ) {
        self.sink.reset(q.len(), s.len());
        relax_tile::<K, G, S, _>(
            gap,
            subst,
            q,
            s,
            (top + 1, left + 1),
            dims,
            input,
            &mut self.out,
            &mut self.sink,
        );
        (self.top, self.left) = (top, left);
    }
}

/// What a walk needs besides its rectangle: the provider of the nested
/// blocks' kept-lines passes, and how many blocks it recomputed.
struct Walk<'a, P, G, S> {
    pass: &'a P,
    gap: &'a G,
    subst: &'a S,
    cutoff_area: usize,
    blocks: usize,
}

/// Aligns `q × s` by kind `K`: the optimum and its path (see the module
/// docs). A rectangle of at most `cutoff_area` cells is one block;
/// a larger one's lines come from `pass` — at the [`spacing`] its shape
/// allows, down to the base case. Returns the alignment and the number
/// of blocks recomputed through kept lines (0 for one block).
pub fn walk<K, G, S, P>(
    pass: &P,
    gap: &G,
    subst: &S,
    q: &[u8],
    s: &[u8],
    cutoff_area: usize,
) -> (Alignment, usize)
where
    K: AlignKind,
    G: GapModel,
    S: SubstScore,
    P: LinesPass<G, S>,
{
    let (n, m) = (q.len(), s.len());
    let seeds = Seeds::init::<K, G>(gap, n, m);
    let whole = seeds.stripes();
    let mut blk = Block::new();
    let kept;
    let (score, end, rows, cols) = if n > 0 && m > 0 && n.saturating_mul(m) <= cutoff_area {
        blk.enter::<K, G, S>(gap, subst, q, s, whole, (0, 0), (n, m));
        let (score, end) = finalize_score::<K, G>(gap, blk.out.best, n, m, blk.out.bot_h[m]);
        (score, end, &[][..], &[][..])
    } else {
        kept = pass.lines::<K>(gap, subst, q, s, whole, spacing(n, m, cutoff_area));
        let (rows, cols) = (&kept.rows[..], &kept.cols[..]);
        (kept.pass.score, kept.pass.end, rows, cols)
    };
    let mut walk = Walk {
        pass,
        gap,
        subst,
        cutoff_area,
        blocks: 0,
    };
    let mut rev = Vec::with_capacity(n + m);
    let at = walk.through::<K>(q, s, whole, rows, cols, &mut blk, Cursor::at(end), &mut rev);
    (at.finish::<K>(score, end, rev), walk.blocks)
}

impl<P, G, S> Walk<'_, P, G, S>
where
    G: GapModel,
    S: SubstScore,
    P: LinesPass<G, S>,
{
    /// Walks from `at` through `q × s` — seeded by `seeds`, with kept
    /// `rows` and `cols` — pushing the operations (reversed) onto `rev`
    /// until the path stops or reaches row 0 or column 0; returns where.
    /// `blk` may already hold the block the walk starts in.
    #[allow(clippy::too_many_arguments)]
    fn through<K: AlignKind>(
        &mut self,
        q: &[u8],
        s: &[u8],
        seeds: TileIn<'_>,
        rows: &[RowLine],
        cols: &[ColLine],
        blk: &mut Block,
        mut at: Cursor,
        rev: &mut Vec<AlignOp>,
    ) -> Cursor {
        while let Some((i, j)) = at.cell() {
            if i <= blk.top || j <= blk.left {
                let row = rows[..rows.partition_point(|r| r.i < i)].last();
                let col = cols[..cols.partition_point(|c| c.j < j)].last();
                let (top, left) = (row.map_or(0, |r| r.i), col.map_or(0, |c| c.j));
                let (row_h, row_e) = row.map_or((seeds.top_h, seeds.top_e), |r| (&r.h, &r.e));
                let (col_h, col_f) = col.map_or((seeds.left_h, seeds.left_f), |c| (&c.h, &c.f));
                let affine = G::AFFINE;
                let input = TileIn {
                    top_h: &row_h[left..=j],
                    top_e: if affine { &row_e[left..j] } else { &[] },
                    left_h: &col_h[top..i],
                    left_f: if affine { &col_f[top..i] } else { &[] },
                };
                let (bq, bs) = (&q[top..i], &s[left..j]);
                // A block no line cuts (a single cell at a zero cutoff,
                // or a provider that kept none) is the rectangle itself:
                // walked as one block, however large.
                let uncut = (top, left, i, j) == (0, 0, q.len(), s.len());
                if bq.len() * bs.len() > self.cutoff_area && !uncut {
                    // Too large for one block: its own kept-lines pass,
                    // and the walk goes on where the path leaves it.
                    let shape = spacing(bq.len(), bs.len(), self.cutoff_area);
                    let lines = self
                        .pass
                        .lines::<K>(self.gap, self.subst, bq, bs, input, shape);
                    let from = Cursor {
                        i: i - top,
                        j: j - left,
                        st: at.st,
                    };
                    let to = self.through::<K>(
                        bq,
                        bs,
                        input,
                        &lines.rows,
                        &lines.cols,
                        &mut Block::new(),
                        from,
                        rev,
                    );
                    at = Cursor {
                        i: top + to.i,
                        j: left + to.j,
                        st: to.st,
                    };
                    continue;
                }
                let dims = (q.len(), s.len());
                blk.enter::<K, G, S>(self.gap, self.subst, bq, bs, input, (top, left), dims);
                self.blocks += 1;
            }
            at.step(blk.sink.at(i - blk.top - 1, j - blk.left - 1), q, s, rev);
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::Global;
    use crate::score::Score;
    use crate::scoring::{simple, AffineGap, LinearGap};
    use crate::traceback::ScalarPass;
    use anyseq_seq::Seq;

    /// The one-block global walk of `q × s`.
    fn global<G: GapModel>(gap: &G, q: &[u8], s: &[u8]) -> Alignment {
        walk::<Global, _, _, _>(&ScalarPass, gap, &simple(2, -1), q, s, usize::MAX).0
    }

    fn run<G: GapModel>(gap: G, qa: &[u8], sa: &[u8]) -> (Score, Vec<AlignOp>) {
        let q = Seq::from_ascii(qa).unwrap();
        let s = Seq::from_ascii(sa).unwrap();
        let aln = global(&gap, q.codes(), s.codes());
        // Every emitted alignment must recompute to its reported score.
        aln.validate::<Global, _, _>(&q, &s, &gap, &simple(2, -1))
            .unwrap();
        (aln.score, aln.ops)
    }

    #[test]
    fn identity_alignment() {
        let (score, ops) = run(LinearGap { gap: -1 }, b"ACGT", b"ACGT");
        assert_eq!(score, 8);
        assert!(ops.iter().all(|&o| o == AlignOp::Match));
    }

    #[test]
    fn single_mismatch() {
        let (score, ops) = run(LinearGap { gap: -1 }, b"ACGT", b"AGGT");
        assert_eq!(score, 5);
        assert_eq!(ops.iter().filter(|&&o| o == AlignOp::Mismatch).count(), 1);
    }

    #[test]
    fn single_deletion_linear() {
        let (score, ops) = run(LinearGap { gap: -1 }, b"ACGT", b"AGT");
        assert_eq!(score, 5); // 3 matches + 1 gap
        assert_eq!(ops.iter().filter(|&&o| o == AlignOp::GapS).count(), 1);
    }

    #[test]
    fn affine_prefers_one_long_gap() {
        // q has a 3-base insertion; affine must produce ONE gap run.
        let gap = AffineGap {
            open: -4,
            extend: -1,
        };
        let (score, ops) = run(gap, b"ACGTTTACGT", b"ACGACGT");
        // Hmm: q = ACG TTT ACGT (10), s = ACG ACGT (7): 7 matches + gap(3)
        assert_eq!(score, 7 * 2 - 4 - 3);
        let runs: Vec<(AlignOp, usize)> = {
            let mut v = Vec::new();
            for &op in &ops {
                match v.last_mut() {
                    Some((last, count)) if *last == op => *count += 1,
                    _ => v.push((op, 1)),
                }
            }
            v
        };
        assert_eq!(
            runs.iter()
                .filter(|(op, _)| *op == AlignOp::GapS)
                .collect::<Vec<_>>(),
            vec![&(AlignOp::GapS, 3)],
            "expected exactly one 3-long subject gap, cigar-runs {runs:?}"
        );
    }

    #[test]
    fn empty_cases_emit_pure_gaps() {
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let aln = global(&gap, &[], &[0, 1, 2]);
        assert_eq!(aln.score, -5);
        assert_eq!(aln.ops, vec![AlignOp::GapQ; 3]);

        let aln = global(&gap, &[0, 1], &[]);
        assert_eq!(aln.score, -4);
        assert_eq!(aln.ops, vec![AlignOp::GapS; 2]);

        let aln = global(&gap, &[], &[]);
        assert_eq!(aln.score, 0);
        assert!(aln.ops.is_empty());
    }
}
