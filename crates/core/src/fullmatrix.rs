//! The traceback: one H/E/F state machine that walks an optimal global
//! path back from `(n, m)` one block at a time, recomputing each block
//! it enters as a predecessor matrix seeded from kept tile lines
//! ([`walk`]). With no lines the whole rectangle is one block: that is
//! [`base_global`], the full-matrix base case of the divide-and-conquer
//! traceback (paper §III-A: "recursion on subsequences is only done if
//! the subsequence sizes exceed a hardware-specific threshold"; the
//! sub-threshold rectangles land here).
//!
//! Supports the Myers–Miller boundary gap-open adjustments `tb`/`te`
//! (vertical gaps touching the top/bottom boundary of the rectangle pay
//! the adjusted open instead of the scheme's, because the enclosing
//! recursion has already accounted for the junction): `tb` enters through
//! the initialization stripes, `te` through the end-state choice.
//!
//! A cell's predecessor byte depends only on its inputs — the `H`/`E`/`F`
//! values of its neighbours — and kept lines hold those values exactly,
//! so a block seeded from them records the bytes the whole-rectangle
//! matrix would: a walk through lines emits [`base_global`]'s operations
//! on the same rectangle, whatever the line spacing.

use crate::alignment::AlignOp;
use crate::kind::Global;
use crate::pass::{init_left_f, init_left_h, init_top_e, init_top_h, ColLine, RowLine};
use crate::relax::pred;
use crate::score::{max2, Score};
use crate::scoring::{GapModel, SubstScore};
use crate::tile::{relax_tile, PredSink, TileIn, TileOut};

/// Traceback state machine states (Gotoh's three matrices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    H,
    E,
    F,
}

/// Globally aligns `q × s` with boundary gap-opens `tb`/`te`, appending
/// the operations to `ops` (in left-to-right order) and returning the
/// boundary-adjusted optimal score: [`walk`] with no lines.
///
/// Memory: `n·m` predecessor bytes — callers bound the rectangle area
/// (see `hirschberg::AlignConfig::cutoff_area`).
pub fn base_global<G, S>(
    gap: &G,
    subst: &S,
    q: &[u8],
    s: &[u8],
    tb: Score,
    te: Score,
    ops: &mut Vec<AlignOp>,
) -> Score
where
    G: GapModel,
    S: SubstScore,
{
    walk(gap, subst, q, s, tb, te, &[], &[], ops).0
}

/// The block of the matrix the walk holds predecessors for: rows
/// `top + 1 ..= top + h`, columns `left + 1 ..= left + w`.
struct Block {
    top: usize,
    left: usize,
    sink: PredSink,
    out: TileOut,
}

/// Globally aligns `q × s` with boundary gap-opens `tb`/`te` (as
/// [`base_global`]) by walking back from `(n, m)` through the kept
/// `rows` and `cols` of a pass over the same rectangle with the same
/// `tb` (ascending, interior: `0 < i < n`, `0 < j < m`).
///
/// Whenever the path needs a cell outside the block in hand, the walk
/// recomputes the block that holds it: from the nearest kept row above
/// and column to its left (or the rectangle's init stripes) down and
/// right to the cell itself — never more than one line spacing squared
/// of predecessor bytes. The `E`/`F` state carries across block
/// boundaries. Returns the score and the number of blocks recomputed.
#[allow(clippy::too_many_arguments)]
pub fn walk<G, S>(
    gap: &G,
    subst: &S,
    q: &[u8],
    s: &[u8],
    tb: Score,
    te: Score,
    rows: &[RowLine],
    cols: &[ColLine],
    ops: &mut Vec<AlignOp>,
) -> (Score, usize)
where
    G: GapModel,
    S: SubstScore,
{
    let n = q.len();
    let m = s.len();

    // Degenerate rectangles: one pure gap run (or nothing).
    if m == 0 {
        ops.extend(std::iter::repeat_n(AlignOp::GapS, n));
        let score = if n == 0 {
            0
        } else {
            // The run touches both boundaries: the better single waiver
            // applies (Myers–Miller's min(tb,te), here in score space).
            max2(tb, te) + (n as Score) * gap.extend()
        };
        return (score, 0);
    }
    if n == 0 {
        ops.extend(std::iter::repeat_n(AlignOp::GapQ, m));
        return (gap.gap(m), 0);
    }

    let top_h = init_top_h::<Global, G>(gap, m);
    let top_e = init_top_e::<Global, G>(gap, m);
    let left_h = init_left_h::<Global, G>(gap, n, tb);
    let left_f = init_left_f::<G>(n);
    let mut blk = Block {
        top: 0,
        left: 0,
        sink: PredSink::new(0, 0),
        out: TileOut::new(),
    };
    // Recomputes `blk` as the block whose bottom-right cell is `(i, j)`.
    let enter = |blk: &mut Block, i: usize, j: usize| {
        let row = rows[..rows.partition_point(|r| r.i < i)].last();
        let col = cols[..cols.partition_point(|c| c.j < j)].last();
        let (top, left) = (row.map_or(0, |r| r.i), col.map_or(0, |c| c.j));
        let (row_h, row_e, col_h, col_f) = (
            row.map_or(&top_h[..], |r| &r.h[..]),
            row.map_or(&top_e[..], |r| &r.e[..]),
            col.map_or(&left_h[..], |c| &c.h[..]),
            col.map_or(&left_f[..], |c| &c.f[..]),
        );
        let affine = G::AFFINE;
        blk.sink.reset(i - top, j - left);
        relax_tile::<Global, G, S, _>(
            gap,
            subst,
            &q[top..i],
            &s[left..j],
            (top + 1, left + 1),
            (n, m),
            TileIn {
                top_h: &row_h[left..=j],
                top_e: if affine { &row_e[left..j] } else { &[] },
                left_h: &col_h[top..i],
                left_f: if affine { &col_f[top..i] } else { &[] },
            },
            &mut blk.out,
            &mut blk.sink,
        );
        (blk.top, blk.left) = (top, left);
    };
    enter(&mut blk, n, m);
    let mut blocks = 1;

    // End-state choice: finishing in a vertical gap that touches the
    // bottom boundary re-prices its open from the scheme's to `te`.
    let w = m - blk.left;
    let score_h = blk.out.bot_h[w];
    let (mut st, score) = if G::AFFINE {
        let score_e = blk.out.bot_e[w - 1] - gap.open() + te;
        if score_e > score_h {
            (St::E, score_e)
        } else {
            (St::H, score_h)
        }
    } else {
        (St::H, score_h)
    };

    // Traceback (collect reversed, then flip).
    let mut rev: Vec<AlignOp> = Vec::with_capacity(n + m);
    let mut i = n;
    let mut j = m;
    loop {
        if st == St::H {
            if i == 0 {
                rev.extend(std::iter::repeat_n(AlignOp::GapQ, j));
                break;
            }
            if j == 0 {
                rev.extend(std::iter::repeat_n(AlignOp::GapS, i));
                break;
            }
        }
        if i <= blk.top || j <= blk.left {
            enter(&mut blk, i, j);
            blocks += 1;
        }
        let p = blk.sink.at(i - blk.top - 1, j - blk.left - 1);
        match st {
            St::H => match p & pred::DIR_MASK {
                pred::DIAG => {
                    rev.push(if q[i - 1] == s[j - 1] {
                        AlignOp::Match
                    } else {
                        AlignOp::Mismatch
                    });
                    i -= 1;
                    j -= 1;
                }
                pred::UP => st = St::E,
                pred::LEFT => st = St::F,
                _ => unreachable!("global traceback hit a local stop cell"),
            },
            St::E => {
                rev.push(AlignOp::GapS);
                i -= 1;
                st = if i > 0 && (p & pred::E_EXT) != 0 {
                    St::E
                } else {
                    St::H
                };
            }
            St::F => {
                rev.push(AlignOp::GapQ);
                j -= 1;
                st = if j > 0 && (p & pred::F_EXT) != 0 {
                    St::F
                } else {
                    St::H
                };
            }
        }
    }
    rev.reverse();
    ops.extend_from_slice(&rev);
    (score, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::kind::Global as GlobalKind;
    use crate::scoring::{simple, AffineGap, LinearGap};
    use anyseq_seq::Seq;

    fn run<G: GapModel>(gap: G, qa: &[u8], sa: &[u8]) -> (Score, Vec<AlignOp>) {
        let subst = simple(2, -1);
        let q = Seq::from_ascii(qa).unwrap();
        let s = Seq::from_ascii(sa).unwrap();
        let mut ops = Vec::new();
        let score = base_global(
            &gap,
            &subst,
            q.codes(),
            s.codes(),
            gap.open(),
            gap.open(),
            &mut ops,
        );
        // Every emitted alignment must recompute to its reported score.
        let aln = Alignment {
            score,
            ops: ops.clone(),
            q_start: 0,
            q_end: q.len(),
            s_start: 0,
            s_end: s.len(),
        };
        aln.validate::<GlobalKind, _, _>(&q, &s, &gap, &simple(2, -1))
            .unwrap();
        (score, ops)
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
        let subst = simple(2, -1);
        let mut ops = Vec::new();
        let score = base_global(
            &gap,
            &subst,
            &[],
            &[0, 1, 2],
            gap.open(),
            gap.open(),
            &mut ops,
        );
        assert_eq!(score, -5);
        assert_eq!(ops, vec![AlignOp::GapQ; 3]);

        ops.clear();
        let score = base_global(&gap, &subst, &[0, 1], &[], gap.open(), gap.open(), &mut ops);
        assert_eq!(score, -4);
        assert_eq!(ops, vec![AlignOp::GapS; 2]);

        ops.clear();
        let score = base_global(&gap, &subst, &[], &[], gap.open(), gap.open(), &mut ops);
        assert_eq!(score, 0);
        assert!(ops.is_empty());
    }

    #[test]
    fn tb_zero_waives_top_touching_open() {
        // q = AA, s = "" is trivial; instead: q = AAC, s = C. Optimal with
        // tb = 0: delete AA via a top-touching run paying 0 open.
        let gap = AffineGap {
            open: -10,
            extend: -1,
        };
        let subst = simple(2, -1);
        let q = Seq::from_ascii(b"AAC").unwrap();
        let s = Seq::from_ascii(b"C").unwrap();
        let mut ops = Vec::new();
        let score = base_global(&gap, &subst, q.codes(), s.codes(), 0, gap.open(), &mut ops);
        // top-touching delete of AA: 0 - 2, then C=C: +2 → 0
        assert_eq!(score, 0);
        assert_eq!(
            ops,
            vec![AlignOp::GapS, AlignOp::GapS, AlignOp::Match],
            "gap must be placed at the top boundary to exploit tb"
        );
    }

    #[test]
    fn te_zero_waives_bottom_touching_open() {
        let gap = AffineGap {
            open: -10,
            extend: -1,
        };
        let subst = simple(2, -1);
        let q = Seq::from_ascii(b"CAA").unwrap();
        let s = Seq::from_ascii(b"C").unwrap();
        let mut ops = Vec::new();
        let score = base_global(&gap, &subst, q.codes(), s.codes(), gap.open(), 0, &mut ops);
        assert_eq!(score, 0);
        assert_eq!(ops, vec![AlignOp::Match, AlignOp::GapS, AlignOp::GapS]);
    }

    #[test]
    fn full_span_gap_uses_better_boundary() {
        let gap = AffineGap {
            open: -10,
            extend: -1,
        };
        let subst = simple(2, -1);
        // m == 0: whole q deleted, run touches both boundaries.
        let mut ops = Vec::new();
        let score = base_global(&gap, &subst, &[0, 0, 0], &[], 0, gap.open(), &mut ops);
        assert_eq!(score, -3); // waived open (tb = 0), 3 extends
    }
}
