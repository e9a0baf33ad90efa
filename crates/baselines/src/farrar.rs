//! Farrar's striped intra-sequence SIMD Smith–Waterman — the layout used
//! by the SSW library (paper refs \[15\], \[28\]).
//!
//! The query is laid out *striped* across vector lanes (lane `l` of
//! vector `i` holds query position `i + l·segLen`), which keeps the inner
//! loop dependency-free; the price is the **lazy-F** fix-up loop whose
//! trip count is data-dependent — the paper notes the approach "relies on
//! efficient branch prediction units which are often inefficient on
//! modern many-core architectures". We reproduce the method faithfully
//! (including that control-flow-heavy fix-up) as an extra short-read
//! baseline.

use anyseq_core::kind::Local;
use anyseq_core::pass::score_pass;
use anyseq_core::score::Score;
use anyseq_core::scoring::{AffineGap, SubstScore};
use anyseq_seq::alphabet::ALPHABET_SIZE;
use anyseq_seq::Seq;
use anyseq_simd::I16s;

const NEG: i16 = -30_000;

/// Striped local-alignment scorer with fixed lane count `L`.
pub struct Farrar<const L: usize> {
    gap: AffineGap,
    matches: [[i16; ALPHABET_SIZE]; ALPHABET_SIZE],
}

impl<const L: usize> Farrar<L> {
    /// Builds a scorer for the given scheme. Scores must fit 16-bit
    /// arithmetic (reads-scale inputs).
    pub fn new<S: SubstScore>(gap: AffineGap, subst: &S) -> Farrar<L> {
        let mut matches = [[0i16; ALPHABET_SIZE]; ALPHABET_SIZE];
        for (qc, row) in matches.iter_mut().enumerate() {
            for (sc, cell) in row.iter_mut().enumerate() {
                *cell = subst.score(qc as u8, sc as u8) as i16;
            }
        }
        Farrar { gap, matches }
    }

    /// Optimal local alignment score of `q` vs `s`.
    pub fn score(&self, q: &Seq, s: &Seq) -> Score {
        let n = q.len();
        let m = s.len();
        if n == 0 || m == 0 {
            return 0;
        }
        let seg = n.div_ceil(L);
        let ext = self.gap.extend as i16;
        let openext = (self.gap.open + self.gap.extend) as i16;

        // Striped query profile: profile[y][i].lane(l) = σ(q[i + l·seg], y).
        let mut profile = vec![vec![I16s::<L>::splat(NEG); seg]; ALPHABET_SIZE];
        for (y, plane) in profile.iter_mut().enumerate() {
            for (i, v) in plane.iter_mut().enumerate() {
                let mut lanes = [NEG; L];
                for (l, lane) in lanes.iter_mut().enumerate() {
                    let pos = i + l * seg;
                    if pos < n {
                        *lane = self.matches[q[pos] as usize][y];
                    }
                }
                *v = I16s(lanes);
            }
        }

        let zero = I16s::<L>::splat(0);
        let mut h_store = vec![zero; seg];
        let mut e_store = vec![I16s::<L>::splat(NEG); seg];
        let mut h_new = vec![zero; seg];
        let mut v_max = zero;

        for j in 0..m {
            let prof = &profile[s[j] as usize];
            let mut v_f = I16s::<L>::splat(NEG);
            // H from the previous column, query position shifted by one:
            // the last stripe vector wraps with a lane shift.
            let mut v_h = h_store[seg - 1].shift_lanes_up(0);
            for i in 0..seg {
                let v = v_h.sat_add(prof[i]).max(e_store[i]).max(v_f).maxs(0);
                v_max = v_max.max(v);
                h_new[i] = v;
                e_store[i] = e_store[i].sat_adds(ext).max(v.sat_adds(openext));
                v_f = v_f.sat_adds(ext).max(v.sat_adds(openext));
                v_h = h_store[i];
            }
            // Lazy-F: propagate F across stripe wraps until fixpoint
            // (the data-dependent loop Farrar's speed hinges on).
            loop {
                v_f = v_f.shift_lanes_up(NEG);
                let mut changed = false;
                for i in 0..seg {
                    let improved = h_new[i].max(v_f);
                    if improved.any_gt(h_new[i]) {
                        changed = true;
                        h_new[i] = improved.maxs(0);
                        e_store[i] = e_store[i].max(h_new[i].sat_adds(openext));
                        v_max = v_max.max(h_new[i]);
                    }
                    v_f = v_f.sat_adds(ext).max(h_new[i].sat_adds(openext));
                }
                if !changed {
                    break;
                }
            }
            std::mem::swap(&mut h_store, &mut h_new);
        }
        (v_max.hmax() as Score).max(0)
    }

    /// Scores a batch of pairs (striped kernel per pair, parallelism
    /// across pairs).
    pub fn score_batch(&self, pairs: &[(Seq, Seq)], threads: usize) -> Vec<Score>
    where
        Self: Sync,
    {
        crate::batch_with(pairs, threads, |qc, sc| {
            let q = Seq::from_codes(qc.to_vec()).expect("valid codes");
            let s = Seq::from_codes(sc.to_vec()).expect("valid codes");
            self.score(&q, &s)
        })
    }
}

/// Reference check helper: core engine local score.
pub fn local_reference<S: SubstScore>(gap: &AffineGap, subst: &S, q: &Seq, s: &Seq) -> Score {
    score_pass::<Local, AffineGap, S>(gap, subst, q.codes(), s.codes()).score
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::prelude::simple;
    use anyseq_seq::genome::GenomeSim;
    use anyseq_seq::readsim::{ReadSim, ReadSimProfile};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn farrar_matches_reference_on_reads() {
        let gap = AffineGap {
            open: -3,
            extend: -1,
        };
        let subst = simple(2, -2);
        let farrar = Farrar::<8>::new(gap, &subst);
        let mut sim = GenomeSim::new(127);
        let reference = sim.generate(50_000);
        let mut rs = ReadSim::new(ReadSimProfile::default(), 5);
        for p in rs.simulate_pairs(&reference, 50) {
            let expected = local_reference(&gap, &subst, &p.a, &p.b);
            assert_eq!(farrar.score(&p.a, &p.b), expected);
        }
    }

    #[test]
    fn farrar_matches_reference_random_lengths() {
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(3, -2);
        let farrar16 = Farrar::<16>::new(gap, &subst);
        let farrar4 = Farrar::<4>::new(gap, &subst);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..60 {
            let n = rng.gen_range(1..120);
            let m = rng.gen_range(1..120);
            let q = Seq::from_codes((0..n).map(|_| rng.gen_range(0..4)).collect()).unwrap();
            let s = Seq::from_codes((0..m).map(|_| rng.gen_range(0..4)).collect()).unwrap();
            let expected = local_reference(&gap, &subst, &q, &s);
            assert_eq!(farrar16.score(&q, &s), expected, "L=16 n={n} m={m}");
            assert_eq!(farrar4.score(&q, &s), expected, "L=4 n={n} m={m}");
        }
    }

    #[test]
    fn farrar_gap_heavy_cases() {
        // Long homopolymers: exercises deep lazy-F propagation.
        let gap = AffineGap {
            open: -1,
            extend: -1,
        };
        let subst = simple(2, -5);
        let farrar = Farrar::<8>::new(gap, &subst);
        let q = Seq::from_ascii(b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA").unwrap();
        let s = Seq::from_ascii(b"AAAATTTTTTTTTTTTTTTTTTAAAA").unwrap();
        assert_eq!(farrar.score(&q, &s), local_reference(&gap, &subst, &q, &s));
    }

    #[test]
    fn farrar_empty_inputs() {
        let gap = AffineGap {
            open: -2,
            extend: -1,
        };
        let subst = simple(2, -1);
        let farrar = Farrar::<8>::new(gap, &subst);
        let q = Seq::from_ascii(b"ACGT").unwrap();
        assert_eq!(farrar.score(&q, &Seq::new()), 0);
        assert_eq!(farrar.score(&Seq::new(), &q), 0);
    }
}
