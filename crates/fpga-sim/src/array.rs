//! Cycle-counted linear systolic array — the paper's FPGA mapping
//! (§IV-C): `KPE` processing elements each relax one DP cell per clock;
//! the shorter sequence is divided into blocks of at most `KPE` that
//! initialize the PEs; the longer sequence is streamed one character per
//! cycle through the chain; when the query is longer than `KPE`, the
//! boundary row of each stripe is buffered through a DDR FIFO component.
//!
//! The simulation is value-faithful (PE delay registers, char pipeline,
//! DDR double-buffer) and bit-exact against the scalar engine; the cycle
//! count is exact for the array itself (`stripe_rows + m − 1` per stripe
//! plus pipeline fill) while the DDR stream is a bandwidth model —
//! calibrated so that, as the paper observes, *"a no-operation hardware
//! module is as fast as our alignment core"*: the transfer stream, not
//! the arithmetic, is the binding resource.

use anyseq_core::kind::Global;
use anyseq_core::pass::{init_left_h, init_top_e, init_top_h};
use anyseq_core::score::{Score, NEG_INF};
use anyseq_core::scoring::{GapModel, SubstScore};
use anyseq_seq::Seq;

/// Execution statistics of one systolic run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpgaStats {
    /// DP cells relaxed.
    pub cells: u64,
    /// Clock cycles consumed (max of compute and DDR stream per stripe).
    pub cycles: u64,
    /// Query stripes processed.
    pub stripes: u64,
    /// Bytes moved through the DDR boundary FIFO.
    pub ddr_bytes: u64,
}

/// Result of a systolic scoring run.
#[derive(Debug, Clone)]
pub struct FpgaRun {
    /// Optimal global score (bit-exact).
    pub score: Score,
    /// Final DP row `H(n, 0..=m)` (for validation).
    pub last_h: Vec<Score>,
    /// Statistics.
    pub stats: FpgaStats,
}

/// A configured systolic array.
#[derive(Debug, Clone)]
pub struct SystolicArray {
    /// Device name for reports.
    pub name: String,
    /// Number of processing elements.
    pub kpe: usize,
    /// Clock frequency in Hz.
    pub clock_hz: f64,
    /// Board power in watts (for Table II; ZCU104: synthesis report).
    pub watts: f64,
    /// DDR FIFO throughput in bytes per clock cycle (boundary stream).
    pub ddr_bytes_per_cycle: f64,
}

impl SystolicArray {
    /// The paper's evaluation board: Xilinx ZCU104 at 187.5 MHz
    /// (§V "AnySeq runs with a frequency of 187.5 MHz and achieves a
    /// median performance of about 20 GCUPS"), power 6.181 W from the
    /// synthesis report (Table II).
    pub fn zcu104(kpe: usize) -> SystolicArray {
        SystolicArray {
            name: "ZCU104-sim".to_string(),
            kpe,
            clock_hz: 187.5e6,
            watts: 6.181,
            // Boundary stream of 16 B per column per stripe at ~13 B/cycle
            // makes the transfer marginally the binding resource, matching
            // the paper's no-op-module observation.
            ddr_bytes_per_cycle: 13.3,
        }
    }

    /// Streams one global score-only alignment through the array
    /// (the paper's FPGA backend "only supports score-only long genome
    /// alignment").
    ///
    /// The shorter sequence loads the PEs; pass `q`/`s` in either order —
    /// they are swapped internally if needed (global scoring with a
    /// symmetric gap model is orientation-independent).
    pub fn score<G, S>(&self, gap: &G, subst: &S, q: &Seq, s: &Seq) -> FpgaRun
    where
        G: GapModel,
        S: SubstScore,
    {
        // PEs hold the shorter sequence.
        let (qc, sc, swapped) = if q.len() <= s.len() {
            (q.codes(), s.codes(), false)
        } else {
            (s.codes(), q.codes(), true)
        };
        let run = self.score_codes(gap, subst, qc, sc);
        let _ = swapped; // the global score is swap-invariant; last_h is
                         // reported in the streamed orientation.
        run
    }

    /// Core streaming loop over raw codes (`q` loads the PEs).
    pub fn score_codes<G, S>(&self, gap: &G, subst: &S, q: &[u8], s: &[u8]) -> FpgaRun
    where
        G: GapModel,
        S: SubstScore,
    {
        let n = q.len();
        let m = s.len();
        if n == 0 || m == 0 {
            let out = anyseq_core::pass::score_pass::<Global, G, S>(gap, subst, q, s);
            return FpgaRun {
                score: out.score,
                last_h: out.last_h,
                stats: FpgaStats::default(),
            };
        }

        let ext = gap.extend();
        let open = gap.open();
        let kpe = self.kpe.max(1);

        // DDR-buffered boundary row (double-buffered FIFO).
        let mut h_top = init_top_h::<Global, G>(gap, m);
        let mut e_top = init_top_e::<Global, G>(gap, m);
        if !G::AFFINE {
            e_top = vec![NEG_INF; m]; // uniform stream width
        }
        let left_h = init_left_h::<Global, G>(gap, n, gap.open());

        let mut stats = FpgaStats::default();
        let mut h_bot = vec![0 as Score; m + 1];
        let mut e_bot = vec![NEG_INF; m];

        // Per-PE registers.
        let mut own_h = vec![0 as Score; kpe]; // H(row, last col emitted)
        let mut own_h_prev = vec![0 as Score; kpe]; // 1-cycle delayed
        let mut own_e = vec![NEG_INF; kpe];
        let mut own_f = vec![NEG_INF; kpe];

        let mut r0 = 0usize;
        while r0 < n {
            let sh = kpe.min(n - r0);
            stats.stripes += 1;

            // Load phase: PE r latches its query char and column −1 state.
            for r in 0..sh {
                own_h[r] = left_h[r0 + r];
                own_f[r] = NEG_INF;
                own_e[r] = NEG_INF;
                own_h_prev[r] = 0;
            }
            let mut diag0 = h_top[0];

            // Streaming phase: cycle t pushes subject char t into PE 0;
            // PE r processes column t − r.
            let cycles = sh + m - 1;
            for t in 0..cycles {
                let r_lo = t.saturating_sub(m - 1);
                let r_hi = t.min(sh - 1);
                for r in (r_lo..=r_hi).rev() {
                    let c = t - r;
                    let row = r0 + r;
                    let (up_h, diag_h, up_e) = if r == 0 {
                        (h_top[c + 1], diag0, e_top[c])
                    } else {
                        (own_h[r - 1], own_h_prev[r - 1], own_e[r - 1])
                    };
                    let e = if G::AFFINE {
                        (up_e + ext).max(up_h + open + ext)
                    } else {
                        up_h + ext
                    };
                    let f = if G::AFFINE {
                        (own_f[r] + ext).max(own_h[r] + open + ext)
                    } else {
                        own_h[r] + ext
                    };
                    let mut h = diag_h + subst.score(q[row], s[c]);
                    if e > h {
                        h = e;
                    }
                    if f > h {
                        h = f;
                    }
                    own_h_prev[r] = own_h[r];
                    own_h[r] = h;
                    own_e[r] = e;
                    own_f[r] = f;
                    if r == sh - 1 {
                        h_bot[c + 1] = h;
                        e_bot[c] = e;
                    }
                }
                if r_lo == 0 {
                    diag0 = h_top[t + 1];
                }
            }
            stats.cells += (sh * m) as u64;

            // Stripe timing: the array needs `cycles` clocks; the DDR
            // component streams the boundary row (H + E, 8 B per column,
            // both directions) concurrently — the slower one binds.
            let ddr_bytes = (2 * m * 8) as u64;
            stats.ddr_bytes += ddr_bytes;
            let ddr_cycles = (ddr_bytes as f64 / self.ddr_bytes_per_cycle).ceil() as u64;
            stats.cycles += (cycles as u64).max(ddr_cycles) + kpe as u64; // + fill

            // FIFO turnaround: bottom row becomes the next stripe's top.
            h_bot[0] = left_h[r0 + sh - 1];
            std::mem::swap(&mut h_top, &mut h_bot);
            std::mem::swap(&mut e_top, &mut e_bot);
            r0 += sh;
        }

        FpgaRun {
            score: h_top[m],
            last_h: h_top.clone(),
            stats,
        }
    }

    /// Modeled seconds for a stats record.
    pub fn seconds(&self, stats: &FpgaStats) -> f64 {
        stats.cycles as f64 / self.clock_hz
    }

    /// Modeled GCUPS.
    pub fn gcups(&self, stats: &FpgaStats) -> f64 {
        let t = self.seconds(stats);
        if t <= 0.0 {
            0.0
        } else {
            stats.cells as f64 / t / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyseq_core::prelude::{affine, global, linear, simple};
    use anyseq_seq::genome::GenomeSim;

    #[test]
    fn systolic_score_bit_exact_linear() {
        let mut sim = GenomeSim::new(61);
        let q = sim.generate(700);
        let s = sim.mutate(&q, 0.08);
        let scheme = global(linear(simple(2, -1), -1));
        for kpe in [1, 7, 64, 128, 1024] {
            let arr = SystolicArray::zcu104(kpe);
            let run = arr.score(scheme.gap(), scheme.subst(), &q, &s);
            assert_eq!(run.score, scheme.score(&q, &s), "kpe={kpe}");
        }
    }

    #[test]
    fn systolic_score_bit_exact_affine() {
        let mut sim = GenomeSim::new(67);
        let q = sim.generate(900);
        let s = sim.mutate(&q, 0.12);
        let scheme = global(affine(simple(2, -1), -2, -1));
        for kpe in [3, 128, 200] {
            let arr = SystolicArray::zcu104(kpe);
            let run = arr.score(scheme.gap(), scheme.subst(), &q, &s);
            assert_eq!(run.score, scheme.score(&q, &s), "kpe={kpe}");
        }
    }

    #[test]
    fn last_row_matches_scalar() {
        let mut sim = GenomeSim::new(71);
        let q = sim.generate(333);
        let s = sim.generate(444);
        let gap = anyseq_core::scoring::AffineGap {
            open: -3,
            extend: -1,
        };
        let subst = simple(2, -1);
        let arr = SystolicArray::zcu104(64);
        // q loads the PEs (shorter).
        let run = arr.score_codes(&gap, &subst, q.codes(), s.codes());
        let cpu = anyseq_core::pass::score_pass::<Global, _, _>(&gap, &subst, q.codes(), s.codes());
        assert_eq!(run.last_h, cpu.last_h);
    }

    #[test]
    fn gap_scheme_does_not_change_cycles() {
        // Paper §V: "The runtime is not affected by the gap penalty
        // scheme as the computation happens in a single clock-cycle".
        let mut sim = GenomeSim::new(73);
        let q = sim.generate(2000);
        let s = sim.mutate(&q, 0.05);
        let arr = SystolicArray::zcu104(128);
        let lin = arr.score(
            &anyseq_core::scoring::LinearGap { gap: -1 },
            &simple(2, -1),
            &q,
            &s,
        );
        let aff = arr.score(
            &anyseq_core::scoring::AffineGap {
                open: -2,
                extend: -1,
            },
            &simple(2, -1),
            &q,
            &s,
        );
        assert_eq!(lin.stats.cycles, aff.stats.cycles);
        assert_eq!(lin.stats.ddr_bytes, aff.stats.ddr_bytes);
    }

    #[test]
    fn steady_state_gcups_near_kpe_times_clock() {
        let mut sim = GenomeSim::new(79);
        let q = sim.generate(4096);
        let s = sim.generate(100_000);
        let arr = SystolicArray::zcu104(128);
        let run = arr.score(
            &anyseq_core::scoring::LinearGap { gap: -1 },
            &simple(2, -1),
            &q,
            &s,
        );
        let gcups = arr.gcups(&run.stats);
        let peak = arr.kpe as f64 * arr.clock_hz / 1e9; // 24 GCUPS
        assert!(
            gcups > 0.6 * peak && gcups <= peak,
            "modeled {gcups:.2} GCUPS vs peak {peak:.2}"
        );
    }

    #[test]
    fn empty_inputs_degenerate() {
        let arr = SystolicArray::zcu104(16);
        let gap = anyseq_core::scoring::LinearGap { gap: -2 };
        let q = Seq::new();
        let s = Seq::from_ascii(b"ACGT").unwrap();
        let run = arr.score(&gap, &simple(2, -1), &q, &s);
        assert_eq!(run.score, -8);
        assert_eq!(run.stats.cells, 0);
    }
}
