//! Cell-update accounting — the single definition of "cells" and GCUPS
//! shared by the engine's batch statistics and the benchmark harness
//! (`anyseq-bench` computes its `Measurement` through these functions,
//! so both layers count work identically).

use anyseq_obs::{Span, Stage};
use anyseq_seq::Seq;
use std::collections::BTreeMap;

/// Cell multiplier for traceback (Hirschberg recomputes ≈2× the cells
/// of a score-only pass — the convention the paper's Fig. 5 traceback
/// rows use). Shared so the engine's `BatchStats` and the bench
/// binaries count traceback work identically.
///
/// It is a counting convention, not a measurement: the wavefront
/// backend no longer recomputes 2×. A pair within the line budget
/// (`anyseq_core::traceback::spacing`) runs one pass that keeps its
/// tile lines, then recomputes only the blocks on the optimal path —
/// at most `(n + m) · tile` cells, 2.3M (≈ 3 % of the pass) on a 9 kbp
/// pair at 256-cell tiles (`wavefront.trace_tiles` counts them). The value
/// stays 2 so that GCUPS stay comparable with the paper's figures and
/// with earlier reports.
pub const TRACEBACK_CELL_FACTOR: u64 = 2;

/// DP cells relaxed by a score-only pass over one pair: `|q| · |s|`.
#[inline]
pub fn cells_for(q: &Seq, s: &Seq) -> u64 {
    q.len() as u64 * s.len() as u64
}

/// DP cells relaxed by score-only passes over a whole batch.
pub fn pair_cells(pairs: &[(Seq, Seq)]) -> u64 {
    pairs.iter().map(|(q, s)| cells_for(q, s)).sum()
}

/// Giga cell updates per second — the paper's throughput metric.
/// Returns 0 for degenerate timings so callers can't divide by zero.
#[inline]
pub fn gcups(cells: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        cells as f64 / seconds / 1e9
    } else {
        0.0
    }
}

/// Apportions a batch-level duration to one request by its cell share:
/// `total_ns · cells / batch_cells`, in u128 so the product cannot
/// overflow. Returns 0 when `batch_cells` is 0 (nothing to attribute).
/// This is the serving layer's attribution rule: when several requests
/// coalesce into one engine batch, each is charged kernel time in
/// proportion to the DP cells it contributed — the same work measure
/// GCUPS uses — rather than by pair count, so one long pair is not
/// charged like sixty-four short ones.
#[inline]
pub fn cell_share_ns(total_ns: u64, cells: u64, batch_cells: u64) -> u64 {
    if batch_cells == 0 {
        return 0;
    }
    ((total_ns as u128 * cells as u128) / batch_cells as u128) as u64
}

/// Work one backend performed inside a batch run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendUse {
    /// Backend name (matches `Caps::name`).
    pub backend: &'static str,
    /// Pairs this backend scored/aligned.
    pub pairs: u64,
    /// DP cells this backend relaxed.
    pub cells: u64,
    /// Summed busy time across workers (can exceed wall time).
    pub busy_seconds: f64,
}

impl BackendUse {
    /// Backend-local throughput.
    pub fn gcups(&self) -> f64 {
        gcups(self.cells, self.busy_seconds)
    }
}

/// Per-batch execution statistics reported by the scheduler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Pairs in the batch.
    pub pairs: u64,
    /// Total DP cells across the batch (score-only accounting).
    pub cells: u64,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Work units handed to the pool (chunks of routes).
    pub units: u64,
    /// Times a backend declined a unit and the next candidate ran.
    pub fallbacks: u64,
    /// Per-backend breakdown. The scheduler sorts this by backend
    /// name before returning, so the order is deterministic across
    /// runs regardless of which worker recorded first.
    pub per_backend: Vec<BackendUse>,
    /// Named backend-internal counters, drained from each engine after
    /// every unit (`Engine::drain_counters`) and summed here — e.g.
    /// the SIMD traceback's `simd.band_overflows` /
    /// `simd.band_cells` band telemetry. The `BTreeMap` keeps the
    /// report order deterministic.
    pub counters: BTreeMap<&'static str, u64>,
    /// Stage-timing spans drained from the tracer at batch end, sorted
    /// by `(worker, start_ns)`. Empty unless the dispatch was built
    /// with observability enabled (`DispatchPolicy::observe`). Their
    /// per-stage totals are also folded into `counters` as
    /// `stage.<name>_ns`, so summaries and bench reports work from the
    /// counter map alone; the raw spans feed the Chrome-trace exporter.
    pub spans: Vec<Span>,
}

impl BatchStats {
    /// Whole-batch throughput over wall time.
    pub fn gcups(&self) -> f64 {
        gcups(self.cells, self.wall_seconds)
    }

    /// Fraction of the pool's capacity that was busy: total backend
    /// busy time over `threads × wall`. 1.0 means perfect overlap.
    pub fn utilization(&self, threads: usize) -> f64 {
        let capacity = threads.max(1) as f64 * self.wall_seconds;
        if capacity > 0.0 {
            self.per_backend.iter().map(|b| b.busy_seconds).sum::<f64>() / capacity
        } else {
            0.0
        }
    }

    /// Adds `cells`/`busy` work attributed to `backend`.
    pub fn record(&mut self, backend: &'static str, pairs: u64, cells: u64, busy_seconds: f64) {
        if let Some(b) = self.per_backend.iter_mut().find(|b| b.backend == backend) {
            b.pairs += pairs;
            b.cells += cells;
            b.busy_seconds += busy_seconds;
        } else {
            self.per_backend.push(BackendUse {
                backend,
                pairs,
                cells,
                busy_seconds,
            });
        }
    }

    /// Adds a named backend-internal counter. Counters are additive,
    /// with one exception: names containing `.peak_` are high-water
    /// marks and combine by maximum — summing peak memory across
    /// drains or workers would report a working set nothing ever held.
    pub fn record_counter(&mut self, name: &'static str, value: u64) {
        let slot = self.counters.entry(name).or_insert(0);
        if name.contains(".peak_") {
            *slot = (*slot).max(value);
        } else {
            *slot += value;
        }
    }

    /// Wall nanoseconds this batch spent in `stage`, read from the
    /// `stage.<name>_ns` counter the scheduler folds span durations
    /// into. 0 when the batch ran without observability or never
    /// entered the stage.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.counters.get(stage.counter_key()).copied().unwrap_or(0)
    }

    /// Total sequence bytes copied below the batch view this run — the
    /// sum of every `<source>.bytes_copied` counter (the scheduler's
    /// gather tripwire plus substrate-required copies such as the SIMD
    /// lane transpose), plus a bare un-prefixed `bytes_copied` if a
    /// foreign `Engine` reports one without a source prefix (prefixed
    /// names are still the convention — the bare form is matched so
    /// such copies are never silently dropped from the total). The
    /// single definition of the counter-name convention; benches and
    /// tests read copies through this.
    pub fn bytes_copied(&self) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| **name == "bytes_copied" || name.ends_with(".bytes_copied"))
            .map(|(_, &v)| v)
            .sum()
    }

    /// The metrics registry's per-batch totals, `(family, value)`: what
    /// this batch adds to each.
    pub(crate) fn registry_totals(&self) -> [(&'static str, u64); 5] {
        let counter = |name| self.counters.get(name).copied().unwrap_or(0);
        [
            ("anyseq_batches_total", 1),
            ("anyseq_batch_pairs_total", self.pairs),
            ("anyseq_batch_cells_total", self.cells),
            ("anyseq_batch_fallbacks_total", self.fallbacks),
            ("anyseq_batch_shards_total", counter("wavefront.shards")),
        ]
    }

    /// Merges another accumulator. Every field is additive: worker
    /// locals carry zeros for the batch-level fields (`pairs`, `cells`,
    /// `units`, `wall_seconds`), so merging them is a no-op
    /// there, while merging two *complete* batch stats (e.g. a serving
    /// layer aggregating sequential batches) sums the real totals.
    /// `wall_seconds` is summed too — correct for sequential batches,
    /// an overcount for concurrent ones (utilization/GCUPS of a merged
    /// concurrent aggregate are not meaningful).
    pub fn merge(&mut self, other: &BatchStats) {
        self.pairs += other.pairs;
        self.cells += other.cells;
        self.wall_seconds += other.wall_seconds;
        self.units += other.units;
        self.fallbacks += other.fallbacks;
        for b in &other.per_backend {
            self.record(b.backend, b.pairs, b.cells, b.busy_seconds);
        }
        for (&name, &value) in &other.counters {
            self.record_counter(name, value);
        }
        self.spans.extend_from_slice(&other.spans);
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} pairs, {} units, {:.3}s wall, {:.2} GCUPS",
            self.pairs,
            self.units,
            self.wall_seconds,
            self.gcups()
        );
        for b in &self.per_backend {
            line.push_str(&format!(
                "; {}: {} pairs {:.2} GCUPS",
                b.backend,
                b.pairs,
                b.gcups()
            ));
        }
        if self.fallbacks > 0 {
            line.push_str(&format!("; {} fallbacks", self.fallbacks));
        }
        for (name, value) in &self.counters {
            line.push_str(&format!("; {name}={value}"));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_accounting() {
        let q = Seq::from_ascii(b"ACGT").unwrap();
        let s = Seq::from_ascii(b"ACGTAC").unwrap();
        assert_eq!(cells_for(&q, &s), 24);
        assert_eq!(pair_cells(&[(q.clone(), s.clone()), (s, q)]), 48);
    }

    #[test]
    fn gcups_guards_division() {
        assert_eq!(gcups(1_000_000_000, 1.0), 1.0);
        assert_eq!(gcups(1, 0.0), 0.0);
    }

    #[test]
    fn record_and_merge_accumulate() {
        let mut a = BatchStats::default();
        a.record("simd", 10, 1000, 0.5);
        a.record("simd", 5, 500, 0.25);
        let mut b = BatchStats {
            fallbacks: 2,
            ..BatchStats::default()
        };
        b.record("scalar", 1, 100, 0.1);
        b.record_counter("simd.band_overflows", 3);
        a.record_counter("simd.band_overflows", 1);
        a.merge(&b);
        assert_eq!(a.per_backend.len(), 2);
        assert_eq!(a.per_backend[0].pairs, 15);
        assert_eq!(a.fallbacks, 2);
        assert_eq!(a.counters["simd.band_overflows"], 4);
        assert!(a.summary().contains("fallbacks"));
        assert!(a.summary().contains("simd.band_overflows=4"));
    }

    #[test]
    fn merge_accumulates_every_field() {
        // Regression: merge used to accumulate only fallbacks,
        // per_backend, and counters — pairs/cells/units (and
        // wall) were silently dropped, so aggregating complete batch
        // stats undercounted work.
        let mut a = BatchStats {
            pairs: 10,
            cells: 1_000,
            wall_seconds: 0.5,
            units: 3,
            fallbacks: 1,
            ..BatchStats::default()
        };
        let b = BatchStats {
            pairs: 4,
            cells: 500,
            wall_seconds: 0.25,
            units: 2,
            fallbacks: 0,
            ..BatchStats::default()
        };
        a.merge(&b);
        assert_eq!(a.pairs, 14);
        assert_eq!(a.cells, 1_500);
        assert_eq!(a.units, 5);
        assert_eq!(a.fallbacks, 1);
        assert!((a.wall_seconds - 0.75).abs() < 1e-12);
    }

    #[test]
    fn peak_counters_merge_by_maximum() {
        let mut a = BatchStats::default();
        a.record_counter("wavefront.peak_shard_mb", 40);
        a.record_counter("wavefront.peak_shard_mb", 25);
        assert_eq!(a.counters["wavefront.peak_shard_mb"], 40);
        let mut b = BatchStats::default();
        b.record_counter("wavefront.peak_shard_mb", 60);
        b.record_counter("wavefront.shards", 3);
        a.record_counter("wavefront.shards", 2);
        a.merge(&b);
        assert_eq!(a.counters["wavefront.peak_shard_mb"], 60);
        assert_eq!(
            a.counters["wavefront.shards"], 5,
            "plain counters still sum"
        );
    }

    #[test]
    fn bytes_copied_sums_the_convention() {
        let mut s = BatchStats::default();
        assert_eq!(s.bytes_copied(), 0);
        s.record_counter("sched.bytes_copied", 0);
        s.record_counter("simd.bytes_copied", 640);
        s.record_counter("simd.band_cells", 999);
        assert_eq!(s.bytes_copied(), 640);
    }

    #[test]
    fn bytes_copied_counts_bare_unprefixed_counters() {
        // Regression: a foreign Engine reporting a bare `bytes_copied`
        // (no `<source>.` prefix) used to be silently dropped from the
        // total — copies must never disappear from the accounting.
        let mut s = BatchStats::default();
        s.record_counter("bytes_copied", 128);
        assert_eq!(s.bytes_copied(), 128);
        s.record_counter("simd.bytes_copied", 64);
        assert_eq!(s.bytes_copied(), 192);
        // Names that merely *contain* the suffix words don't count.
        s.record_counter("cache.ingest_bytes", 999);
        s.record_counter("not_bytes_copied_total", 7);
        assert_eq!(s.bytes_copied(), 192);
    }

    #[test]
    fn cell_share_apportions_exactly_and_never_overflows() {
        assert_eq!(cell_share_ns(1_000, 0, 0), 0);
        assert_eq!(cell_share_ns(1_000, 250, 1_000), 250);
        assert_eq!(cell_share_ns(1_000, 1_000, 1_000), 1_000);
        // Shares across a batch sum to at most the total (floor division).
        let total = 999u64;
        let cells = [3u64, 5, 7];
        let batch: u64 = cells.iter().sum();
        let sum: u64 = cells.iter().map(|&c| cell_share_ns(total, c, batch)).sum();
        assert!(sum <= total && sum >= total - cells.len() as u64);
        // Giant inputs would overflow u64 multiplication; u128 holds.
        assert_eq!(
            cell_share_ns(u64::MAX, u64::MAX / 2, u64::MAX),
            u64::MAX / 2
        );
    }

    #[test]
    fn stage_ns_reads_the_folded_counter() {
        let mut s = BatchStats::default();
        assert_eq!(s.stage_ns(Stage::Kernel), 0);
        s.record_counter(Stage::Kernel.counter_key(), 1_234);
        s.record_counter(Stage::Kernel.counter_key(), 766);
        assert_eq!(s.stage_ns(Stage::Kernel), 2_000);
        assert_eq!(s.stage_ns(Stage::Merge), 0);
    }

    #[test]
    fn utilization_bounded() {
        let mut s = BatchStats {
            wall_seconds: 1.0,
            ..Default::default()
        };
        s.record("scalar", 1, 1, 4.0);
        assert!((s.utilization(4) - 1.0).abs() < 1e-9);
    }
}
