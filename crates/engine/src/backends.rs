//! [`Engine`] adapters over the workspace's execution substrates.
//!
//! | backend     | scores | alignments | kinds             | shape                         |
//! |-------------|--------|------------|-------------------|-------------------------------|
//! | `scalar`    | ✓      | ✓          | all four          | per-pair scalar kernels       |
//! | `simd`      | ✓      | ✓          | global/semi/local | one alignment per 16-bit lane |
//! | `wavefront` | ✓      | ✓          | all four          | tiled intra-pair parallelism  |
//!
//! Every adapter reduces to the same monomorphized kernels the typed
//! API uses ([`with_scheme!`](crate::with_scheme) bridges the runtime
//! [`SchemeSpec`] to them), so results stay bit-identical across
//! backends.

use crate::engine::{Caps, Engine, EngineError, ALL_KINDS, SIMD_KINDS};
use crate::spec::{GapSpec, SchemeSpec};
use crate::with_scheme;
use anyseq_core::score::Score;
use anyseq_core::Alignment;
use anyseq_obs::Stage;
use anyseq_seq::PairRef;
use anyseq_simd::{align_batch_simd, score_batch_simd_xdrop, BandCfg, LaneTiles, TraceStats};
use anyseq_wavefront::{borders::BorderStore, ParallelCfg, TileGrid, TiledPass};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------- scalar

/// The reference backend: per-pair scalar kernels from `anyseq-core`,
/// mapped over a unit's pairs in order on the calling thread — the
/// scheduler's pool is its parallelism. Supports everything; never
/// refuses — the dispatch layer's fallback of last resort.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarEngine;

impl Engine for ScalarEngine {
    fn caps(&self) -> Caps {
        Caps {
            name: "scalar",
            score_kinds: ALL_KINDS,
            align_kinds: ALL_KINDS,
            batch_native: true,
        }
    }

    fn score_batch(
        &self,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        _threads: usize,
    ) -> Result<Vec<Score>, EngineError> {
        Ok(with_scheme!(spec, |scheme, _K| {
            anyseq_obs::span(Stage::Kernel, || {
                pairs.iter().map(|p| scheme.score_codes(p.q, p.s)).collect()
            })
        }))
    }

    fn align_batch(
        &self,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        _threads: usize,
    ) -> Result<Vec<Alignment>, EngineError> {
        Ok(with_scheme!(spec, |scheme, _K| {
            anyseq_obs::span(Stage::Traceback, || {
                pairs.iter().map(|p| scheme.align_codes(p.q, p.s)).collect()
            })
        }))
    }
}

// ------------------------------------------------------------------ simd

/// Lanes per vector block (16-bit scores): one 256-bit register on the
/// AVX2 tier, two 128-bit ones on baseline — `anyseq_simd` picks the
/// tier at run time, the lane count is the same on both.
pub const SIMD_LANES: usize = 16;

/// Inter-sequence SIMD batching: one whole alignment per vector lane,
/// in the lane groups `anyseq_simd::LaneGroups` cuts. Scores
/// *and* banded-traceback alignments for global, semi-global and local
/// specs (`FreeEnd` is the one refusal); oversized pairs and band
/// overflows take the internal scalar fallback, so acceptance is still
/// unconditional for supported kinds.
///
/// Band telemetry from the traceback path accumulates in internal
/// atomic counters, drained by the scheduler into
/// `BatchStats::counters` after every unit.
#[derive(Debug, Default)]
pub struct SimdEngine {
    /// X-drop threshold for the score path: lanes whose row maximum
    /// falls more than this below the running best retire early.
    /// `0` (the default) disables early termination and keeps scores
    /// bit-exact; ignored for global specs and the align path, which
    /// are always exact.
    pub xdrop: i32,
    counters: SimdCounters,
}

/// Drainable telemetry for [`SimdEngine`]: one cell per counter of
/// [`anyseq_simd::TraceStats`] (the per-run struct these sum), in
/// [`SIMD_COUNTERS`] order.
#[derive(Debug, Default)]
struct SimdCounters([AtomicU64; 8]);

/// The names [`SimdCounters`] drain under.
const SIMD_COUNTERS: [&str; 8] = [
    "simd.lane_pairs",
    "simd.scalar_pairs",
    "simd.band_overflows",
    "simd.proof_failures",
    "simd.band_cells",
    "simd.bytes_copied",
    "simd.xdrop_retired",
    "simd.pad_cells",
];

impl SimdCounters {
    fn add(&self, t: &TraceStats) {
        let values = [
            t.lane_pairs,
            t.scalar_pairs,
            t.band_overflows,
            t.proof_failures,
            t.band_cells,
            t.bytes_copied,
            t.xdrop_retired,
            t.pad_cells,
        ];
        for (cell, value) in self.0.iter().zip(values) {
            cell.fetch_add(value, Ordering::Relaxed);
        }
    }
}

impl SimdEngine {
    /// Same engine with an X-drop threshold for the score path
    /// (clamped to ≥ 1; use the default engine for the exact path).
    pub fn with_xdrop(mut self, xdrop: i32) -> SimdEngine {
        self.xdrop = xdrop.max(1);
        self
    }
}

impl Engine for SimdEngine {
    fn caps(&self) -> Caps {
        Caps {
            name: "simd",
            score_kinds: SIMD_KINDS,
            align_kinds: SIMD_KINDS,
            batch_native: true,
        }
    }

    fn score_batch(
        &self,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        threads: usize,
    ) -> Result<Vec<Score>, EngineError> {
        with_scheme!(
            spec,
            [Global, SemiGlobal, Local],
            |scheme, _K| {
                let (scores, trace) = score_batch_simd_xdrop::<_, _, _, SIMD_LANES>(
                    &scheme, pairs, threads, self.xdrop,
                );
                // Full telemetry: lane/scalar split, transpose bytes and
                // X-drop retirements (band fields are zero on the score
                // path and filtered out by drain_counters).
                self.counters.add(&trace);
                Ok(scores)
            },
            else {
                Err(EngineError::unsupported(
                    "simd",
                    format!(
                        "the striped kernel covers global/semiglobal/local; kind {} needs \
                         another backend",
                        spec.kind.name()
                    ),
                ))
            }
        )
    }

    fn align_batch(
        &self,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        threads: usize,
    ) -> Result<Vec<Alignment>, EngineError> {
        with_scheme!(
            spec,
            [Global, SemiGlobal, Local],
            |scheme, _K| {
                // X-drop never applies here: tracebacks stay exact.
                let (alns, trace) =
                    align_batch_simd::<_, _, _, SIMD_LANES>(
                    &scheme,
                    pairs,
                    threads,
                    BandCfg::default(),
                );
                self.counters.add(&trace);
                Ok(alns)
            },
            else {
                Err(EngineError::unsupported(
                    "simd",
                    format!(
                        "the banded lane traceback covers global/semiglobal/local; kind {} \
                         needs another backend",
                        spec.kind.name()
                    ),
                ))
            }
        )
    }

    fn drain_counters(&self) -> Vec<(&'static str, u64)> {
        SIMD_COUNTERS
            .into_iter()
            .zip(&self.counters.0)
            .filter_map(|(name, cell)| {
                let v = cell.swap(0, Ordering::Relaxed);
                (v != 0).then_some((name, v))
            })
            .collect()
    }
}

// ------------------------------------------------------------- wavefront

/// Tiled wavefront backend: parallelism *inside* each pair (dynamic
/// tile queue, ready tiles filling [`SIMD_LANES`] vector lanes), pairs
/// processed one after another. The right shape for batches of few,
/// huge pairs — the scheduler runs it exclusively with the whole
/// thread budget instead of sharding it into the pool.
///
/// Telemetry: `wavefront.pairs` (pairs executed),
/// `wavefront.lane_tiles` / `wavefront.scalar_tiles` (tiles relaxed on
/// vector lanes / by the scalar tile kernel — which kernel ran),
/// `wavefront.shards` (subject slabs run by passes the shard budget
/// cut — every pass of an alignment over the budget counts its own),
/// `wavefront.border_bytes` (boundary-stripe bytes the tiled passes
/// kept resident, summed over pairs — the O(n + m) working set that
/// replaces an O(n·m) matrix), `wavefront.peak_shard_mb` (high
/// water mark of the resident border + seam working set of sharded
/// executions, in MiB — the number the shard budget bounds),
/// `wavefront.trace_tiles` (path blocks traceback walks recomputed
/// through kept tile lines) and `wavefront.peak_trace_mb` (high water
/// mark of one pass's kept lines, in MiB — the number the line budget
/// of `anyseq_core::traceback::spacing` bounds). Drained by the
/// scheduler after each unit like the SIMD band counters.
#[derive(Debug, Default)]
pub struct WavefrontEngine {
    /// Shard budget in DP cells: pairs larger than this run their
    /// tiled passes (including every pass of an alignment) as a chain
    /// of subject slabs with seam hand-off. A score keeps one slab's
    /// borders resident; an alignment's pass keeps one slab plus the
    /// `O(m)` last rows it returns and its kept lines. 0 disables
    /// sharding.
    pub shard_cells: u64,
    /// Per-unit DP-cell refusal bound; `None` = unbounded.
    pub max_unit_cells: Option<u64>,
    pairs: AtomicU64,
    lane_tiles: AtomicU64,
    scalar_tiles: AtomicU64,
    shards: AtomicU64,
    border_bytes: AtomicU64,
    peak_shard_bytes: AtomicU64,
    trace_tiles: AtomicU64,
    peak_trace_bytes: AtomicU64,
}

/// The engine's instantiation of the tiled pass: the lane kernel.
type LanePass = TiledPass<LaneTiles<SIMD_LANES>>;

/// Tile edge of the DP grid, and so the spacing of the lines a
/// traceback within the line budget keeps, chosen from a measured
/// curve: one 9 kbp pair at 2 % divergence, global affine (2, −1, −2, −1), `LanePass` at one
/// thread on a 2-vCPU AVX2 host; ranges are the medians of three
/// interleaved runs of 5–11 reps each.
///
/// | tile edge | 128 | 192 | 256 | 384 | 512 |
/// |---|---|---|---|---|---|
/// | score ms | 21.8–26.2 | 24.6–28.9 | **19.2–23.7** | 25.8–39.8 | 34.5–40.8 |
/// | align ms | 35.2–42.1 | 33.9–42.4 | **29.9–36.7** | 39.8–56.8 | 52.6–60.4 |
/// | lane / scalar tiles | 4898 / 143 | 2114 / 95 | 1223 / 73 | 527 / 49 | 287 / 37 |
/// | path blocks / kept lines | 139 / 9.6 MiB | 92 / 6.3 MiB | 70 / 4.8 MiB | 46 / 3.2 MiB | 34 / 2.3 MiB |
///
/// Smaller tiles leave fewer cells on ragged scalar edge tiles and
/// shrink the path blocks the walk recomputes (`(n + m) · tile` cells),
/// but cost more border traffic and more kept lines (`∝ n·m / tile`);
/// 256 is the minimum of both the score and the align.
pub(crate) const TILE: usize = 256;

impl WavefrontEngine {
    /// Same engine with a shard budget (0 disables sharding).
    pub fn with_shard_cells(mut self, cells: u64) -> WavefrontEngine {
        self.shard_cells = cells;
        self
    }

    /// Same engine with a hard per-unit cell bound: a pair whose
    /// resident unit is bigger is refused with the terminal
    /// [`EngineError::UnitTooLarge`] instead of risking an OOM kill.
    pub fn with_max_unit_cells(mut self, cells: u64) -> WavefrontEngine {
        self.max_unit_cells = Some(cells);
        self
    }

    /// Width (in subject columns) of one slab under the shard plan.
    fn slab_width(&self, q: usize, s: usize) -> usize {
        ((self.shard_cells / q.max(1) as u64).max(1) as usize).min(s)
    }

    /// Checks one pair against the per-unit bound: the resident unit
    /// is the whole matrix, or one slab when the shard plan applies.
    fn check_unit(&self, q: usize, s: usize) -> Result<(), EngineError> {
        let Some(max) = self.max_unit_cells else {
            return Ok(());
        };
        let cells = q as u64 * s as u64;
        if cells <= max {
            return Ok(());
        }
        if self.shard_cells > 0 && q > 0 && s > 1 {
            let slab = q as u64 * self.slab_width(q, s) as u64;
            if slab <= max {
                return Ok(());
            }
        }
        Err(EngineError::unit_too_large("wavefront", cells, max))
    }

    /// Accounts one executed pair's boundary working set: the border
    /// stripes of its grid — one slab's when the shard plan applies,
    /// which also keeps its incoming and outgoing seam frontiers (H + F
    /// rows) resident and raises the shard peak.
    fn record_pair(&self, q: usize, s: usize, affine: bool) {
        self.pairs.fetch_add(1, Ordering::Relaxed);
        if q == 0 || s == 0 {
            return;
        }
        let sharded = self.shard_cells > 0 && q as u64 * s as u64 > self.shard_cells && s > 1;
        let width = if sharded { self.slab_width(q, s) } else { s };
        let seams = if sharded {
            2 * 2 * q * std::mem::size_of::<Score>()
        } else {
            0
        };
        let grid = TileGrid::new(q, width, TILE);
        let bytes = (BorderStore::estimated_bytes(&grid, affine) + seams) as u64;
        self.border_bytes.fetch_add(bytes, Ordering::Relaxed);
        if sharded {
            self.peak_shard_bytes.fetch_max(bytes, Ordering::Relaxed);
        }
    }

    /// What score and align batches share: the per-unit bound, one
    /// pass for the whole call, `one` per pair, and the accounting.
    fn run_pairs<T>(
        &self,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        threads: usize,
        one: impl Fn(&LanePass, PairRef<'_>) -> T,
    ) -> Result<Vec<T>, EngineError> {
        for p in pairs {
            self.check_unit(p.q.len(), p.s.len())?;
        }
        let cfg = ParallelCfg::threads(threads).with_tile(TILE);
        let pass = LanePass::new(cfg.with_shard_cells(self.shard_cells));
        let affine = matches!(spec.gap, GapSpec::Affine { .. });
        let map = pairs.iter().map(|&p| {
            self.record_pair(p.q.len(), p.s.len(), affine);
            one(&pass, p)
        });
        let out = map.collect();
        let (lane, scalar) = pass.tile_counts();
        self.lane_tiles.fetch_add(lane, Ordering::Relaxed);
        self.scalar_tiles.fetch_add(scalar, Ordering::Relaxed);
        self.shards.fetch_add(pass.shard_count(), Ordering::Relaxed);
        let (traced, line_bytes) = pass.trace_counts();
        self.trace_tiles.fetch_add(traced, Ordering::Relaxed);
        self.peak_trace_bytes
            .fetch_max(line_bytes, Ordering::Relaxed);
        Ok(out)
    }
}

impl Engine for WavefrontEngine {
    fn caps(&self) -> Caps {
        Caps {
            name: "wavefront",
            score_kinds: ALL_KINDS,
            align_kinds: ALL_KINDS,
            batch_native: false,
        }
    }

    fn score_batch(
        &self,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        threads: usize,
    ) -> Result<Vec<Score>, EngineError> {
        self.run_pairs(spec, pairs, threads, |pass, p| {
            anyseq_obs::span(Stage::Kernel, || {
                with_scheme!(spec, |scheme, _K| { pass.score(&scheme, p.q, p.s) })
            })
        })
    }

    fn align_batch(
        &self,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        threads: usize,
    ) -> Result<Vec<Alignment>, EngineError> {
        self.run_pairs(spec, pairs, threads, |pass, p| {
            anyseq_obs::span(Stage::Traceback, || {
                with_scheme!(spec, |scheme, _K| { pass.align(&scheme, p.q, p.s) })
            })
        })
    }

    fn drain_counters(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = [
            ("wavefront.pairs", &self.pairs),
            ("wavefront.lane_tiles", &self.lane_tiles),
            ("wavefront.scalar_tiles", &self.scalar_tiles),
            ("wavefront.shards", &self.shards),
            ("wavefront.border_bytes", &self.border_bytes),
            ("wavefront.trace_tiles", &self.trace_tiles),
        ]
        .into_iter()
        .filter_map(|(name, cell)| {
            let v = cell.swap(0, Ordering::Relaxed);
            (v != 0).then_some((name, v))
        })
        .collect();
        for (name, cell) in [
            ("wavefront.peak_shard_mb", &self.peak_shard_bytes),
            ("wavefront.peak_trace_mb", &self.peak_trace_bytes),
        ] {
            let peak = cell.swap(0, Ordering::Relaxed);
            if peak != 0 {
                // Reported in MiB (rounded up) — `.peak_` counters merge
                // by maximum in `BatchStats`, not by sum.
                out.push((name, peak.div_ceil(1 << 20)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::KindSpec;
    use anyseq_seq::testsupport::read_pairs;
    use anyseq_seq::{BatchView, Seq};

    #[test]
    fn all_backends_score_identically_global() {
        let pairs = read_pairs(60, 3);
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let expected: Vec<Score> = pairs.iter().map(|(q, s)| spec.score_scalar(q, s)).collect();
        let backends: Vec<Box<dyn Engine>> = vec![
            Box::new(ScalarEngine),
            Box::new(SimdEngine::default()),
            Box::new(WavefrontEngine::default()),
        ];
        for engine in &backends {
            let got = engine.score_batch(&spec, view.refs(), 4).unwrap();
            assert_eq!(got, expected, "{}", engine.caps().name);
        }
    }

    #[test]
    fn align_backends_match_scalar_ops() {
        let pairs = read_pairs(12, 5);
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);
        let reference = ScalarEngine.align_batch(&spec, view.refs(), 1).unwrap();
        let got = WavefrontEngine::default()
            .align_batch(&spec, view.refs(), 4)
            .unwrap();
        for (k, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(a.score, b.score, "wavefront pair {k}");
            assert_eq!(a.ops, b.ops, "wavefront pair {k}");
        }
    }

    #[test]
    fn simd_alignments_carry_exact_scores_and_replay() {
        use anyseq_core::kind::Global;
        let pairs = read_pairs(40, 13);
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);
        let engine = SimdEngine::default();
        let got = engine.align_batch(&spec, view.refs(), 4).unwrap();
        for (k, (q, s)) in pairs.iter().enumerate() {
            let reference = spec.align_scalar(q, s);
            assert_eq!(got[k].score, reference.score, "pair {k}");
            crate::with_scheme!(&spec, |scheme, _K| {
                got[k]
                    .validate::<Global, _, _>(q, s, scheme.gap(), scheme.subst())
                    .unwrap_or_else(|e| panic!("pair {k}: {e}"));
            });
        }
        let counters = engine.drain_counters();
        assert!(
            counters
                .iter()
                .any(|&(n, v)| n == "simd.lane_pairs" && v > 0),
            "lane traceback must have run: {counters:?}"
        );
        assert!(engine.drain_counters().is_empty(), "drain resets");
    }

    #[test]
    fn wavefront_counters_drain_and_reset() {
        let pairs = read_pairs(30, 4);
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);
        let engine = WavefrontEngine::default();
        engine.score_batch(&spec, view.refs(), 2).unwrap();
        let counters = engine.drain_counters();
        assert!(
            counters
                .iter()
                .any(|&(n, v)| n == "wavefront.pairs" && v == pairs.len() as u64),
            "pair count: {counters:?}"
        );
        assert!(
            counters
                .iter()
                .any(|&(n, v)| n == "wavefront.border_bytes" && v > 0),
            "border bytes: {counters:?}"
        );
        assert!(engine.drain_counters().is_empty(), "drain resets");
    }

    #[test]
    fn wavefront_tile_counters_say_which_kernel_ran() {
        use anyseq_seq::genome::GenomeSim;
        let mut sim = GenomeSim::new(6);
        let q = sim.generate(6_144);
        let s = sim.mutate(&q, 0.05);
        // Same length as `q`: a grid of full tiles, `side × side`.
        let side = (6_144 / TILE) as u64;
        let s = Seq::from_codes(
            s.codes()
                .iter()
                .chain(q.codes())
                .take(6_144)
                .copied()
                .collect(),
        )
        .unwrap();
        let pairs = [(q, s)];
        let view = BatchView::from_pairs(&pairs);
        let tiles = |spec: &SchemeSpec| {
            let engine = WavefrontEngine::default();
            // One thread pulls ready tiles in a fixed order, so the
            // counts repeat exactly.
            let got = engine.score_batch(spec, view.refs(), 1).unwrap();
            assert_eq!(got[0], spec.score_scalar(&pairs[0].0, &pairs[0].1));
            let counters = engine.drain_counters();
            let of = |name| counters.iter().find(|c| c.0 == name).map_or(0, |c| c.1);
            (of("wavefront.lane_tiles"), of("wavefront.scalar_tiles"))
        };
        let global = SchemeSpec::global_affine(2, -1, -2, -1);
        // Whole anti-diagonals ride the lanes; the two corner tiles have
        // no partner.
        assert_eq!(tiles(&global), (side * side - 2, 2));
        // Lanes report scores, not cell positions: a kind whose optimum
        // needs one runs every tile on the scalar kernel.
        assert_eq!(tiles(&global.with_kind(KindSpec::Local)), (0, side * side));

        // A mid-size alignment: its kept-lines pass pairs equal-shape
        // tiles on lanes.
        let q = sim.generate(2_048);
        let pairs = [(q.clone(), sim.mutate(&q, 0.05))];
        let engine = WavefrontEngine::default();
        let aln = engine.align_batch(&global, BatchView::from_pairs(&pairs).refs(), 1);
        let scalar = global.align_scalar(&pairs[0].0, &pairs[0].1);
        assert_eq!(aln.unwrap(), vec![scalar], "exact score, same ops");
        let counters = engine.drain_counters();
        let lane_tiles = counters.iter().find(|c| c.0 == "wavefront.lane_tiles");
        assert!(lane_tiles.is_some_and(|c| c.1 > 0), "{counters:?}");
    }

    #[test]
    fn restricted_backends_refuse_unsupported_kinds() {
        let pairs = read_pairs(4, 7);
        let view = BatchView::from_pairs(&pairs);
        let refs = view.refs();
        let local = SchemeSpec::global_linear(2, -1, -1).with_kind(KindSpec::Local);
        // The kind-generic striped kernel covers local lanes now…
        assert!(SimdEngine::default().score_batch(&local, refs, 1).is_ok());
        assert!(SimdEngine::default().align_batch(&local, refs, 1).is_ok());
        // FreeEnd is the one kind the SIMD lanes still refuse.
        let free_end = SchemeSpec::global_linear(2, -1, -1).with_kind(KindSpec::FreeEnd);
        assert!(SimdEngine::default()
            .score_batch(&free_end, refs, 1)
            .is_err());
        assert!(SimdEngine::default()
            .align_batch(&free_end, refs, 1)
            .is_err());
        // The generic engines accept all kinds.
        assert!(ScalarEngine.score_batch(&free_end, refs, 1).is_ok());
        assert!(WavefrontEngine::default()
            .score_batch(&free_end, refs, 2)
            .is_ok());
    }

    #[test]
    fn caps_reflect_contract() {
        assert!(Caps::supports_score(
            &ScalarEngine.caps(),
            &SchemeSpec::global_linear(2, -1, -1).with_kind(KindSpec::Local)
        ));
        assert!(SimdEngine::default()
            .caps()
            .supports_align(&SchemeSpec::global_linear(2, -1, -1)));
        assert!(SimdEngine::default()
            .caps()
            .supports_align(&SchemeSpec::global_linear(2, -1, -1).with_kind(KindSpec::Local)));
        assert!(SimdEngine::default()
            .caps()
            .supports_score(&SchemeSpec::global_linear(2, -1, -1).with_kind(KindSpec::SemiGlobal)));
        assert!(!SimdEngine::default()
            .caps()
            .supports_align(&SchemeSpec::global_linear(2, -1, -1).with_kind(KindSpec::FreeEnd)));
        assert!(ScalarEngine.caps().batch_native);
        assert!(SimdEngine::default().caps().batch_native);
        assert!(!WavefrontEngine::default().caps().batch_native);
    }

    #[test]
    fn simd_nonglobal_scores_match_scalar() {
        let pairs = read_pairs(60, 9);
        let view = BatchView::from_pairs(&pairs);
        for kind in [KindSpec::SemiGlobal, KindSpec::Local] {
            let spec = SchemeSpec::global_affine(2, -3, -3, -1).with_kind(kind);
            let expected: Vec<Score> = pairs.iter().map(|(q, s)| spec.score_scalar(q, s)).collect();
            let engine = SimdEngine::default();
            let got = engine.score_batch(&spec, view.refs(), 4).unwrap();
            assert_eq!(got, expected, "{kind:?}");
            let counters = engine.drain_counters();
            assert!(
                counters
                    .iter()
                    .any(|&(n, v)| n == "simd.lane_pairs" && v > 0),
                "{kind:?}: lanes must have run: {counters:?}"
            );
            assert!(
                !counters.iter().any(|&(n, _)| n == "simd.xdrop_retired"),
                "{kind:?}: the exact path must not retire lanes: {counters:?}"
            );
        }
    }

    #[test]
    fn simd_xdrop_retires_and_counts() {
        // Prefix-divergence pairs: a matched prefix then pure mismatch,
        // so the running best flatlines and every lane crosses the
        // threshold long before the last row.
        let q = Seq::from_ascii(&[b"A".repeat(10), b"C".repeat(60)].concat()).unwrap();
        let s = Seq::from_ascii(&[b"A".repeat(10), b"G".repeat(60)].concat()).unwrap();
        let pairs: Vec<(Seq, Seq)> = (0..32).map(|_| (q.clone(), s.clone())).collect();
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_linear(2, -3, -2).with_kind(KindSpec::SemiGlobal);
        let engine = SimdEngine::default().with_xdrop(20);
        engine.score_batch(&spec, view.refs(), 1).unwrap();
        let counters = engine.drain_counters();
        assert!(
            counters
                .iter()
                .any(|&(n, v)| n == "simd.xdrop_retired" && v == 32),
            "every lane should retire: {counters:?}"
        );
        // Global requests ignore the threshold entirely.
        let engine = SimdEngine::default().with_xdrop(20);
        let got = engine
            .score_batch(&SchemeSpec::global_linear(2, -3, -2), view.refs(), 1)
            .unwrap();
        assert_eq!(
            got[0],
            spec.with_kind(KindSpec::Global).score_scalar(&q, &s)
        );
        assert!(!engine
            .drain_counters()
            .iter()
            .any(|&(n, _)| n == "simd.xdrop_retired"));
    }
}
