//! Backend selection policy.
//!
//! A [`Dispatch`] owns the registered engines and decides, per length
//! bin, which backend should run it — either a fixed user choice or
//! the `Auto` heuristic (SIMD lanes for short-read-shaped global,
//! semi-global and local bins, the wavefront for huge pairs, scalar
//! otherwise). Selection returns
//! a *candidate chain* ending in the scalar engine, so a backend that
//! refuses a unit (unsupported kind, score-only, …) degrades
//! gracefully instead of failing the batch.

use crate::backends::{ScalarEngine, SimdEngine, WavefrontEngine};
use crate::cache::ResultCache;
use crate::engine::Engine;
use crate::spec::SchemeSpec;
use anyseq_obs::{MetricsRegistry, MetricsSnapshot};

/// Stable identifiers for the built-in backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendId {
    /// Per-pair scalar kernels (reference; always available).
    Scalar,
    /// Inter-sequence SIMD lanes (scores + banded traceback;
    /// global, semi-global and local).
    Simd,
    /// Tiled wavefront (intra-pair threading).
    Wavefront,
}

impl BackendId {
    /// Stable lower-case name (CLI flag values, stats labels).
    pub fn name(self) -> &'static str {
        match self {
            BackendId::Scalar => "scalar",
            BackendId::Simd => "simd",
            BackendId::Wavefront => "wavefront",
        }
    }

    /// The `BatchStats` counter bumped when this backend declines a
    /// unit and the chain moves on (`dispatch.declined.<backend>`).
    pub fn declined_counter(self) -> &'static str {
        match self {
            BackendId::Scalar => "dispatch.declined.scalar",
            BackendId::Simd => "dispatch.declined.simd",
            BackendId::Wavefront => "dispatch.declined.wavefront",
        }
    }

    /// Parses a CLI-style name.
    pub fn parse(text: &str) -> Option<BackendId> {
        match text {
            "scalar" => Some(BackendId::Scalar),
            "simd" => Some(BackendId::Simd),
            "wavefront" => Some(BackendId::Wavefront),
            _ => None,
        }
    }
}

/// How the scheduler picks a backend for each bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Heuristic per-bin choice (see [`Dispatch::candidates`]).
    Auto,
    /// Route everything to one backend (scalar fallback still applies
    /// when it refuses).
    Fixed(BackendId),
}

/// Per-pair DP size (cells) at and above which `Auto` prefers
/// intra-pair wavefront parallelism over lane batching: ~2048², the
/// scale where the tile queue saturates a pool while lane packing
/// stops helping.
pub const AUTO_WAVEFRONT_MIN_CELLS: u64 = 1 << 22;

/// Smallest meaningful shard budget: one default 512×512 wavefront
/// tile. A smaller budget would cut slabs thinner than a single tile,
/// all scheduling overhead and no memory win, so
/// [`DispatchPolicy::shard_cells`] clamps nonzero requests up to this.
pub const MIN_SHARD_CELLS: u64 = 1 << 18;

/// Builder for a [`Dispatch`]: selection policy plus the tuning knobs
/// the `Auto` heuristic consults.
///
/// ```
/// use anyseq_engine::{BackendId, DispatchPolicy, SchemeSpec};
///
/// // `Auto` with an 8 MiB result cache: pairs below ~2048² cells ride
/// // the SIMD lanes, larger ones the wavefront.
/// let dispatch = DispatchPolicy::auto().cache_mb(8).standard();
/// let spec = SchemeSpec::global_linear(2, -1, -1);
/// assert_eq!(dispatch.candidates(&spec, 1 << 22, false)[0], BackendId::Wavefront);
/// assert_eq!(dispatch.candidates(&spec, 1 << 21, false)[0], BackendId::Simd);
/// assert!(dispatch.cache().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchPolicy {
    /// Selection policy the built dispatch applies per bin.
    pub policy: Policy,
    /// MiB; 0 disables caching (the default).
    cache_mb: usize,
    /// 0 (the default) keeps every path bit-exact.
    xdrop: i32,
    observe: bool,
    /// DP cells; 0 (the default) disables sharding, anything else is
    /// ≥ [`MIN_SHARD_CELLS`].
    shard_cells: u64,
}

impl Default for DispatchPolicy {
    fn default() -> DispatchPolicy {
        DispatchPolicy::auto()
    }
}

impl DispatchPolicy {
    /// The `Auto` heuristic with default tuning.
    pub fn auto() -> DispatchPolicy {
        DispatchPolicy {
            policy: Policy::Auto,
            cache_mb: 0,
            xdrop: 0,
            observe: false,
            shard_cells: 0,
        }
    }

    /// A fixed-backend policy (scalar fallback still applies).
    pub fn fixed(id: BackendId) -> DispatchPolicy {
        DispatchPolicy {
            policy: Policy::Fixed(id),
            ..DispatchPolicy::auto()
        }
    }

    /// An explicit [`Policy`] with default tuning.
    pub fn new(policy: Policy) -> DispatchPolicy {
        DispatchPolicy {
            policy,
            ..DispatchPolicy::auto()
        }
    }

    /// Enables X-drop early termination on the built SIMD backend's
    /// score path: a lane whose row maximum falls more than `x` below
    /// its running best retires with the best-so-far as its score.
    /// Inexact by design (a late-recovering alignment may be missed),
    /// so it is opt-in and never applies to global bins, tracebacks or
    /// the scalar reference.
    ///
    /// Degenerate values are clamped to 1: a threshold of 0 would
    /// retire every lane at the first row below the running best and
    /// return scores that are wrong on essentially every input —
    /// "off" is expressed by not calling this knob. The CLI rejects
    /// `--xdrop 0` outright for the same reason.
    pub fn xdrop(mut self, x: i32) -> DispatchPolicy {
        self.xdrop = x.max(1);
        self
    }

    /// Sets the wavefront backend's shard budget for chromosome-scale
    /// pairs: its tiled pass runs any pass whose DP matrix exceeds
    /// `cells` as a chain of subject slabs stitched through seam
    /// frontiers, however long the subject. A score then keeps one
    /// slab's borders and grid resident; each Hirschberg half-pass of
    /// an alignment keeps one slab plus the `O(m)` last rows it
    /// returns. Scores and CIGARs stay bit-identical to the unsharded
    /// run.
    ///
    /// Degenerate values are clamped to [`MIN_SHARD_CELLS`] (one
    /// default wavefront tile): a budget below one tile would slice
    /// slabs thinner than the kernel's own granularity — pure
    /// scheduling overhead with no memory benefit — mirroring the
    /// [`DispatchPolicy::xdrop`] clamp. "Off" is expressed by not
    /// calling the knob (or passing 0); the CLI rejects
    /// `--shard-cells 0` outright.
    pub fn shard_cells(mut self, cells: u64) -> DispatchPolicy {
        self.shard_cells = if cells == 0 {
            0
        } else {
            cells.max(MIN_SHARD_CELLS)
        };
        self
    }

    /// Gives the built dispatch a content-hash [`ResultCache`] bounded
    /// to `mb` MiB (0 disables caching). Cached pairs are recognized
    /// by the scheduler *before* work units form, so repeated reads
    /// never reach a backend; see [`crate::cache`] for the key
    /// derivation and collision policy.
    pub fn cache_mb(mut self, mb: usize) -> DispatchPolicy {
        self.cache_mb = mb;
        self
    }

    /// Enables observability on the built dispatch: the scheduler
    /// records stage-timing spans into [`crate::BatchStats::spans`]
    /// and folds per-`(backend, bin, stage)` latency histograms plus
    /// batch counters into the dispatch's [`MetricsRegistry`]
    /// ([`Dispatch::metrics`]). The budget is ≤3% throughput; what it
    /// costs on a short-read batch is the benchmark's ladder row
    /// `engine.observe_overhead_frac`. The default is off, where every
    /// instrumentation site is a no-op.
    pub fn observe(mut self, on: bool) -> DispatchPolicy {
        self.observe = on;
        self
    }

    /// Builds the standard three-backend registry under this policy.
    pub fn standard(self) -> Dispatch {
        let simd = if self.xdrop > 0 {
            SimdEngine::default().with_xdrop(self.xdrop)
        } else {
            SimdEngine::default()
        };
        Dispatch {
            engines: vec![
                (BackendId::Scalar, Box::new(ScalarEngine) as Box<dyn Engine>),
                (BackendId::Simd, Box::new(simd)),
                (
                    BackendId::Wavefront,
                    Box::new(WavefrontEngine::default().with_shard_cells(self.shard_cells)),
                ),
            ],
            policy: self.policy,
            // Saturate rather than shift: `mb << 20` could wrap to 0
            // on 32-bit targets and silently disable caching.
            cache: (self.cache_mb > 0)
                .then(|| ResultCache::with_budget(self.cache_mb.saturating_mul(1 << 20))),
            metrics: self.observe.then(MetricsRegistry::new),
        }
    }
}

/// The engine registry plus selection policy.
///
/// ```
/// use anyseq_engine::{BackendId, Dispatch, Policy, SchemeSpec};
///
/// let dispatch = Dispatch::standard(Policy::Auto);
/// let spec = SchemeSpec::global_linear(2, -1, -1);
/// // Short-read alignment batches stay on the SIMD lanes end to end
/// // (banded traceback), with the scalar reference closing the chain.
/// let chain = dispatch.candidates(&spec, 150 * 150, true);
/// assert_eq!(chain, vec![BackendId::Simd, BackendId::Scalar]);
/// // Huge pairs go to the intra-pair wavefront instead.
/// let chain = dispatch.candidates(&spec, 5000 * 5000, true);
/// assert_eq!(chain[0], BackendId::Wavefront);
/// ```
pub struct Dispatch {
    engines: Vec<(BackendId, Box<dyn Engine>)>,
    /// Selection policy applied per bin.
    pub policy: Policy,
    /// Optional content-hash result cache the scheduler consults.
    cache: Option<ResultCache>,
    /// Optional metrics registry; present iff observability is on.
    metrics: Option<MetricsRegistry>,
}

impl Dispatch {
    /// The standard three-backend registry (scalar, SIMD lanes,
    /// wavefront) with default tuning — use [`DispatchPolicy`] to
    /// customize.
    pub fn standard(policy: Policy) -> Dispatch {
        DispatchPolicy::new(policy).standard()
    }

    /// The result cache the scheduler should consult, if caching is
    /// enabled ([`DispatchPolicy::cache_mb`]).
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// The metrics registry, when observability is on
    /// ([`DispatchPolicy::observe`]). The scheduler folds spans and
    /// batch counters into it after every run; export
    /// [`Dispatch::metrics_snapshot`] with
    /// [`anyseq_obs::prometheus_text`]. Registries accumulate across
    /// batches on the same dispatch — exactly what a scrape endpoint
    /// wants.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// What an exporter should render: the registry's contents with the
    /// per-shard `anyseq_cache_shard_*` gauges read off the cache at
    /// this moment. They are published here, at export time, and not
    /// by the scheduler: a daemon observes a batch every few dozen
    /// pairs and is scraped every few seconds.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let reg = self.metrics.as_ref()?;
        let shards = self.cache.iter().flat_map(|c| c.shard_stats());
        for (i, shard) in shards.enumerate() {
            let l = anyseq_obs::labels(&[("shard", &i.to_string())]);
            reg.set_gauge("anyseq_cache_shard_bytes", l.clone(), shard.bytes as f64);
            reg.set_gauge(
                "anyseq_cache_shard_entries",
                l.clone(),
                shard.entries as f64,
            );
            reg.set_gauge("anyseq_cache_shard_hits", l.clone(), shard.hits as f64);
            reg.set_gauge("anyseq_cache_shard_evictions", l, shard.evictions as f64);
        }
        Some(reg.snapshot())
    }

    /// Swaps in a cache of an exact byte budget: tests wrap rings far
    /// smaller than the 1 MiB [`DispatchPolicy::cache_mb`] can ask for.
    #[cfg(test)]
    pub(crate) fn with_cache_budget(mut self, bytes: usize) -> Dispatch {
        self.cache = Some(ResultCache::with_budget(bytes));
        self
    }

    /// Replaces or registers a backend implementation.
    pub fn with_engine(mut self, id: BackendId, engine: Box<dyn Engine>) -> Dispatch {
        if let Some(slot) = self.engines.iter_mut().find(|(eid, _)| *eid == id) {
            slot.1 = engine;
        } else {
            self.engines.push((id, engine));
        }
        self
    }

    /// Looks up a registered backend.
    pub fn engine(&self, id: BackendId) -> Option<&dyn Engine> {
        self.engines
            .iter()
            .find(|(eid, _)| *eid == id)
            .map(|(_, e)| e.as_ref())
    }

    /// Whether `id` must run exclusively (gets the whole thread budget
    /// and is not sharded into the worker pool).
    pub fn is_exclusive(&self, id: BackendId) -> bool {
        self.engine(id).is_some_and(|e| !e.caps().batch_native)
    }

    /// The ordered candidate chain for one bin: the policy's pick
    /// first, the scalar reference last (deduplicated). `max_cells`
    /// is the largest per-pair DP size in the bin; `align` selects the
    /// traceback capability.
    pub fn candidates(&self, spec: &SchemeSpec, max_cells: u64, align: bool) -> Vec<BackendId> {
        let primary = match self.policy {
            Policy::Fixed(id) => id,
            Policy::Auto => self.auto_choice(spec, max_cells, align),
        };
        let mut chain = vec![primary];
        if primary != BackendId::Scalar {
            chain.push(BackendId::Scalar);
        }
        chain.retain(|id| self.engine(*id).is_some());
        if chain.is_empty() {
            // A registry without the requested backend nor scalar is a
            // construction error; still, never return an empty chain.
            chain.extend(self.engines.first().map(|(id, _)| *id));
        }
        chain
    }

    fn auto_choice(&self, spec: &SchemeSpec, max_cells: u64, align: bool) -> BackendId {
        let caps_allow = |id: BackendId| {
            self.engine(id)
                .map(|e| {
                    if align {
                        e.caps().supports_align(spec)
                    } else {
                        e.caps().supports_score(spec)
                    }
                })
                .unwrap_or(false)
        };
        if max_cells >= AUTO_WAVEFRONT_MIN_CELLS && caps_allow(BackendId::Wavefront) {
            return BackendId::Wavefront;
        }
        // Score *and* alignment requests ride the lanes: the banded
        // traceback keeps short-read bins vectorized end to end, and
        // band overflows are rescued inside the backend without
        // leaving the chain.
        if caps_allow(BackendId::Simd) {
            return BackendId::Simd;
        }
        BackendId::Scalar
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::KindSpec;

    #[test]
    fn auto_routes_by_shape() {
        let d = Dispatch::standard(Policy::Auto);
        let spec = SchemeSpec::global_linear(2, -1, -1);
        // Short-read bins: SIMD lanes.
        assert_eq!(d.candidates(&spec, 150 * 150, false)[0], BackendId::Simd);
        // Huge pairs: wavefront.
        assert_eq!(
            d.candidates(&spec, 5000 * 5000, false)[0],
            BackendId::Wavefront
        );
        // Local and semi-global kinds ride the lanes too since the
        // kernel went kind-generic.
        let local = spec.with_kind(KindSpec::Local);
        assert_eq!(d.candidates(&local, 150 * 150, false)[0], BackendId::Simd);
        let semi = spec.with_kind(KindSpec::SemiGlobal);
        assert_eq!(d.candidates(&semi, 150 * 150, false)[0], BackendId::Simd);
        // Alignment requests for short-read bins also stay on the SIMD
        // lanes (banded traceback)…
        assert_eq!(d.candidates(&spec, 150 * 150, true)[0], BackendId::Simd);
        assert_eq!(d.candidates(&local, 150 * 150, true)[0], BackendId::Simd);
        // …but free-end bins still fall through to scalar.
        let free_end = spec.with_kind(KindSpec::FreeEnd);
        assert_eq!(
            d.candidates(&free_end, 150 * 150, true)[0],
            BackendId::Scalar
        );
        // Huge alignment bins prefer intra-pair wavefront parallelism.
        assert_eq!(
            d.candidates(&spec, 5000 * 5000, true)[0],
            BackendId::Wavefront
        );
        // The crossover is inclusive, the scalar reference closes the
        // wavefront's chain too, and the wavefront takes the kinds the
        // lanes refuse.
        let at = AUTO_WAVEFRONT_MIN_CELLS;
        assert_eq!(d.candidates(&spec, at - 1, false)[0], BackendId::Simd);
        for s in [&spec, &free_end] {
            assert_eq!(
                d.candidates(s, at, true),
                vec![BackendId::Wavefront, BackendId::Scalar]
            );
        }
    }

    #[test]
    fn fixed_policy_keeps_scalar_fallback() {
        // A fixed pick heads the chain even for a kind it refuses
        // (FreeEnd on the lanes) and whatever the pair size; the
        // scalar reference behind it is what runs then.
        let d = Dispatch::standard(Policy::Fixed(BackendId::Simd));
        let spec = SchemeSpec::global_linear(2, -1, -1).with_kind(KindSpec::FreeEnd);
        for cells in [100, 5000 * 5000] {
            assert_eq!(
                d.candidates(&spec, cells, false),
                vec![BackendId::Simd, BackendId::Scalar]
            );
        }
        let s = Dispatch::standard(Policy::Fixed(BackendId::Scalar));
        assert_eq!(s.candidates(&spec, 100, false), vec![BackendId::Scalar]);
    }

    #[test]
    fn backend_names_round_trip() {
        for id in [BackendId::Scalar, BackendId::Simd, BackendId::Wavefront] {
            assert_eq!(BackendId::parse(id.name()), Some(id));
        }
        assert_eq!(BackendId::parse("gpu-sim"), None);
    }

    #[test]
    fn xdrop_knob_clamps_like_the_crossover() {
        assert_eq!(DispatchPolicy::auto().xdrop, 0, "off by default");
        assert_eq!(DispatchPolicy::auto().xdrop(20).xdrop, 20);
        // 0 would retire every lane immediately; the builder clamps it
        // to the smallest meaningful threshold (the CLI rejects it).
        assert_eq!(DispatchPolicy::auto().xdrop(0).xdrop, 1);
        assert_eq!(DispatchPolicy::auto().xdrop(-5).xdrop, 1);
        // The knob builds a dispatch without disturbing routing.
        let d = DispatchPolicy::auto().xdrop(20).standard();
        let semi = SchemeSpec::global_linear(2, -1, -1).with_kind(KindSpec::SemiGlobal);
        assert_eq!(d.candidates(&semi, 150 * 150, false)[0], BackendId::Simd);
    }

    #[test]
    fn shard_cells_knob_clamps_to_one_tile() {
        assert_eq!(DispatchPolicy::auto().shard_cells, 0, "off by default");
        // 0 stays off (the CLI rejects it); nonzero clamps up to one
        // default tile, mirroring the xdrop clamp semantics.
        assert_eq!(DispatchPolicy::auto().shard_cells(0).shard_cells, 0);
        assert_eq!(
            DispatchPolicy::auto().shard_cells(1).shard_cells,
            MIN_SHARD_CELLS
        );
        assert_eq!(
            DispatchPolicy::auto().shard_cells(1 << 24).shard_cells,
            1 << 24
        );
        // The built dispatch wires the budget into its wavefront
        // backend, whose pass then cuts a pair over it into slabs.
        let mut sim = anyseq_seq::genome::GenomeSim::new(5);
        let q = sim.generate(600);
        let pairs = vec![(q.clone(), sim.mutate(&q, 0.05))];
        let view = anyseq_seq::BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let slabs = |d: Dispatch| {
            let wavefront = d.engine(BackendId::Wavefront).unwrap();
            wavefront.score_batch(&spec, view.refs(), 1).unwrap();
            let counters = wavefront.drain_counters();
            counters.into_iter().find(|c| c.0 == "wavefront.shards")
        };
        assert_eq!(slabs(DispatchPolicy::auto().standard()), None);
        let cut = DispatchPolicy::auto().shard_cells(1).standard();
        assert_eq!(slabs(cut), Some(("wavefront.shards", 2)));
    }

    #[test]
    fn cache_knob_builds_a_cache() {
        let off = DispatchPolicy::auto().standard();
        assert!(off.cache().is_none(), "caching defaults to off");
        let on = DispatchPolicy::auto().cache_mb(2).standard();
        let cache = on.cache().expect("cache_mb enables the cache");
        assert_eq!(cache.budget(), 2 << 20);
        let zero = DispatchPolicy::auto().cache_mb(0).standard();
        assert!(zero.cache().is_none(), "0 MiB means disabled");
    }

    #[test]
    fn observe_knob_builds_a_registry() {
        assert!(DispatchPolicy::auto().standard().metrics().is_none());
        assert!(DispatchPolicy::auto()
            .observe(true)
            .standard()
            .metrics()
            .is_some());
    }

    #[test]
    fn exclusive_marks_wavefront_only() {
        let d = Dispatch::standard(Policy::Auto);
        assert!(d.is_exclusive(BackendId::Wavefront));
        assert!(!d.is_exclusive(BackendId::Scalar));
        assert!(!d.is_exclusive(BackendId::Simd));
    }
}
