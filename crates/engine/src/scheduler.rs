//! Batch scheduling over borrowed [`BatchView`]s: route, order, cut.
//!
//! ## Request path
//!
//! Both entry points — [`BatchScheduler::try_score_batch`] and
//! [`BatchScheduler::try_align_batch`] — walk one path of five steps,
//! each owning one decision:
//!
//! 1. **probe** — with a [`ResultCache`](crate::cache::ResultCache) on
//!    the dispatch ([`DispatchPolicy::cache_mb`](crate::DispatchPolicy::cache_mb)),
//!    in the order hash → dedup → probe: derive one 64-bit key per pair
//!    (the only pass over the sequence bytes besides the memcmps), fold
//!    in-batch duplicates onto their first occurrence in one pass over
//!    the keys, and look up the leaders only — followers never take a
//!    cache lock. Hashing and probing run in chunks on the calling
//!    thread and `threads − 1` helpers, the pool `execute` uses; each
//!    probe chunk takes each cache lock it needs once. Yields verified
//!    hits and the leaders still to compute. Without a cache this step
//!    does nothing: no hashing, no dedup.
//! 2. **plan** — a pure function of the view, those leaders and the
//!    [`Dispatch`] policy: each is routed to its candidate chain,
//!    ordered and cut into units, and units split into the worker pool
//!    (longest first) and the exclusive phase. No engine runs.
//! 3. **execute** — one chain walker serves pooled and exclusive units
//!    alike: try each candidate in order, fall through on
//!    [`EngineError::Unsupported`], stop on anything else.
//! 4. **settle** — the one place a finished unit is booked: cache
//!    insert (each cache lock taken once for the whole unit), values
//!    handed back by view position, unit histograms, fallback counters,
//!    the engine's drained counters and the per-backend record.
//! 5. **report** — the tracer's spans fold into `stage.*_ns` counters
//!    and the metrics registry's per-batch totals.
//!
//! Workers never write result slots: each lane hands its values back
//! and the coordinator scatters them after the join — and then hands
//! every in-batch duplicate its leader's value — so a slot written
//! twice or never is a returned error, not undefined behaviour.
//!
//! ## Request model
//!
//! The scheduler consumes a [`BatchView`]: an ordered list of
//! [`PairRef`]s into storage the caller keeps alive (a
//! [`SeqStore`](anyseq_seq::SeqStore), a `Vec<(Seq, Seq)>` through
//! [`BatchView::from_pairs`], …). Work units carry *indices into the
//! view*; the just-in-time gather that hands a unit to a backend
//! materializes a `Vec<PairRef>` — 32 bytes of pointers per pair,
//! never sequence bytes. The only sequence copy anywhere below the
//! view is the SIMD backend's lane transpose, which it reports as
//! `simd.bytes_copied`; the scheduler's own `sched.bytes_copied`
//! counter (always present in [`BatchStats::counters`]) records
//! gather-time sequence copies and is structurally zero — it exists
//! as a regression tripwire and so benchmark reports can prove the
//! zero-copy property.
//!
//! ## Route, order, cut
//!
//! Every pair is routed by its own cells ([`Dispatch::candidates`]),
//! and each route's pairs are sorted by exact `(|q|, |s|)`, ties in
//! input order. The scheduler decides nothing about lanes: which pairs
//! share a vector block is the SIMD backend's `LaneGroups` alone, and
//! the sorted order hands it runs of near-equal shapes.
//!
//! Each route's sorted run is cut into bounded work units whose sizes
//! taper toward the end of the cut, ordered longest-first (LPT), and
//! pulled over a shared counter by a pool of `threads` workers — the
//! calling thread and `threads − 1` helpers — so the workers finish
//! together. A unit never mixes candidate chains.
//! Each worker runs the dispatch-selected backend with a thread budget
//! of 1; backends that parallelize *inside* a pair (wavefront) are
//! instead run exclusively with the whole budget. The output order is
//! always the input order.
//!
//! ## Result caching
//!
//! Verified hits never reach a backend, and only the unique misses are
//! planned. Byte equality is the only thing that serves a hit or merges
//! a duplicate: a key match alone does neither, in the cache or in
//! the batch. Fresh unit results are inserted back into the cache as
//! they complete (workers insert concurrently; the cache's locks are
//! independent).
//! `cache.hits` + `cache.misses` always equals the batch's pair count;
//! duplicates served from their leader's result count as hits.
//! With hits in play, [`BatchStats::cells`] keeps counting the batch's
//! *logical* cells — the whole-batch GCUPS becomes effective
//! throughput (the paid-for speedup), while `per_backend` only
//! accounts cells that actually ran.

#![forbid(unsafe_code)]

use crate::cache::{
    CacheKey, CacheableResult, ReqKind, CACHE_BYTES, CACHE_COLLISIONS, CACHE_EVICTIONS, CACHE_HITS,
    CACHE_INGEST_BYTES, CACHE_MISSES,
};
use crate::dispatch::{BackendId, Dispatch};
use crate::engine::{Engine, EngineError};
use crate::spec::SchemeSpec;
use crate::stats::{self, BatchStats};
use anyseq_core::score::Score;
use anyseq_core::Alignment;
use anyseq_obs as obs;
use anyseq_obs::Stage;
use anyseq_seq::{BatchView, PairRef};
use anyseq_wavefront::run_workers;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Name of the scheduler's gather-copy counter in
/// [`BatchStats::counters`]. Always reported; a non-zero value means a
/// code path re-introduced per-pair sequence cloning on the dispatch
/// hot path.
pub const SCHED_BYTES_COPIED: &str = "sched.bytes_copied";

/// Name of the counter bumped when a backend declines a unit because
/// its [`Caps`](crate::engine::Caps) exclude the request's alignment
/// *kind* (as opposed to score-only/alphabet refusals). A non-zero
/// value under `Auto` means the router proposed a backend whose
/// capability table it should have consulted — with the kind-generic
/// SIMD kernels, short non-global pairs route to the lanes directly and
/// this counter stays 0 outside `Fixed` policies that force a
/// mismatched backend.
pub const FALLBACK_KIND_UNSUPPORTED: &str = "dispatch.fallback_kind_unsupported";

/// Most pairs in one work unit.
const UNIT_PAIRS: usize = 512;

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct BatchCfg {
    /// Worker threads (also the budget handed to exclusive backends).
    pub threads: usize,
}

impl Default for BatchCfg {
    fn default() -> BatchCfg {
        let cores = std::thread::available_parallelism().map(|n| n.get());
        BatchCfg::threads(cores.unwrap_or(4))
    }
}

impl BatchCfg {
    /// Configuration with an explicit thread count.
    pub fn threads(threads: usize) -> BatchCfg {
        BatchCfg {
            threads: threads.max(1),
        }
    }
}

/// The batch scheduler: probes, plans, executes, settles, reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchScheduler {
    /// Tuning knobs.
    pub cfg: BatchCfg,
}

/// Results plus execution statistics for one batch run.
#[derive(Debug, Clone)]
pub struct BatchRun<T> {
    /// Per-pair results, in input order.
    pub results: Vec<T>,
    /// What ran where, and how fast.
    pub stats: BatchStats,
}

/// What the request path needs from a result type beyond caching it:
/// the one backend call that produces it.
trait Request: CacheableResult {
    /// Runs `pairs` on `engine`.
    fn run(
        engine: &dyn Engine,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        threads: usize,
    ) -> Result<Vec<Self>, EngineError>;
}

impl Request for Score {
    fn run(
        engine: &dyn Engine,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        threads: usize,
    ) -> Result<Vec<Score>, EngineError> {
        engine.score_batch(spec, pairs, threads)
    }
}

impl Request for Alignment {
    fn run(
        engine: &dyn Engine,
        spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        threads: usize,
    ) -> Result<Vec<Alignment>, EngineError> {
        engine.align_batch(spec, pairs, threads)
    }
}

/// One schedulable chunk of a route, with its routing.
#[derive(Debug)]
struct Unit {
    /// View positions of the unit's pairs.
    indices: Vec<usize>,
    /// Total DP cells in the unit.
    cells: u64,
    /// Batch-unique unit id (span tag).
    id: u32,
    /// Candidate backends, first pick first, scalar last.
    chain: Vec<BackendId>,
}

/// Everything decided between the cache probe and the first engine
/// call.
#[derive(Debug)]
struct Plan {
    /// Units over the pairs to compute, route by route in cut order.
    units: Vec<Unit>,
    /// Indices into `units` that share the worker pool, longest first.
    pooled: Vec<usize>,
    /// Indices into `units` whose first candidate owns the machine.
    exclusive: Vec<usize>,
}

/// What `probe` found.
struct Probed<T> {
    /// One key per view position; empty without a cache.
    keys: Vec<CacheKey>,
    /// Who answers for each view position, from [`dedup`]; empty
    /// without a cache.
    leader_of: Vec<u32>,
    /// Verified cache hits by view position (leaders only).
    hits: Vec<(usize, T)>,
    /// Leaders still to compute, in input order.
    misses: Vec<usize>,
}

/// What one worker lane accumulates: its share of the batch stats and
/// the values it produced by view position.
struct Lane<T> {
    stats: BatchStats,
    out: Vec<(usize, T)>,
}

impl<T> Default for Lane<T> {
    fn default() -> Lane<T> {
        Lane {
            stats: BatchStats::default(),
            out: Vec::new(),
        }
    }
}

/// The batch's result slots. Filled only by the coordinator, each
/// exactly once — checked, so a planning or backend bug surfaces as an
/// error.
struct Slots<T>(Vec<Option<T>>);

impl<T> Slots<T> {
    fn new(len: usize) -> Slots<T> {
        Slots((0..len).map(|_| None).collect())
    }

    fn put(&mut self, k: usize, value: T) -> Result<(), EngineError> {
        match self.0.get_mut(k) {
            Some(slot @ None) => *slot = Some(value),
            Some(Some(_)) => return Err(slot_error(k, "was written twice")),
            None => return Err(slot_error(k, "is outside the batch")),
        }
        Ok(())
    }

    fn fill(&mut self, values: Vec<(usize, T)>) -> Result<(), EngineError> {
        values.into_iter().try_for_each(|(k, v)| self.put(k, v))
    }

    /// Hands every in-batch duplicate its leader's value — served from
    /// the cache or freshly computed, the leader's slot is full by now.
    fn follow(&mut self, leader_of: &[u32]) -> Result<(), EngineError>
    where
        T: Clone,
    {
        for (k, &leader) in leader_of.iter().enumerate() {
            if leader as usize != k {
                let value = self.0[leader as usize].clone();
                let value =
                    value.ok_or_else(|| slot_error(leader as usize, "was never written"))?;
                self.put(k, value)?;
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Vec<T>, EngineError> {
        let filled = self.0.into_iter().enumerate();
        filled
            .map(|(k, v)| v.ok_or_else(|| slot_error(k, "was never written")))
            .collect()
    }
}

fn slot_error(slot: usize, what: &str) -> EngineError {
    EngineError::unsupported("scheduler", format!("result slot {slot} {what}"))
}

/// The read-only state `execute` and `settle` share across lanes.
struct Batch<'a, 'v> {
    dispatch: &'a Dispatch,
    spec: &'a SchemeSpec,
    view: &'a BatchView<'v>,
    keys: &'a [CacheKey],
    plan: &'a Plan,
    align: bool,
    /// Traceback recomputes ≈2× the cells of a score-only pass; the
    /// shared convention so GCUPS here matches the bench's.
    cell_factor: u64,
}

impl BatchScheduler {
    /// Scheduler with the given config.
    pub fn new(cfg: BatchCfg) -> BatchScheduler {
        BatchScheduler { cfg }
    }

    /// Scores every pair of the view through the dispatch policy,
    /// surfacing terminal refusals ([`EngineError::UnitTooLarge`], or
    /// a foreign candidate chain that declined everything).
    pub fn try_score_batch(
        &self,
        dispatch: &Dispatch,
        spec: &SchemeSpec,
        view: &BatchView<'_>,
    ) -> Result<BatchRun<Score>, EngineError> {
        self.run(dispatch, spec, view)
    }

    /// Aligns (with traceback) every pair of the view through the
    /// dispatch policy, surfacing terminal refusals.
    pub fn try_align_batch(
        &self,
        dispatch: &Dispatch,
        spec: &SchemeSpec,
        view: &BatchView<'_>,
    ) -> Result<BatchRun<Alignment>, EngineError> {
        self.run(dispatch, spec, view)
    }

    fn run<T: Request>(
        &self,
        dispatch: &Dispatch,
        spec: &SchemeSpec,
        view: &BatchView<'_>,
    ) -> Result<BatchRun<T>, EngineError> {
        let started = Instant::now();
        let extent = view.iter().map(|p| p.q.len() + p.s.len()).max();
        let refused = |reason| EngineError::Unsupported {
            backend: "scheduler",
            reason,
        };
        spec.check(extent.unwrap_or(0)).map_err(refused)?;
        let align = T::KIND == ReqKind::Align;
        let cell_factor = if align {
            stats::TRACEBACK_CELL_FACTOR
        } else {
            1
        };
        let mut stats = BatchStats {
            pairs: view.len() as u64,
            cells: view.total_cells() * cell_factor,
            ..BatchStats::default()
        };
        // The gather moves PairRefs, never sequence bytes; the counter
        // is recorded unconditionally so every report carries the
        // proof (and any future cloning path would show up here).
        stats.record_counter(SCHED_BYTES_COPIED, 0);

        // Observability rides on the dispatch: with a metrics registry
        // present, a per-batch tracer collects stage spans (per-worker
        // thread-local buffers, drained at batch end). Without one,
        // every obs:: call below is a no-op behind one TLS read.
        let tracer = dispatch.metrics().map(|_| obs::BatchTracer::new());
        let main_guard = tracer.as_ref().map(|t| t.worker(0));
        if tracer.is_some() {
            // Pre-seed all stage counters so observed runs always
            // report the full `stage.*_ns` key set, active or not.
            for stage in Stage::ALL {
                stats.record_counter(stage.counter_key(), 0);
            }
        }
        let cache = dispatch.cache();
        let cache_baseline = cache.map(|c| c.totals());

        let Probed {
            keys,
            leader_of,
            hits,
            misses,
        } = self.probe::<T>(dispatch, spec, view, tracer.as_ref());
        let plan = self.plan(dispatch, spec, view, &misses, align);
        let computed: usize = plan.units.iter().map(|u| u.indices.len()).sum();
        if cache.is_some() {
            stats.record_counter(CACHE_HITS, (view.len() - computed) as u64);
            stats.record_counter(CACHE_MISSES, computed as u64);
        }
        stats.units = plan.units.len() as u64;

        let mut slots = Slots::new(view.len());
        obs::span(Stage::Merge, || slots.fill(hits))?;
        let batch = Batch {
            dispatch,
            spec,
            view,
            keys: &keys,
            plan: &plan,
            align,
            cell_factor,
        };
        self.execute(&batch, tracer.as_ref(), &mut stats, &mut slots)?;
        obs::span(Stage::Merge, || slots.follow(&leader_of))?;

        if let (Some(cache), Some(before)) = (cache, cache_baseline) {
            // `cache.bytes` is a resident-size gauge snapshot; the
            // eviction/collision counters are per-run deltas.
            let now = cache.totals();
            stats.record_counter(CACHE_BYTES, now.bytes);
            stats.record_counter(
                CACHE_EVICTIONS,
                now.evictions.saturating_sub(before.evictions),
            );
            let collisions = now.collisions.saturating_sub(before.collisions);
            if collisions > 0 {
                stats.record_counter(CACHE_COLLISIONS, collisions);
            }
        }
        let results = slots.finish()?;
        // Which worker recorded first is a race; sort so the breakdown
        // is deterministic across runs.
        stats.per_backend.sort_by_key(|b| b.backend);
        stats.wall_seconds = started.elapsed().as_secs_f64();
        drop(main_guard);
        if let Some(tracer) = tracer {
            report(&mut stats, tracer.finish(), dispatch);
        }
        Ok(BatchRun { results, stats })
    }

    /// Step 1: hash → dedup → probe. Derives every pair's cache key,
    /// folds in-batch duplicates onto their first occurrence, and looks
    /// the leaders up. Without a cache, everything is a miss, no key is
    /// derived and nothing is deduplicated — uncached input never pays
    /// for hashing.
    fn probe<T: Request>(
        &self,
        dispatch: &Dispatch,
        spec: &SchemeSpec,
        view: &BatchView<'_>,
        tracer: Option<&obs::BatchTracer>,
    ) -> Probed<T> {
        let n = view.len();
        let Some(cache) = dispatch.cache() else {
            return Probed {
                keys: Vec::new(),
                leader_of: Vec::new(),
                hits: Vec::new(),
                misses: (0..n).collect(),
            };
        };
        let fingerprint = spec.fingerprint();
        // Several chunks per worker, so the pool evens itself out; none
        // so small that a helper costs more to start than it saves.
        let chunk = n.div_ceil(4 * self.cfg.threads.max(1)).max(PROBE_CHUNK_MIN);
        let keys = self.fan_out(n, chunk, tracer, |part| {
            obs::span(Stage::Hash, || {
                part.map(|k| CacheKey::new(fingerprint, &view.get(k), T::KIND))
                    .collect::<Vec<_>>()
            })
        });
        let keys = keys.concat();
        let (leader_of, leaders) = obs::span(Stage::Dedup, || dedup(view, &keys));
        // Followers never reach the cache: their leader answers for
        // them, out of the cache or out of a backend.
        let found = self.fan_out(leaders.len(), chunk, tracer, |part| {
            obs::span(Stage::CacheProbe, || {
                let leaders = &leaders[part];
                let keys: Vec<_> = leaders.iter().map(|&k| keys[k as usize]).collect();
                let pairs: Vec<_> = leaders.iter().map(|&k| view.get(k as usize)).collect();
                cache.get_many::<T>(&keys, &pairs)
            })
        });
        let (mut hits, mut misses) = (Vec::new(), Vec::new());
        for (&k, value) in leaders.iter().zip(found.into_iter().flatten()) {
            match value {
                Some(value) => hits.push((k as usize, value)),
                None => misses.push(k as usize),
            }
        }
        Probed {
            keys,
            leader_of,
            hits,
            misses,
        }
    }

    /// Cuts `0..len` into parts of `chunk` positions, runs `work` on
    /// each — [`on_pool`]'s workers draw the parts off one counter —
    /// and returns the outputs in order.
    fn fan_out<R: Send>(
        &self,
        len: usize,
        chunk: usize,
        tracer: Option<&obs::BatchTracer>,
        work: impl Fn(std::ops::Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        let (parts, next) = (len.div_ceil(chunk), &AtomicUsize::new(0));
        let drawn = on_pool(self.cfg.threads.min(parts), tracer, || {
            let draw = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&c| c < parts);
            std::iter::from_fn(draw)
                .map(|c| (c, work(c * chunk..((c + 1) * chunk).min(len))))
                .collect::<Vec<_>>()
        });
        let mut done: Vec<_> = drawn.into_iter().flatten().collect();
        done.sort_unstable_by_key(|&(c, _)| c);
        done.into_iter().map(|(_, out)| out).collect()
    }

    /// Step 2: decides everything that happens to the pairs still to
    /// compute (`misses`: view positions in input order, leaders only
    /// when a cache deduplicated the batch), without running an engine.
    fn plan(
        &self,
        dispatch: &Dispatch,
        spec: &SchemeSpec,
        view: &BatchView<'_>,
        misses: &[usize],
        align: bool,
    ) -> Plan {
        let units = self.cut_units(view, misses, |cells| {
            dispatch.candidates(spec, cells, align)
        });
        // Exclusive backends own the machine for their units; pooled
        // units share the worker pool.
        let (exclusive, mut pooled): (Vec<usize>, Vec<usize>) =
            (0..units.len()).partition(|&u| dispatch.is_exclusive(units[u].chain[0]));
        // Longest-processing-time-first keeps the pool tail short.
        pooled.sort_by_key(|&u| std::cmp::Reverse(units[u].cells));
        Plan {
            units,
            pooled,
            exclusive,
        }
    }

    /// Routes the given view positions by their own cells (`route`
    /// yields a pair's candidate chain), orders each route by exact
    /// `(|q|, |s|)` with ties in input order, and cuts each ordered run
    /// into bounded units.
    ///
    /// The unit size shrinks below [`UNIT_PAIRS`] when the batch is
    /// small relative to the pool, so a batch never collapses into
    /// fewer units than there are workers (idle-core guard); a floor
    /// of 32 pairs keeps SIMD lane groups dense.
    ///
    /// With more than one worker the cut is *guided*: a unit is at
    /// most half an even share of the pairs still uncut, so unit sizes
    /// taper toward the floor and the last units the pool draws are
    /// small. Workers then finish within one small unit of each other
    /// whatever their relative speed, instead of within one full chunk
    /// — at 16 equal units on 2 workers the join waited half a unit on
    /// average (~6 % of a read batch), and longer whenever one core
    /// ran slow.
    fn cut_units(
        &self,
        view: &BatchView<'_>,
        indices: &[usize],
        route: impl Fn(u64) -> Vec<BackendId>,
    ) -> Vec<Unit> {
        let workers = self.cfg.threads.max(1);
        // Cut units at lane-group boundaries: a unit whose pair count
        // is a multiple of the widest SIMD lane group (32) leaves no
        // short run for the backend's scalar tail, which runs ~4×
        // slower per cell than the lanes and dominates small batches
        // otherwise. Rounding down keeps the idle-core guard intact
        // (the unit count can only grow).
        let lane_cut = |len: usize| if len > 32 { len - len % 32 } else { len };
        let chunk = lane_cut(UNIT_PAIRS.min(indices.len().div_ceil(workers).max(32)));

        // `(|q|, |s|, position)` packed into one key, so a single
        // unstable sort gives a deterministic order without view
        // lookups.
        const LOW: u32 = 40;
        let mut keys: Vec<u128> = indices
            .iter()
            .map(|&k| {
                let p = view.get(k);
                (p.q.len() as u128) << (2 * LOW) | (p.s.len() as u128) << LOW | k as u128
            })
            .collect();
        keys.sort_unstable();
        // A chain depends on a pair's cells only: one call per shape.
        let at = |key: &u128| (key & ((1 << LOW) - 1)) as usize;
        let mut routes: Vec<(Vec<BackendId>, Vec<usize>)> = Vec::new();
        for shape in keys.chunk_by(|a, b| a >> LOW == b >> LOW) {
            let chain = route(view.get(at(&shape[0])).cells());
            let r = routes.iter().position(|(c, _)| *c == chain);
            let r = r.unwrap_or_else(|| {
                routes.push((chain, Vec::new()));
                routes.len() - 1
            });
            routes[r].1.extend(shape.iter().map(at));
        }

        let mut units = Vec::new();
        // Pairs not yet cut into a unit, across all routes.
        let mut uncut = indices.len();
        for (chain, members) in routes {
            let mut rest = members.as_slice();
            while !rest.is_empty() {
                let guided = if workers > 1 {
                    lane_cut(uncut.div_ceil(2 * workers).clamp(chunk.min(32), chunk))
                } else {
                    chunk
                };
                let (piece, tail) = rest.split_at(guided.min(rest.len()));
                units.push(Unit {
                    indices: piece.to_vec(),
                    cells: piece.iter().map(|&k| view.get(k).cells()).sum(),
                    id: units.len() as u32,
                    chain: chain.clone(),
                });
                uncut -= piece.len();
                rest = tail;
            }
        }
        units
    }

    /// Step 3: runs the plan — the pooled units over a shared-counter
    /// worker pool (thread budget 1 per call), then the exclusive
    /// units serially with the whole budget — and scatters what the
    /// lanes hand back.
    ///
    /// The pool is [`on_pool`]'s: the calling thread pulls units itself,
    /// next to `threads − 1` helpers.
    fn execute<T: Request>(
        &self,
        batch: &Batch<'_, '_>,
        tracer: Option<&obs::BatchTracer>,
        stats: &mut BatchStats,
        slots: &mut Slots<T>,
    ) -> Result<(), EngineError> {
        let plan = batch.plan;
        if !plan.pooled.is_empty() {
            let next = &AtomicUsize::new(0);
            let lanes = on_pool(self.cfg.threads.min(plan.pooled.len()), tracer, || {
                let mut lane = Lane::default();
                let outcome = pull_units(batch, next, &mut lane);
                (lane, outcome)
            });
            absorb(stats, slots, lanes)?;
        }

        let mut lane = Lane::default();
        let threads = self.cfg.threads;
        let outcome = plan
            .exclusive
            .iter()
            .try_for_each(|&u| walk(batch, &plan.units[u], threads, &mut lane));
        absorb(stats, slots, vec![(lane, outcome)])
    }
}

/// The scheduler's worker pool: runs `work` on the calling thread and
/// on `workers − 1` helpers of the shared pool
/// ([`anyseq_wavefront::run_workers`]; lanes `1..workers` of the
/// tracer), and returns every worker's output, the caller's first.
///
/// Caller-runs: a batch starts working at once on the core that is
/// already running it, a helper that is slow to be scheduled costs only
/// what it did not draw from whatever shared counter `work` pulls, and
/// a one-worker pool spawns nothing.
fn on_pool<R: Send>(
    workers: usize,
    tracer: Option<&obs::BatchTracer>,
    work: impl Fn() -> R + Sync,
) -> Vec<R> {
    let mut out = run_workers(workers, |w| {
        if w > 0 {
            let _g = tracer.map(|t| t.worker(w as u32));
            return (work(), None);
        }
        let mine = work();
        // Back to coordinating: what the coordinator lane records from
        // here on belongs to no unit, and the time it spends blocked on
        // the join is queue wait.
        obs::set_context("sched", obs::NO_ID);
        (mine, Some(obs::timer()))
    });
    if let Some(t_wait) = out[0].1.take() {
        obs::commit(Stage::QueueWait, t_wait);
    }
    out.into_iter().map(|(r, _)| r).collect()
}

/// Fewest pairs worth a probe chunk of their own: below this a helper
/// thread costs more to start than the hashing it takes over.
const PROBE_CHUNK_MIN: usize = 256;

/// In-batch dedup, ahead of the cache probe: one open-addressing pass
/// over the batch's keys, in a flat table sized to the batch and
/// indexed by the key as it is. Returns `leader_of` — for every view
/// position the first position holding the same bytes (itself, for a
/// leader) — and the leaders in input order.
///
/// Same collision policy as a cache hit: a key match alone never merges
/// two pairs — the bytes must match too, or the "duplicate" leads a
/// computation of its own.
fn dedup(view: &BatchView<'_>, keys: &[CacheKey]) -> (Vec<u32>, Vec<u32>) {
    const EMPTY: u32 = u32::MAX;
    assert!(keys.len() < EMPTY as usize, "batch positions fit 32 bits");
    let mask = (2 * keys.len()).next_power_of_two().max(2) - 1;
    let mut table = vec![EMPTY; mask + 1];
    let mut leader_of = Vec::with_capacity(keys.len());
    let mut leaders = Vec::new();
    for (k, key) in keys.iter().enumerate() {
        let mine = view.get(k);
        // The cache picks its lock by the key's low bits and a table
        // slot by its high half; any of its bits would do here.
        let mut i = (key.0 >> 8) as usize & mask;
        let leader = loop {
            let seen = table[i];
            if seen == EMPTY {
                table[i] = k as u32;
                leaders.push(k as u32);
                break k as u32;
            }
            let theirs = view.get(seen as usize);
            if keys[seen as usize] == *key && theirs.q == mine.q && theirs.s == mine.s {
                break seen;
            }
            i = (i + 1) & mask;
        };
        leader_of.push(leader);
    }
    (leader_of, leaders)
}

/// One pool worker: pulls pooled units off the shared counter until
/// none is left or one is refused terminally (the batch then errors
/// out after the joins).
fn pull_units<T: Request>(
    batch: &Batch<'_, '_>,
    next: &AtomicUsize,
    lane: &mut Lane<T>,
) -> Result<(), EngineError> {
    let plan = batch.plan;
    loop {
        // The wait span opens at the top of every pull so worker lanes
        // stay contiguous; it closes only when a unit was actually
        // drawn (the final empty pull just drops the timer).
        let t_idle = obs::timer();
        let Some(&u) = plan.pooled.get(next.fetch_add(1, Ordering::Relaxed)) else {
            return Ok(());
        };
        let unit = &plan.units[u];
        obs::set_context("sched", unit.id);
        obs::commit(Stage::QueueWait, t_idle);
        walk(batch, unit, 1, lane)?;
    }
}

/// The chain walker every unit goes through, pooled (`threads` = 1)
/// or exclusive (the whole budget): gathers the pairs, then tries the
/// unit's candidates in order until one accepts and its values settle.
fn walk<T: Request>(
    batch: &Batch<'_, '_>,
    unit: &Unit,
    threads: usize,
    lane: &mut Lane<T>,
) -> Result<(), EngineError> {
    obs::set_context("sched", unit.id);
    // Gather the pair *references* contiguously just-in-time: 32 bytes
    // of pointers per pair. The sequence bytes stay where the caller
    // put them — for an exclusive unit holding a multi-Mbp genome this
    // is the difference between a dispatch and a deep copy.
    let pairs: Vec<PairRef<'_>> = obs::span(Stage::Gather, || {
        unit.indices.iter().map(|&k| batch.view.get(k)).collect()
    });
    let mut last_refusal = None;
    for (tried, id) in unit.chain.iter().enumerate() {
        let engine = batch
            .dispatch
            .engine(*id)
            .expect("candidates only returns registered backends");
        // Spans the engine emits (kernel, transpose, traceback) must
        // attribute to the engine that actually executes, not the
        // chain's first pick.
        obs::set_context(engine.caps().name, unit.id);
        let t0 = Instant::now();
        match T::run(engine, batch.spec, &pairs, threads) {
            Ok(values) => {
                let tried = tried as u64;
                return settle(
                    batch, unit, threads, &pairs, engine, values, tried, t0, lane,
                );
            }
            Err(err @ EngineError::Unsupported { .. }) => {
                // A declining engine may still have accumulated
                // internal counters (capability probes, partial
                // setup). Drain them *now* so they attribute to this
                // unit instead of silently leaking into whichever unit
                // this engine executes next.
                for (name, value) in engine.drain_counters() {
                    lane.stats.record_counter(name, value);
                }
                lane.stats.record_counter(id.declined_counter(), 1);
                // Distinguish kind-capability refusals from the rest:
                // the capability table already knew this backend
                // cannot run the kind, so the chain paid a probe it
                // could have skipped.
                let caps = engine.caps();
                let kind_supported = if batch.align {
                    caps.supports_align(batch.spec)
                } else {
                    caps.supports_score(batch.spec)
                };
                if !kind_supported {
                    lane.stats.record_counter(FALLBACK_KIND_UNSUPPORTED, 1);
                }
                last_refusal = Some(err);
            }
            // UnitTooLarge is terminal: falling back would execute the
            // very allocation the bound prevents.
            Err(err) => return Err(err),
        }
    }
    // The standard registry's scalar backend accepts everything; only
    // a foreign chain can exhaust itself.
    Err(last_refusal.expect("empty candidate chain"))
}

/// Step 4: books one finished unit on its lane — the only place
/// results enter the cache and are handed back by view position.
#[allow(clippy::too_many_arguments)]
fn settle<T: Request>(
    batch: &Batch<'_, '_>,
    unit: &Unit,
    threads: usize,
    gathered: &[PairRef<'_>],
    engine: &dyn Engine,
    values: Vec<T>,
    fallbacks: u64,
    started: Instant,
    lane: &mut Lane<T>,
) -> Result<(), EngineError> {
    let backend = engine.caps().name;
    let pairs = unit.indices.len();
    // One value per pair, even from foreign `Engine` impls.
    if values.len() != pairs {
        return Err(EngineError::unsupported(
            backend,
            format!("returned {} results for {pairs} pairs", values.len()),
        ));
    }
    if let Some(cache) = batch.dispatch.cache() {
        // Fresh results: retain them (and their verification bytes)
        // for future batches, each cache lock taken once for the whole
        // unit. Without a cache the hand-back below is a plain move
        // loop — only insert traffic is worth a span.
        let t_insert = obs::timer();
        let keys: Vec<_> = unit.indices.iter().map(|&k| batch.keys[k]).collect();
        let ingest = cache.insert_many(&keys, gathered, &values);
        obs::commit(Stage::CacheInsert, t_insert);
        lane.stats.record_counter(CACHE_INGEST_BYTES, ingest as u64);
    }
    lane.out.extend(unit.indices.iter().copied().zip(values));
    let cells = unit.cells * batch.cell_factor;
    if let Some(reg) = batch.dispatch.metrics() {
        let labels = obs::labels(&[("backend", backend), ("kind", batch.spec.kind.name())]);
        reg.observe("anyseq_unit_pairs", labels.clone(), pairs as u64);
        reg.observe("anyseq_unit_cells", labels, cells);
    }
    lane.stats.fallbacks += fallbacks;
    // Backend-internal telemetry (e.g. the SIMD traceback's band
    // counters and its transpose byte count) rides along with the unit
    // that produced it.
    for (name, value) in engine.drain_counters() {
        lane.stats.record_counter(name, value);
    }
    // Busy time records granted capacity: an exclusive backend holds
    // `threads` workers' worth of the machine for its wall time.
    let busy = started.elapsed().as_secs_f64() * threads.max(1) as f64;
    lane.stats.record(backend, pairs as u64, cells, busy);
    Ok(())
}

/// Folds joined lanes into the batch: stats merge, values scatter into
/// their slots. A lane that ended in a terminal refusal fails the
/// batch.
fn absorb<T>(
    stats: &mut BatchStats,
    slots: &mut Slots<T>,
    lanes: Vec<(Lane<T>, Result<(), EngineError>)>,
) -> Result<(), EngineError> {
    obs::span(Stage::Merge, || {
        lanes.into_iter().try_for_each(|(lane, outcome)| {
            outcome?;
            stats.merge(&lane.stats);
            slots.fill(lane.out)
        })
    })
}

/// Step 5: folds every span into the additive `stage.*_ns` counters,
/// feeds the registry's per-(stage, backend) latency histograms and
/// per-batch totals, and keeps the raw spans on the stats for the
/// Chrome-trace exporter.
fn report(stats: &mut BatchStats, spans: Vec<obs::Span>, dispatch: &Dispatch) {
    for span in &spans {
        stats.record_counter(span.stage.counter_key(), span.dur_ns);
    }
    if let Some(reg) = dispatch.metrics() {
        for span in &spans {
            let labels = obs::labels(&[("stage", span.stage.name()), ("backend", span.backend)]);
            reg.observe("anyseq_stage_duration_ns", labels, span.dur_ns);
        }
        for (name, value) in stats.registry_totals() {
            reg.inc(name, String::new(), value);
        }
    }
    stats.spans = spans;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{BackendId, Policy};
    use crate::spec::KindSpec;
    use anyseq_seq::genome::GenomeSim;
    use anyseq_seq::testsupport::read_pairs;
    use anyseq_seq::Seq;

    fn scheduler(threads: usize) -> BatchScheduler {
        BatchScheduler::new(BatchCfg::threads(threads))
    }

    #[test]
    fn scores_match_scalar_in_input_order() {
        let pairs = read_pairs(200, 1);
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let dispatch = Dispatch::standard(Policy::Auto);
        let run = scheduler(4)
            .try_score_batch(&dispatch, &spec, &view)
            .unwrap();
        assert_eq!(run.results.len(), pairs.len());
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(run.results[k], spec.score_scalar(q, s), "pair {k}");
        }
        assert_eq!(run.stats.pairs, 200);
        assert!(run.stats.gcups() > 0.0);
        assert!(run.stats.per_backend.iter().any(|b| b.backend == "simd"));
        // The gather copies no sequence bytes — the counter is present
        // and zero.
        assert_eq!(run.stats.counters[SCHED_BYTES_COPIED], 0);
    }

    #[test]
    fn alignments_match_scalar_scores_and_replay() {
        use anyseq_core::kind::Global;
        let pairs = read_pairs(60, 2);
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);
        let dispatch = Dispatch::standard(Policy::Auto);
        let run = scheduler(4)
            .try_align_batch(&dispatch, &spec, &view)
            .unwrap();
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(
                run.results[k].score,
                spec.align_scalar(q, s).score,
                "pair {k}"
            );
            crate::with_scheme!(&spec, |scheme, _K| {
                run.results[k]
                    .validate::<Global, _, _>(q, s, scheme.gap(), scheme.subst())
                    .unwrap_or_else(|e| panic!("pair {k}: {e}"));
            });
        }
        // Short-read alignment batches now stay on the SIMD lanes: no
        // dispatch-level fallbacks, and the band telemetry shows up.
        assert_eq!(run.stats.fallbacks, 0);
        assert!(run.stats.per_backend.iter().any(|b| b.backend == "simd"));
        assert!(
            run.stats
                .counters
                .get("simd.lane_pairs")
                .copied()
                .unwrap_or(0)
                > 0
        );
        // The lane transpose is the only sequence copy and is reported.
        assert!(
            run.stats
                .counters
                .get("simd.bytes_copied")
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert_eq!(run.stats.counters[SCHED_BYTES_COPIED], 0);
    }

    #[test]
    fn fixed_unsupported_backend_falls_back() {
        let pairs = read_pairs(40, 3);
        let view = BatchView::from_pairs(&pairs);
        // Free-end kind on the SIMD backend (the one kind its lanes
        // still refuse): every unit must fall back.
        let spec = SchemeSpec::global_linear(2, -1, -1).with_kind(KindSpec::FreeEnd);
        let dispatch = Dispatch::standard(Policy::Fixed(BackendId::Simd));
        let run = scheduler(2)
            .try_score_batch(&dispatch, &spec, &view)
            .unwrap();
        assert!(run.stats.fallbacks > 0);
        assert!(run.stats.per_backend.iter().all(|b| b.backend == "scalar"));
        // Every fallback here is a kind-capability refusal, and the
        // dedicated counter says so.
        assert_eq!(
            run.stats.counters[FALLBACK_KIND_UNSUPPORTED],
            run.stats.fallbacks
        );
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(run.results[k], spec.score_scalar(q, s), "pair {k}");
        }
    }

    #[test]
    fn kind_unsupported_counter_is_zero_for_auto_nonglobal_bins() {
        // Before the kind-generic SIMD kernels, every short semi-global
        // or local unit bounced off the lanes' caps; now `Auto` routes
        // them to SIMD directly and the kind-refusal counter stays
        // absent (additive counters are only recorded when bumped).
        let pairs = read_pairs(60, 17);
        let view = BatchView::from_pairs(&pairs);
        let sched = scheduler(2);
        for kind in [KindSpec::SemiGlobal, KindSpec::Local] {
            let spec = SchemeSpec::global_linear(2, -1, -1).with_kind(kind);
            let auto = Dispatch::standard(Policy::Auto);
            let run = sched.try_score_batch(&auto, &spec, &view).unwrap();
            assert_eq!(run.stats.fallbacks, 0, "{kind:?}");
            assert!(
                !run.stats.counters.contains_key(FALLBACK_KIND_UNSUPPORTED),
                "{kind:?}: {:?}",
                run.stats.counters
            );
            assert!(
                run.stats.per_backend.iter().any(|b| b.backend == "simd"),
                "{kind:?}: {:?}",
                run.stats.per_backend
            );
        }
    }

    #[test]
    fn large_pairs_take_the_exclusive_wavefront_path() {
        let mut sim = GenomeSim::new(9);
        let a = sim.generate(2600);
        let b = sim.mutate(&a, 0.05);
        let c = sim.generate(2400);
        let d = sim.mutate(&c, 0.10);
        let pairs = vec![(a, b), (c, d)];
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);
        let dispatch = Dispatch::standard(Policy::Auto);
        let run = scheduler(4)
            .try_score_batch(&dispatch, &spec, &view)
            .unwrap();
        assert!(run
            .stats
            .per_backend
            .iter()
            .any(|u| u.backend == "wavefront"));
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(run.results[k], spec.score_scalar(q, s), "pair {k}");
        }
        // Exclusive wavefront units ride the zero-copy path end to end.
        assert_eq!(run.stats.counters[SCHED_BYTES_COPIED], 0);
        assert!(!run.stats.counters.contains_key("wavefront.bytes_copied"));
    }

    #[test]
    fn oversized_pairs_score_through_the_shard_chain() {
        use crate::dispatch::DispatchPolicy;
        let mut sim = GenomeSim::new(21);
        let a = sim.generate(1200);
        let b = sim.mutate(&a, 0.08);
        let c = sim.generate(300);
        let d = sim.mutate(&c, 0.05);
        // One chromosome-scale pair (sharded) and one under the budget
        // (runs whole) in the same batch.
        let pairs = vec![(a, b), (c, d)];
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);
        let sharded = DispatchPolicy::fixed(BackendId::Wavefront)
            .shard_cells(1 << 18)
            .observe(true)
            .standard();
        let run = scheduler(4)
            .try_score_batch(&sharded, &spec, &view)
            .unwrap();
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(run.results[k], spec.score_scalar(q, s), "pair {k}");
        }
        // ~1.4M cells over a 256Ki budget → at least 5 slabs run, and
        // the registry's total reads the same count.
        let shards = run.stats.counters["wavefront.shards"];
        assert!(shards >= 5, "{:?}", run.stats.counters);
        let totals = sharded.metrics().unwrap().snapshot().counters;
        let key = ("anyseq_batch_shards_total", String::new());
        assert_eq!(totals.get(&key), Some(&shards));
        // The resident-footprint gauge rides along from the backend.
        assert!(run.stats.counters["wavefront.peak_shard_mb"] >= 1);
        assert!(run
            .stats
            .per_backend
            .iter()
            .any(|u| u.backend == "wavefront" && u.pairs == 2));

        // What sharding is for, as a number: the chain's resident peak
        // must undercut the border working set of the same pair run
        // whole. Both sides are MiB rounded up (the gauge's unit), so
        // the pair has to be wide enough that this is not `1 < 1`: a
        // short query against a 2^18-column subject keeps 2 MiB + of
        // column stripes whole and one eighth of that per slab.
        let subject = sim.generate(1 << 18);
        let query = sim.mutate(&subject.subseq(0..32), 0.03);
        let wide = vec![(query, subject)];
        let view = BatchView::from_pairs(&wide);
        let sched = scheduler(2);
        let policy = DispatchPolicy::fixed(BackendId::Wavefront);
        let whole = sched
            .try_score_batch(&policy.standard(), &spec, &view)
            .unwrap();
        let cut = sched
            .try_score_batch(
                &policy.shard_cells(view.total_cells() / 8).standard(),
                &spec,
                &view,
            )
            .unwrap();
        assert_eq!(cut.results, whole.results);
        assert!(cut.stats.counters["wavefront.shards"] >= 8);
        let whole_mb = whole.stats.counters["wavefront.border_bytes"].div_ceil(1 << 20);
        let peak_mb = cut.stats.counters["wavefront.peak_shard_mb"];
        assert!(whole_mb >= 3, "pair too small to bound: {whole_mb} MiB");
        assert!(
            peak_mb < whole_mb,
            "sharded resident peak {peak_mb} MiB vs {whole_mb} MiB unsharded"
        );
    }

    #[test]
    fn sharded_aligns_match_unsharded_and_count_their_slabs() {
        use crate::dispatch::DispatchPolicy;
        let mut sim = GenomeSim::new(33);
        let a = sim.generate(1000);
        let b = sim.mutate(&a, 0.07);
        let pairs = vec![(a, b)];
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);
        let plain = DispatchPolicy::fixed(BackendId::Wavefront).standard();
        let sharded = DispatchPolicy::fixed(BackendId::Wavefront)
            .shard_cells(1 << 18)
            .standard();
        let sched = scheduler(4);
        let base = sched.try_align_batch(&plain, &spec, &view).unwrap();
        let run = sched.try_align_batch(&sharded, &spec, &view).unwrap();
        // The walk goes through lines joined across the slabs: score
        // AND ops bit-identical to the unsharded run.
        assert_eq!(run.results[0].score, base.results[0].score);
        assert_eq!(run.results[0].ops, base.results[0].ops);
        // The kept-lines pass over the budget runs cut into slabs.
        assert!(
            run.stats.counters["wavefront.shards"] >= 3,
            "{:?}",
            run.stats.counters
        );
        assert!(!base.stats.counters.contains_key("wavefront.shards"));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "aligns 9, 12 and 20 kbp pairs: minutes unoptimised; CI runs it under --release"
    )]
    fn kept_trace_lines_stay_within_the_leaf_budget() {
        use crate::dispatch::DispatchPolicy;
        use anyseq_core::traceback::{leaf_edge, spacing, AlignConfig};
        // MiB of the lines a wavefront pass keeping every tile boundary
        // holds over an `n × m` rectangle (H + E rows, H + F columns, at
        // the engine's tile).
        let tile = crate::backends::TILE;
        let lines_mb = |n: usize, m: usize| {
            let scores = (n - 1) / tile * (2 * m + 1) + (m - 1) / tile * 2 * n;
            (scores * 4).div_ceil(1 << 20) as u64
        };
        // A pass's lines fit 16 base-case matrices at the spacing its
        // shape allows; the engine's finer tiles keep proportionally
        // more.
        let cutoff = AlignConfig::default().cutoff_area;
        let scale = leaf_edge(cutoff).div_ceil(tile);
        let bound = (16 * cutoff * scale).div_ceil(1 << 20) as u64;
        let mut sim = GenomeSim::new(34);
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);
        let policy = DispatchPolicy::fixed(BackendId::Wavefront).standard();
        // The 9 kbp long pair keeps every tile line. The 12 and 20 kbp
        // pairs are over the budget: their passes keep every second and
        // every third, and the walk aligns each block on the path
        // through lines of its own. Every tile line of theirs would
        // break the bound.
        let long = sim.generate(9_000);
        let longer = sim.generate(12_000);
        let longest = sim.generate(20_000);
        let every = |n: usize| spacing(n, n, cutoff).every;
        assert_eq!((every(9_000), every(12_000), every(20_000)), (1, 2, 3));
        assert!(lines_mb(12_000, 12_000) > bound, "{bound} MiB");
        for q in [long, longer, longest] {
            let pairs = vec![(q.clone(), sim.mutate(&q, 0.02))];
            let view = BatchView::from_pairs(&pairs);
            let run = scheduler(1).try_align_batch(&policy, &spec, &view).unwrap();
            let (q, s) = &pairs[0];
            assert_eq!(run.results[0].score, spec.score_scalar(q, s));
            let counters = &run.stats.counters;
            assert!(counters["wavefront.trace_tiles"] > 0, "{counters:?}");
            let peak = counters["wavefront.peak_trace_mb"];
            assert!(
                peak <= bound,
                "{} bp: {peak} MiB of lines, bound {bound}",
                q.len()
            );
            assert!(peak <= lines_mb(q.len(), s.len()), "{counters:?}");
        }
    }

    #[test]
    fn unit_too_large_is_a_terminal_refusal() {
        use crate::backends::WavefrontEngine;
        let mut sim = GenomeSim::new(7);
        let a = sim.generate(300);
        let b = sim.mutate(&a, 0.05);
        let pairs = vec![(a.clone(), b.clone())];
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_affine(2, -1, -2, -1);
        // A 90k-cell pair against a 10k-cell bound with no shard plan:
        // the refusal must surface instead of degrading to scalar (the
        // fallback would execute the very allocation the bound caps).
        let dispatch = Dispatch::standard(Policy::Fixed(BackendId::Wavefront)).with_engine(
            BackendId::Wavefront,
            Box::new(WavefrontEngine::default().with_max_unit_cells(10_000)),
        );
        let err = scheduler(2)
            .try_score_batch(&dispatch, &spec, &view)
            .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::UnitTooLarge {
                    backend: "wavefront",
                    ..
                }
            ),
            "{err}"
        );
        // A shard plan under the bound lifts the refusal: the same
        // pair runs as a slab chain whose resident unit fits.
        let ok = Dispatch::standard(Policy::Fixed(BackendId::Wavefront)).with_engine(
            BackendId::Wavefront,
            Box::new(
                WavefrontEngine::default()
                    .with_shard_cells(8_192)
                    .with_max_unit_cells(10_000),
            ),
        );
        let run = scheduler(2).try_score_batch(&ok, &spec, &view).unwrap();
        assert_eq!(run.results[0], spec.score_scalar(&a, &b));
    }

    /// `NEG_INF`'s envelope is enforced where a batch enters: a
    /// 10 bp pair (n + m = 20) scores exactly at the largest per-step
    /// score under the bound, one more is refused, not wrapped, and so
    /// is a positive gap score.
    #[test]
    fn the_score_envelope_is_checked_at_the_batch_entry() {
        let q = Seq::from_ascii(b"ACGTACGTAC").unwrap();
        let pairs = vec![(q.clone(), q)];
        let view = BatchView::from_pairs(&pairs);
        let dispatch = Dispatch::standard(Policy::Auto);
        let score = |spec| {
            scheduler(2)
                .try_score_batch(&dispatch, &spec, &view)
                .map(|r| r.results[0])
        };
        let align = |spec| {
            scheduler(2)
                .try_align_batch(&dispatch, &spec, &view)
                .map(|r| r.results[0].score)
        };
        let spec = |step, open| SchemeSpec::global_affine(step, -1, open, -1);
        let step = ((anyseq_core::SCORE_ENVELOPE - 1) / 20) as i32;
        assert_eq!(score(spec(step, -2)).unwrap(), 10 * step);
        assert_eq!(align(spec(step, -2)).unwrap(), 10 * step);
        for (bad, says) in [
            (spec(step + 1, -2), "out of range"),
            (spec(2, 1), "non-positive"),
        ] {
            for err in [score(bad).unwrap_err(), align(bad).unwrap_err()] {
                let err = err.to_string();
                assert!(
                    err.contains("backend scheduler") && err.contains(says),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn empty_and_degenerate_batches() {
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let dispatch = Dispatch::standard(Policy::Auto);
        let sched = scheduler(4);
        let run = sched
            .try_score_batch(&dispatch, &spec, &BatchView::default())
            .unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.stats.pairs, 0);
        assert_eq!(run.stats.counters[SCHED_BYTES_COPIED], 0);

        let q = Seq::from_ascii(b"ACGT").unwrap();
        let pairs = vec![(q.clone(), Seq::new()), (q.clone(), q)];
        let view = BatchView::from_pairs(&pairs);
        let run = sched.try_score_batch(&dispatch, &spec, &view).unwrap();
        assert_eq!(run.results, vec![-4, 8]);
    }

    /// The chain `Auto` picks for the pairs of these tests, and a
    /// second route for pairs of at least 600 cells.
    fn lanes(_cells: u64) -> Vec<BackendId> {
        vec![BackendId::Simd, BackendId::Scalar]
    }

    fn by_size(cells: u64) -> Vec<BackendId> {
        if cells >= 600 {
            vec![BackendId::Wavefront, BackendId::Scalar]
        } else {
            lanes(cells)
        }
    }

    #[test]
    fn units_are_cut_in_exact_dimension_order_with_a_tapering_tail() {
        // A wide run of shapes, a narrow one and empty sequences;
        // lengths from a fixed LCG.
        let mut x = 7u64;
        let mut next = |lo: usize, span: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + (x >> 33) as usize % span
        };
        let mut shapes: Vec<(usize, usize)> =
            (0..4000).map(|_| (next(17, 16), next(33, 16))).collect();
        shapes.extend((0..40).map(|_| (next(1, 16), next(1, 16))));
        shapes.extend([(0, 0), (0, 5), (0, 0)]);
        let store: Vec<(Vec<u8>, Vec<u8>)> = shapes
            .iter()
            .map(|&(q, s)| (vec![1u8; q], vec![2u8; s]))
            .collect();
        let view = BatchView::from_refs(store.iter().map(|(q, s)| PairRef::new(q, s)).collect());
        let all: Vec<usize> = (0..view.len()).collect();
        let dims = |k: usize| (view.get(k).q.len(), view.get(k).s.len(), k);

        // One route: the units, end to end, are the batch in exact
        // `(|q|, |s|)` order, ties in input order.
        let sched = BatchScheduler::new(BatchCfg::threads(2));
        let units = sched.cut_units(&view, &all, lanes);
        let order: Vec<usize> = units.iter().flat_map(|u| u.indices.clone()).collect();
        assert_eq!(order.len(), view.len());
        assert!(order.windows(2).all(|w| dims(w[0]) < dims(w[1])));
        // Guided cut: sizes never grow along the cut, start at the
        // unit bound, end at the 32-pair floor, and stay lane-group
        // multiples.
        let sizes: Vec<usize> = units.iter().map(|u| u.indices.len()).collect();
        assert_eq!(sizes[0], UNIT_PAIRS);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
        let cut = &sizes[..sizes.len() - 1];
        assert!(cut.iter().all(|len| len % 32 == 0), "{sizes:?}");
        assert!(
            sizes.iter().rev().take(3).all(|&len| len <= 32),
            "{sizes:?}"
        );
        // One worker has nobody to finish together with: plain chunks.
        let solo = BatchScheduler::new(BatchCfg::threads(1)).cut_units(&view, &all, lanes);
        let sizes: Vec<usize> = solo.iter().map(|u| u.indices.len()).collect();
        assert_eq!(sizes, [512, 512, 512, 512, 512, 512, 512, 459]);

        // Two routes: a unit never mixes them, each route is cut in
        // exact-dimension order, and the guided cut tapers across both.
        let units = sched.cut_units(&view, &all, by_size);
        for unit in &units {
            for &k in &unit.indices {
                assert_eq!(unit.chain, by_size(view.get(k).cells()), "pair {k}");
            }
        }
        for chain in [lanes(0), by_size(600)] {
            let route = units.iter().filter(|u| u.chain == chain);
            let order: Vec<usize> = route.flat_map(|u| u.indices.clone()).collect();
            assert!(order.windows(2).all(|w| dims(w[0]) < dims(w[1])));
        }
        let tail = &units[units.len() - 3..];
        assert!(tail.iter().all(|u| u.indices.len() <= 32));
    }

    #[test]
    fn cutting_is_deterministic_and_covers_input() {
        let pairs = read_pairs(150, 5);
        let view = BatchView::from_pairs(&pairs);
        let sched = scheduler(3);
        let all: Vec<usize> = (0..view.len()).collect();
        let units = sched.cut_units(&view, &all, by_size);
        let again = sched.cut_units(&view, &all, by_size);
        let cut = |units: &[Unit]| -> Vec<Vec<usize>> {
            units.iter().map(|u| u.indices.clone()).collect()
        };
        assert_eq!(cut(&units), cut(&again));
        let ids: Vec<u32> = units.iter().map(|u| u.id).collect();
        assert_eq!(ids, (0..units.len() as u32).collect::<Vec<_>>());
        let mut seen: Vec<usize> = units.iter().flat_map(|u| u.indices.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..pairs.len()).collect::<Vec<_>>());
        for unit in &units {
            assert!(unit.indices.len() <= UNIT_PAIRS);
            let cells: u64 = unit
                .indices
                .iter()
                .map(|&k| (pairs[k].0.len() * pairs[k].1.len()) as u64)
                .sum();
            assert_eq!(unit.cells, cells);
        }
    }

    /// 16 reads of 50–150 bp, each inside a reference window 1.5× its
    /// length, interleaved: the shape of one `serve_mixed` request.
    fn serve_window(seed: u64) -> Vec<(Seq, Seq)> {
        let mut sim = GenomeSim::new(seed);
        (0..16)
            .map(|r| {
                let len = 50 + (r * 37 + seed as usize) % 101;
                let window = sim.generate(len * 3 / 2);
                let at = (r * 13) % (window.len() - len + 1);
                let read = sim.mutate(&window.subseq(at..at + len), 0.02);
                (read, window)
            })
            .collect()
    }

    #[test]
    fn a_serve_shaped_window_is_one_unit_on_the_lanes() {
        use crate::dispatch::DispatchPolicy;
        let spec = SchemeSpec::global_affine(2, -1, -2, -1).with_kind(KindSpec::SemiGlobal);
        for seed in 0..8 {
            let pairs = serve_window(seed);
            let view = BatchView::from_pairs(&pairs);
            let dispatch = DispatchPolicy::auto().observe(true).standard();
            let run = scheduler(2)
                .try_score_batch(&dispatch, &spec, &view)
                .unwrap();
            for (k, (q, s)) in pairs.iter().enumerate() {
                assert_eq!(
                    run.results[k],
                    spec.score_scalar(q, s),
                    "seed {seed} pair {k}"
                );
            }
            // One unit: the pool runs on the calling thread alone.
            assert_eq!(run.stats.units, 1, "seed {seed}");
            assert!(run.stats.spans.iter().all(|s| s.worker == 0), "seed {seed}");
            let counter = |name: &str| run.stats.counters.get(name).copied().unwrap_or(0);
            assert!(
                counter("simd.lane_pairs") >= 15,
                "seed {seed}: {:?}",
                run.stats.counters
            );
            assert!(counter("simd.pad_cells") > 0, "seed {seed}");
        }
    }

    #[test]
    fn equal_dimension_batches_pad_nothing() {
        let q = Seq::from_ascii(&b"ACGTTGCA".repeat(12)).unwrap();
        let s = Seq::from_ascii(&b"ACGATGCA".repeat(12)).unwrap();
        let pairs = vec![(q, s); 40];
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_affine(2, -1, -2, -1).with_kind(KindSpec::Local);
        let dispatch = Dispatch::standard(Policy::Auto);
        let run = scheduler(2)
            .try_score_batch(&dispatch, &spec, &view)
            .unwrap();
        assert_eq!(run.stats.counters["simd.lane_pairs"], 40);
        assert!(!run.stats.counters.contains_key("simd.pad_cells"));
    }

    #[test]
    fn cache_serves_duplicates_and_repeat_batches() {
        use crate::cache::{CACHE_BYTES, CACHE_HITS, CACHE_INGEST_BYTES, CACHE_MISSES};
        use crate::dispatch::DispatchPolicy;
        // 120 unique reads plus one duplicate of each: the cold run
        // must dedupe in-batch, the warm run must not compute at all.
        let unique = read_pairs(120, 21);
        let mut pairs = unique.clone();
        pairs.extend(unique.iter().cloned());
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let dispatch = DispatchPolicy::auto().cache_mb(8).standard();
        let sched = scheduler(4);

        let cold = sched.try_score_batch(&dispatch, &spec, &view).unwrap();
        assert_eq!(cold.stats.counters[CACHE_HITS], 120, "in-batch duplicates");
        assert_eq!(cold.stats.counters[CACHE_MISSES], 120);
        assert_eq!(
            cold.stats.counters[CACHE_HITS] + cold.stats.counters[CACHE_MISSES],
            cold.stats.pairs
        );
        assert!(cold.stats.counters[CACHE_BYTES] > 0);
        assert!(cold.stats.counters[CACHE_INGEST_BYTES] > 0);
        // The dispatch hot path still copies nothing.
        assert_eq!(cold.stats.counters[SCHED_BYTES_COPIED], 0);
        for (k, (q, s)) in pairs.iter().enumerate() {
            assert_eq!(cold.results[k], spec.score_scalar(q, s), "pair {k}");
        }

        let warm = sched.try_score_batch(&dispatch, &spec, &view).unwrap();
        assert_eq!(warm.stats.counters[CACHE_HITS], warm.stats.pairs);
        assert_eq!(warm.stats.counters[CACHE_MISSES], 0);
        assert!(
            warm.stats.per_backend.is_empty(),
            "a fully warm batch computes nothing: {:?}",
            warm.stats.per_backend
        );
        assert_eq!(warm.results, cold.results, "warm run is bit-identical");

        // Alignment requests key separately from score requests…
        let aln_cold = sched.try_align_batch(&dispatch, &spec, &view).unwrap();
        assert_eq!(aln_cold.stats.counters[CACHE_MISSES], 120);
        let aln_warm = sched.try_align_batch(&dispatch, &spec, &view).unwrap();
        assert_eq!(aln_warm.stats.counters[CACHE_HITS], aln_warm.stats.pairs);
        // …and served alignments are bit-identical, CIGARs included.
        for (k, (a, b)) in aln_cold.results.iter().zip(&aln_warm.results).enumerate() {
            assert_eq!(a.score, b.score, "pair {k}");
            assert_eq!(a.ops, b.ops, "pair {k}");
        }
        // In-batch duplicates carry their leader's exact alignment.
        for k in 0..120 {
            assert_eq!(aln_cold.results[k].ops, aln_cold.results[k + 120].ops);
        }
    }

    #[test]
    fn cache_counters_cover_empty_and_degenerate_batches() {
        use crate::cache::{CACHE_HITS, CACHE_MISSES};
        use crate::dispatch::DispatchPolicy;
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let dispatch = DispatchPolicy::auto().cache_mb(1).standard();
        let sched = scheduler(2);
        let run = sched
            .try_score_batch(&dispatch, &spec, &BatchView::default())
            .unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.stats.counters[CACHE_HITS], 0);
        assert_eq!(run.stats.counters[CACHE_MISSES], 0);

        // Empty sequences cache like any other content.
        let q = Seq::from_ascii(b"ACGT").unwrap();
        let pairs = vec![
            (q.clone(), Seq::new()),
            (q.clone(), q),
            (Seq::new(), Seq::new()),
        ];
        let view = BatchView::from_pairs(&pairs);
        let cold = sched.try_score_batch(&dispatch, &spec, &view).unwrap();
        assert_eq!(cold.results, vec![-4, 8, 0]);
        let warm = sched.try_score_batch(&dispatch, &spec, &view).unwrap();
        assert_eq!(warm.results, cold.results);
        assert_eq!(warm.stats.counters[CACHE_HITS], 3);
    }

    #[test]
    fn dedup_never_merges_on_a_key_alone() {
        // Three pairs handed the *same* forged key: two byte-different
        // ones and a true duplicate of the first. Only the duplicate
        // follows; both distinct pairs lead, and so both compute.
        let (a, b) = ([0u8, 1, 2, 3], [3u8, 2, 1, 0]);
        let s = [1u8, 1, 1];
        let refs = vec![
            PairRef::new(&a, &s),
            PairRef::new(&b, &s),
            PairRef::new(&a, &s),
            PairRef::new(&s, &a),
        ];
        let view = BatchView::from_refs(refs);
        let (leader_of, leaders) = dedup(&view, &[CacheKey(42); 4]);
        assert_eq!(leader_of, [0, 1, 0, 3]);
        assert_eq!(leaders, [0, 1, 3]);
        let dispatch = Dispatch::standard(Policy::Auto);
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let misses: Vec<usize> = leaders.iter().map(|&k| k as usize).collect();
        let plan = scheduler(2).plan(&dispatch, &spec, &view, &misses, false);
        let mut computed: Vec<usize> = plan.units.iter().flat_map(|u| u.indices.clone()).collect();
        computed.sort_unstable();
        assert_eq!(computed, [0, 1, 3]);
        // Honest keys: equal bytes share a key, and the pass is empty
        // on an empty batch.
        let keys: Vec<_> = (0..view.len())
            .map(|k| CacheKey::for_pair(&spec, &view.get(k), ReqKind::Score))
            .collect();
        assert_eq!(dedup(&view, &keys).0, [0, 1, 0, 3]);
        assert_eq!(dedup(&BatchView::default(), &[]), (vec![], vec![]));
    }

    #[test]
    fn an_oversize_pair_is_answered_but_never_flushes_its_shard() {
        use crate::cache::{CACHE_HITS, CACHE_INGEST_BYTES, CACHE_MISSES};
        use crate::dispatch::DispatchPolicy;
        // A 1 MiB pair against a 1 MiB cache (64 KiB a shard): caching
        // it would push out every resident of its shard and then the
        // pair itself.
        let dispatch = DispatchPolicy::fixed(BackendId::Scalar)
            .cache_mb(1)
            .standard();
        let cache = dispatch.cache().unwrap();
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let sched = scheduler(2);
        let mut pairs = read_pairs(64, 5);
        let warm = sched
            .try_score_batch(&dispatch, &spec, &BatchView::from_pairs(&pairs))
            .unwrap();
        assert!(warm.stats.counters[CACHE_INGEST_BYTES] > 0);
        let residents = cache.totals();
        assert_eq!(residents.entries, 64);

        let long = Seq::from_ascii(&b"ACGT".repeat(1 << 18)).unwrap();
        pairs.push((long, Seq::from_ascii(b"GT").unwrap()));
        let view = BatchView::from_pairs(&pairs);
        for _ in 0..2 {
            let run = sched.try_score_batch(&dispatch, &spec, &view).unwrap();
            assert_eq!(
                run.results[64],
                spec.score_scalar(&pairs[64].0, &pairs[64].1)
            );
            assert_eq!(run.results[..64], warm.results[..]);
            assert_eq!(run.stats.counters[CACHE_HITS], 64, "residents survive");
            assert_eq!(run.stats.counters[CACHE_MISSES], 1);
            assert_eq!(run.stats.counters[CACHE_INGEST_BYTES], 0);
            let now = cache.totals();
            assert_eq!((now.entries, now.bytes), (64, residents.bytes));
            assert_eq!(now.evictions, 0);
        }
    }

    #[test]
    fn seq_store_view_runs_without_owned_pairs() {
        use anyseq_seq::SeqStore;
        // The arena path: ingest once, dispatch borrowed views forever.
        let pairs = read_pairs(50, 11);
        let mut store = SeqStore::new();
        let ids: Vec<_> = pairs
            .iter()
            .map(|(q, s)| (store.push(q).unwrap(), store.push(s).unwrap()))
            .collect();
        drop(pairs);
        let view = store.view(&ids);
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let dispatch = Dispatch::standard(Policy::Auto);
        let run = scheduler(2)
            .try_score_batch(&dispatch, &spec, &view)
            .unwrap();
        assert_eq!(run.results.len(), 50);
        for (k, &(q, s)) in ids.iter().enumerate() {
            crate::with_scheme!(&spec, |scheme, _K| {
                assert_eq!(
                    run.results[k],
                    scheme.score_codes(store.get(q), store.get(s)),
                    "pair {k}"
                );
            });
        }
    }

    /// A foreign engine that breaks the one-value-per-pair contract.
    struct ShortChanger;

    impl Engine for ShortChanger {
        fn caps(&self) -> crate::engine::Caps {
            crate::engine::Caps {
                name: "short-changer",
                ..crate::backends::ScalarEngine.caps()
            }
        }

        fn score_batch(
            &self,
            spec: &SchemeSpec,
            pairs: &[PairRef<'_>],
            threads: usize,
        ) -> Result<Vec<Score>, EngineError> {
            let short = &pairs[..pairs.len() - 1];
            crate::backends::ScalarEngine.score_batch(spec, short, threads)
        }

        fn align_batch(
            &self,
            spec: &SchemeSpec,
            pairs: &[PairRef<'_>],
            threads: usize,
        ) -> Result<Vec<Alignment>, EngineError> {
            crate::backends::ScalarEngine.align_batch(spec, pairs, threads)
        }
    }

    #[test]
    fn miscounted_or_unfilled_results_are_errors_not_panics() {
        let pairs = read_pairs(40, 8);
        let view = BatchView::from_pairs(&pairs);
        let spec = SchemeSpec::global_linear(2, -1, -1);
        let dispatch = Dispatch::standard(Policy::Fixed(BackendId::Simd))
            .with_engine(BackendId::Simd, Box::new(ShortChanger));
        let err = scheduler(2)
            .try_score_batch(&dispatch, &spec, &view)
            .unwrap_err();
        assert!(
            err.to_string().contains("short-changer") && err.to_string().contains("results for"),
            "{err}"
        );
        // The same engine keeps its contract on the align path.
        assert!(scheduler(2)
            .try_align_batch(&dispatch, &spec, &view)
            .is_ok());

        let mut slots = Slots::new(3);
        slots.fill(vec![(2, 'c'), (0, 'a')]).unwrap();
        assert!(slots.fill(vec![(0, 'x')]).is_err(), "written twice");
        assert!(slots.fill(vec![(3, 'x')]).is_err(), "outside the batch");
        let err = slots.finish().unwrap_err();
        assert!(
            err.to_string().contains("slot 1 was never written"),
            "{err}"
        );
        let mut slots = Slots::new(2);
        slots.fill(vec![(1, 'b'), (0, 'a')]).unwrap();
        assert_eq!(slots.finish().unwrap(), vec!['a', 'b']);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `plan` alone, no engine executed: whatever the lengths,
        /// duplicate rate, hit pattern, pool size and policy, the plan
        /// is a partition with consistent routing.
        #[test]
        fn plan_partitions_the_batch_and_routes_consistently(
            shapes in prop::collection::vec(
                (
                    prop_oneof![
                        (0usize..6, 0usize..6),
                        (20usize..70, 20usize..70),
                        (500usize..700, 500usize..700),
                        // At or past `AUTO_WAVEFRONT_MIN_CELLS`: the
                        // class `Auto` sends to the wavefront.
                        (2048usize..2100, 2048usize..2100),
                    ],
                    0usize..3,
                ),
                0..140,
            ),
            threads in 1usize..9,
            policy in prop_oneof![
                Just(Policy::Auto),
                Just(Policy::Fixed(BackendId::Simd)),
                Just(Policy::Fixed(BackendId::Wavefront)),
                Just(Policy::Fixed(BackendId::Scalar)),
            ],
            (align, cached, hit_every) in (0u8..2, 0u8..2, 2usize..6),
            forged in 0u8..2,
        ) {
            let (align, cached) = (align == 1, cached == 1);
            // Content is a function of (length, variant): equal shapes
            // are byte-identical duplicates.
            let codes = |len: usize, variant: usize| -> Vec<u8> {
                (0..len).map(|i| ((i * 7 + variant) % 4) as u8).collect()
            };
            let store: Vec<(Vec<u8>, Vec<u8>)> = shapes
                .iter()
                .map(|&((q, s), v)| (codes(q, v), codes(s, v + 1)))
                .collect();
            let refs = store.iter().map(|(q, s)| PairRef::new(q, s));
            let view = BatchView::from_refs(refs.collect());
            let n = view.len();
            let spec = SchemeSpec::global_affine(2, -1, -2, -1);
            let dispatch = Dispatch::standard(policy);
            let sched = BatchScheduler::new(BatchCfg::threads(threads));
            let kind = if align { ReqKind::Align } else { ReqKind::Score };
            // Forged: byte-different pairs share one of four keys, as
            // colliding hashes would have them.
            let key_of = |k: usize| {
                let key = CacheKey::for_pair(&spec, &view.get(k), kind);
                if forged == 1 { CacheKey(key.0 % 4) } else { key }
            };
            let keys: Vec<CacheKey> = if cached { (0..n).map(key_of).collect() } else { Vec::new() };
            // The dedup pass folds duplicates onto leaders; an arbitrary
            // subset of the leaders then "hits".
            let (leader_of, leaders) = dedup(&view, &keys);
            let leader_of = |k: usize| leader_of.get(k).map_or(k, |&l| l as usize);
            prop_assert!(cached || leaders.is_empty());
            let is_hit = |k: usize| cached && leader_of(k) == k && k % hit_every == 1;
            let misses: Vec<usize> = (0..n).filter(|&k| leader_of(k) == k && !is_hit(k)).collect();

            let plan = sched.plan(&dispatch, &spec, &view, &misses, align);

            // hits ∪ followers ∪ unit indices partition 0..n.
            let mut seen: Vec<usize> = (0..n).filter(|&k| is_hit(k)).collect();
            seen.extend((0..n).filter(|&k| leader_of(k) != k));
            seen.extend(plan.units.iter().flat_map(|u| &u.indices));
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
            // Every follower rides a byte-identical leader that computes
            // (or hit), and no two leaders hold the same bytes.
            for dup in (0..n).filter(|&k| leader_of(k) != k) {
                let leader = leader_of(dup);
                let computes = plan.units.iter().any(|u| u.indices.contains(&leader));
                prop_assert!(computes || is_hit(leader));
                prop_assert!(dup > leader);
                prop_assert_eq!(view.get(dup).q, view.get(leader).q);
                prop_assert_eq!(view.get(dup).s, view.get(leader).s);
            }
            for (i, &a) in leaders.iter().enumerate() {
                for &b in &leaders[..i] {
                    let (a, b) = (view.get(a as usize), view.get(b as usize));
                    prop_assert!(a.q != b.q || a.s != b.s);
                }
            }
            // Units: sequential ids, bounded, in exact-dimension order,
            // cut at lane-group multiples, and every member routed by its
            // own cells to the unit's chain.
            let dims = |k: usize| (view.get(k).q.len(), view.get(k).s.len(), k);
            for (i, unit) in plan.units.iter().enumerate() {
                prop_assert_eq!(unit.id as usize, i);
                prop_assert!(!unit.indices.is_empty() && unit.indices.len() <= UNIT_PAIRS);
                prop_assert!(unit.indices.windows(2).all(|w| dims(w[0]) < dims(w[1])));
                let mut cells = 0;
                for &k in &unit.indices {
                    let p = view.get(k);
                    cells += p.cells();
                    prop_assert_eq!(&unit.chain, &dispatch.candidates(&spec, p.cells(), align));
                }
                prop_assert_eq!(unit.cells, cells);
                let full = plan.units.get(i + 1).is_some_and(|next| next.chain == unit.chain);
                if full && unit.indices.len() > 32 {
                    prop_assert_eq!(unit.indices.len() % 32, 0, "lane-group cut");
                }
            }
            // pooled ∪ exclusive covers the units once; exclusive ⇔
            // the first candidate owns the machine; pooled is LPT.
            let mut routed = [plan.pooled.clone(), plan.exclusive.clone()].concat();
            routed.sort_unstable();
            prop_assert_eq!(routed, (0..plan.units.len()).collect::<Vec<_>>());
            for &u in &plan.pooled {
                prop_assert!(!dispatch.is_exclusive(plan.units[u].chain[0]));
            }
            for &u in &plan.exclusive {
                prop_assert!(dispatch.is_exclusive(plan.units[u].chain[0]));
            }
            for w in plan.pooled.windows(2) {
                prop_assert!(plan.units[w[0]].cells >= plan.units[w[1]].cells, "LPT");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The cache is invisible in the results — every kind, gap
        /// model, request type and pool size, in-batch duplicates and
        /// cross-batch repeats, under a budget small enough that every
        /// ring wraps several times over the run.
        #[test]
        fn cached_batches_match_uncached_while_the_rings_wrap(
            (kind, affine, align) in (0usize..4, 0u8..2, 0u8..2),
            threads in prop_oneof![Just(1usize), Just(2), Just(4)],
            (batch, distinct) in (1usize..700, 1usize..160),
            budget_kib in prop_oneof![Just(8usize), Just(48)],
            seed in 0u64..1 << 40,
        ) {
            use crate::cache::{CACHE_BYTES, CACHE_EVICTIONS, CACHE_HITS, CACHE_MISSES};
            let (affine, align) = (affine == 1, align == 1);
            let kinds = [KindSpec::Global, KindSpec::SemiGlobal, KindSpec::Local, KindSpec::FreeEnd];
            let spec = if affine {
                SchemeSpec::global_affine(2, -1, -2, -1)
            } else {
                SchemeSpec::global_linear(2, -1, -1)
            }
            .with_kind(kinds[kind]);
            let mut x = seed | 1;
            let mut next = move |span: usize| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as usize % span
            };
            let pool: Vec<(Vec<u8>, Vec<u8>)> = (0..3 * distinct)
                .map(|_| {
                    let (q, s) = (4 + next(28), 4 + next(28));
                    let q: Vec<u8> = (0..q).map(|_| next(4) as u8).collect();
                    ((0..s).map(|i| if next(5) == 0 { next(4) as u8 } else { q[i % q.len()] }).collect(), q)
                })
                .collect();
            // Scores and alignments both ride the lanes: a pair has one
            // alignment whichever backend or lane group computes it, so
            // dedup regrouping the lanes cannot show.
            let plain = Dispatch::standard(Policy::Auto);
            let cached = Dispatch::standard(Policy::Auto).with_cache_budget(budget_kib << 10);
            let sched = BatchScheduler::new(BatchCfg::threads(threads));
            let mut evictions = 0;
            for round in 0..4 {
                // A window of the pool that slides by half its width:
                // duplicates inside a batch, repeats across batches.
                let refs = (0..batch).map(|_| {
                    let (q, s) = &pool[(round * distinct / 2 + next(distinct)) % pool.len()];
                    PairRef::new(q, s)
                });
                let view = BatchView::from_refs(refs.collect());
                let stats = if align {
                    let want = sched.try_align_batch(&plain, &spec, &view).unwrap();
                    let got = sched.try_align_batch(&cached, &spec, &view).unwrap();
                    prop_assert_eq!(got.results, want.results, "round {}", round);
                    got.stats
                } else {
                    let want = sched.try_score_batch(&plain, &spec, &view).unwrap();
                    let got = sched.try_score_batch(&cached, &spec, &view).unwrap();
                    prop_assert_eq!(got.results, want.results, "round {}", round);
                    got.stats
                };
                let count = |name: &str| stats.counters[name];
                prop_assert_eq!(count(CACHE_HITS) + count(CACHE_MISSES), stats.pairs);
                prop_assert!(count(CACHE_MISSES) <= distinct as u64);
                prop_assert!(count(CACHE_BYTES) <= (budget_kib << 10) as u64);
                prop_assert_eq!(count(SCHED_BYTES_COPIED), 0);
                evictions += count(CACHE_EVICTIONS);
            }
            let entries = cached.cache().unwrap().totals().entries;
            prop_assert!(batch.min(distinct) < 100 || budget_kib > 8 || evictions > 2 * entries);
        }
    }
}
