//! The traced run: the same kinds of input the workloads use, priced
//! at each layer of the crate stack from outside.
//!
//! Three ladders, each a sequence of rungs that time one public call
//! on a fixed slice — the first 8,192-pair batch of `reads_score`
//! (`core` → `simd` → `engine`), one long pair from `long_pair`'s
//! generator (`core` → `wavefront` → `engine`) and the first pairs of
//! `serve_mixed` (`serve`). One thread unless the name ends `_nt`.
//! "Added" rows are differences between adjacent rungs. Every rung's
//! output is checked against the oracle; each rung and each rep is a
//! span (see `trace.rs`).
//!
//! The traced run does not depend on `--workload`: every invocation
//! measures every rung, so each per-layer metric has one definition.

use crate::gen;
use crate::measure::{median, nproc, percentile, timed};
use crate::oracle::{self, Sch};
use crate::trace::{self, Trace};
use crate::workloads::{self, refs, Daemon, Outcome, Setup, Traffic, Workload};
use crate::{Metric, Report};
use anyseq_baselines::{ParasailLike, SeqAnLike};
use anyseq_core::pass::{init_left_f, init_left_h, init_top_e, init_top_h};
use anyseq_core::{AffineGap, GapModel, Global};
use anyseq_engine::{
    BackendId, BatchCfg, BatchScheduler, DispatchPolicy, Engine, ReqKind, MIN_SHARD_CELLS,
};
use anyseq_seq::{BatchView, PairRef, Seq};
use anyseq_serve::proto::{decode_message, encode_request, encode_response};
use anyseq_serve::proto::{Message, Request, Response, Results};
use anyseq_serve::ServeConfig;
use anyseq_simd::kernel::{from16, to16};
use anyseq_simd::{
    align_batch_simd, block_kernel_kind, score_batch_simd_stats, simd_tiled_score_pass, BandCfg,
    BlockBorders, I16s,
};
use anyseq_wavefront::{ParallelCfg, ParallelExt};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The contract caps a whole traced run at a few tens of seconds for
/// some fifty rungs, so a rung stops at three reps once it has run
/// this long; fast rungs get as many reps as fit.
const RUNG_SECONDS: f64 = 0.4;
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 400;

const LANES: usize = 16;
const SHORT_PAIRS: usize = 8192;
/// Slower rungs (scalar, traceback) run on a prefix of the slice.
const SCALAR_PAIRS: usize = 1024;
const ALIGN_PAIRS: usize = 2048;
const LONG_LEN: usize = 8000;
const RTT_REQUESTS: usize = 200;
const WINDOW_PAIRS: usize = 512;
const WINDOW_REQUESTS: usize = 16;
const MINI_REQS_PER_CONN: usize = 512;
/// About what one micro-batching window holds under `serve_mixed`.
const SERVE_WINDOW_PAIRS: usize = 128;

const SHORT: u32 = 1;
const LONG: u32 = 2;
const SERVE: u32 = 3;

/// What one rep of a rung works through.
#[derive(Clone, Copy)]
struct Load {
    pairs: u64,
    cells: u64,
}

/// Median seconds of a rung's reps, their count and `(max − min) / median`.
#[derive(Clone, Copy)]
struct Sample {
    s: f64,
    reps: usize,
    spread: f64,
}

impl Sample {
    fn of(walls: &[f64]) -> Sample {
        let s = median(walls);
        Sample {
            s,
            reps: walls.len(),
            spread: (percentile(walls, 100.0) - percentile(walls, 0.0)) / s,
        }
    }

    /// Backing for a row that is not a timed median: `n` samples.
    fn counted(n: usize) -> Sample {
        Sample {
            s: 0.0,
            reps: n,
            spread: 0.0,
        }
    }
}

struct Row {
    metric: Metric,
    spread: f64,
}

struct Ladder {
    trace: Trace,
    id: u32,
    /// The previous rung's span: the next rung's parent.
    above: Option<u32>,
    rows: Vec<Row>,
    checks: Outcome,
}

impl Ladder {
    fn start(&mut self, id: u32) {
        self.id = id;
        self.above = None;
    }

    /// Times `run` until the rung's budget is spent; `check` verifies
    /// each rep's output, untimed.
    fn rung<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        load: Load,
        mut run: impl FnMut() -> T,
        check: impl FnMut(&T) -> Result<(), String>,
    ) -> Sample {
        self.rung_prepared(name, layer, load, || (), |_| run(), check)
    }

    /// [`Ladder::rung`] whose every rep starts from a fresh, untimed `prep`.
    fn rung_prepared<P, T>(
        &mut self,
        name: &str,
        layer: &'static str,
        load: Load,
        mut prep: impl FnMut() -> P,
        mut run: impl FnMut(&mut P) -> T,
        mut check: impl FnMut(&T) -> Result<(), String>,
    ) -> Sample {
        let Load { pairs, cells } = load;
        let rung = self.phase(name, layer, load);
        let mut walls = Vec::new();
        while walls.len() < MIN_REPS
            || (walls.iter().sum::<f64>() < RUNG_SECONDS && walls.len() < MAX_REPS)
        {
            let mut input = prep();
            let rep = format!("{name}#{}", walls.len());
            let span = self
                .trace
                .open(&rep, layer, self.id, Some(rung), pairs, cells);
            let t0 = Instant::now();
            let output = std::hint::black_box(run(&mut input));
            walls.push(t0.elapsed().as_secs_f64());
            self.trace.close(span);
            let verdict = check(&output).map_err(|e| format!("{name}: {e}"));
            self.checks.op(verdict, pairs, cells);
        }
        self.trace.close(rung);
        Sample::of(&walls)
    }

    /// Opens the next rung's span; the caller closes it.
    fn phase(&mut self, name: &str, layer: &'static str, load: Load) -> u32 {
        let span = self
            .trace
            .open(name, layer, self.id, self.above, load.pairs, load.cells);
        self.above = Some(span);
        span
    }

    fn row(&mut self, name: &str, unit: &'static str, value: f64, from: Sample) {
        self.rows.push(Row {
            metric: Metric::new(name, unit, value, from.reps),
            spread: from.spread,
        });
    }

    /// A throughput row: `cells` per median rep.
    fn gcups(&mut self, name: &str, cells: u64, from: Sample) {
        self.row(name, "Gcell/s", cells as f64 / from.s / 1e9, from);
    }

    /// An optional program counter: `-1` when the program does not
    /// report it (renamed, removed, or zero work of that kind).
    fn counter(&mut self, name: &str, unit: &'static str, value: Option<f64>) {
        self.row(name, unit, value.unwrap_or(-1.0), Sample::counted(1));
    }
}

fn expect_scores(got: &[i32], expected: &[i32]) -> Result<(), String> {
    workloads::check_scores(got, expected.iter().copied())
}

/// One pre-transposed lane group: `LANES` pairs of equal dimensions.
struct LaneGroup {
    lanes: [usize; LANES],
    q_rows: Vec<[u8; LANES]>,
    s_cols: Vec<[u8; LANES]>,
}

fn lane_groups(pairs: &[PairRef<'_>]) -> Vec<LaneGroup> {
    let mut by_dims: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (k, p) in pairs.iter().enumerate() {
        by_dims.entry((p.q.len(), p.s.len())).or_default().push(k);
    }
    let mut groups = Vec::new();
    for (&(n, m), idx) in &by_dims {
        for chunk in idx.chunks_exact(LANES) {
            let lanes: [usize; LANES] = std::array::from_fn(|l| chunk[l]);
            groups.push(LaneGroup {
                lanes,
                q_rows: (0..n)
                    .map(|r| std::array::from_fn(|l| pairs[lanes[l]].q[r]))
                    .collect(),
                s_cols: (0..m)
                    .map(|c| std::array::from_fn(|l| pairs[lanes[l]].s[c]))
                    .collect(),
            });
        }
    }
    groups
}

/// Global-kind initial borders of an `n × m` lane block.
fn initial_borders(gap: &AffineGap, n: usize, m: usize) -> BlockBorders<LANES> {
    let lift = |stripe: Vec<i32>| {
        stripe
            .into_iter()
            .map(|v| I16s::splat(to16(v, 0)))
            .collect()
    };
    BlockBorders {
        top_h: lift(init_top_h::<Global, _>(gap, m)),
        top_e: lift(init_top_e::<Global, _>(gap, m)),
        left_h: lift(init_left_h::<Global, _>(gap, n, gap.open())),
        left_f: lift(init_left_f::<AffineGap>(n)),
    }
}

fn short_ladder(lad: &mut Ladder, seed: u64) {
    lad.start(SHORT);
    let cores = nproc();
    let sch = Sch::GlobalAffine;
    let (spec, scheme) = (sch.spec(), oracle::global_affine());
    let pool = gen::read_pool(seed, SHORT_PAIRS);
    let expected = oracle::scores(sch, &pool, cores);
    let pairs = refs(&pool, 0..pool.len());
    let cells_of = |n: usize| (0..n).map(|i| pool.cells(i)).sum::<u64>();
    let load_of = |n: usize| Load {
        pairs: n as u64,
        cells: cells_of(n),
    };
    let all = load_of(SHORT_PAIRS);
    let ns_per_pair = |s: f64, pairs: u64| s * 1e9 / pairs as f64;

    // core: the plain single-thread baseline.
    let few = load_of(SCALAR_PAIRS);
    let scalar = lad.rung(
        "core.scalar",
        "core",
        few,
        || {
            pairs[..SCALAR_PAIRS]
                .iter()
                .map(|p| scheme.score_codes(p.q, p.s))
                .collect::<Vec<_>>()
        },
        |got| expect_scores(got, &expected[..SCALAR_PAIRS]),
    );
    lad.gcups("core.scalar_gcups", few.cells, scalar);

    // simd: the bare lane kernel on pre-transposed groups (plus the
    // copy that resets its in-place borders).
    let groups = lane_groups(&pairs);
    let in_lanes: Vec<usize> = groups.iter().flat_map(|g| g.lanes).collect();
    let lane_cells: u64 = in_lanes.iter().map(|&i| pool.cells(i)).sum();
    let mut templates = BTreeMap::new();
    for g in &groups {
        let dims = (g.q_rows.len(), g.s_cols.len());
        templates
            .entry(dims)
            .or_insert_with(|| initial_borders(scheme.gap(), dims.0, dims.1));
    }
    let mut scratch = initial_borders(scheme.gap(), 1, 1);
    let kernel = lad.rung(
        "simd.kernel",
        "simd",
        Load {
            pairs: in_lanes.len() as u64,
            cells: lane_cells,
        },
        || {
            let mut scores = vec![0i32; pairs.len()];
            for g in &groups {
                let fresh = &templates[&(g.q_rows.len(), g.s_cols.len())];
                scratch.top_h.clone_from(&fresh.top_h);
                scratch.top_e.clone_from(&fresh.top_e);
                scratch.left_h.clone_from(&fresh.left_h);
                scratch.left_f.clone_from(&fresh.left_f);
                let opt = block_kernel_kind::<Global, _, _, false, LANES>(
                    scheme.gap(),
                    scheme.subst(),
                    &g.q_rows,
                    &g.s_cols,
                    &mut scratch,
                    0,
                );
                for (l, &i) in g.lanes.iter().enumerate() {
                    scores[i] = from16(opt.best.0[l], 0);
                }
            }
            scores
        },
        |got| match in_lanes.iter().find(|&&i| got[i] != expected[i]) {
            Some(i) => Err(format!("pair {i}: score differs from the oracle")),
            None => Ok(()),
        },
    );
    lad.gcups("simd.kernel_gcups", lane_cells, kernel);

    // simd: + bucketing, transpose, scalar leftovers.
    let mut lane_frac = 0.0;
    let batch = lad.rung(
        "simd.batch",
        "simd",
        all,
        || score_batch_simd_stats::<_, _, _, LANES>(&scheme, &pairs, 1),
        |(got, stats)| {
            lane_frac = stats.lane_pairs as f64 / (stats.lane_pairs + stats.scalar_pairs) as f64;
            expect_scores(got, &expected)
        },
    );
    lad.gcups("simd.batch_gcups", all.cells, batch);
    lad.row(
        "simd.transpose_ns_per_pair",
        "ns/pair",
        ns_per_pair(batch.s, all.pairs) - ns_per_pair(kernel.s, in_lanes.len() as u64),
        batch,
    );
    lad.row("simd.lane_frac", "ratio", lane_frac, batch);

    // simd: banded traceback.
    let part = load_of(ALIGN_PAIRS);
    let idx: Vec<u32> = (0..ALIGN_PAIRS as u32).collect();
    let mut widen_frac = 0.0;
    let align = lad.rung(
        "simd.align",
        "simd",
        part,
        || {
            align_batch_simd::<_, _, _, LANES>(
                &scheme,
                &pairs[..ALIGN_PAIRS],
                1,
                BandCfg::default(),
            )
        },
        |(got, stats)| {
            let lane_groups = (stats.lane_pairs / LANES as u64).max(1);
            widen_frac = stats.band_widenings as f64 / lane_groups as f64;
            workloads::check_alignments(sch, &pool, &idx, &expected, got)
        },
    );
    lad.gcups("simd.align_gcups", part.cells, align);
    lad.row("simd.band_widen_frac", "ratio", widen_frac, align);

    // engine: + spec → scheme monomorph dispatch.
    let fixed = DispatchPolicy::fixed(BackendId::Simd).standard();
    let backend = lad.rung(
        "engine.backend",
        "engine",
        all,
        || {
            let engine: &dyn Engine = fixed.engine(BackendId::Simd).expect("the simd backend");
            engine.score_batch(&spec, &pairs, 1)
        },
        |got| expect_scores(got.as_ref().map_err(|e| e.to_string())?, &expected),
    );
    lad.gcups("engine.backend_gcups", all.cells, backend);

    // engine: + bin, unit cut, gather, merge.
    let view = BatchView::from_refs(pairs.clone());
    let scored = |run: &Result<anyseq_engine::BatchRun<i32>, anyseq_engine::EngineError>| {
        expect_scores(&run.as_ref().map_err(|e| e.to_string())?.results, &expected)
    };
    let one = BatchScheduler::new(BatchCfg::threads(1));
    let many = BatchScheduler::new(BatchCfg::threads(cores));
    let sched_1t = lad.rung(
        "engine.sched_1t",
        "engine",
        all,
        || one.try_score_batch(&fixed, &spec, &view),
        scored,
    );
    lad.gcups("engine.sched_gcups_1t", all.cells, sched_1t);
    lad.row(
        "engine.sched_ns_per_pair",
        "ns/pair",
        ns_per_pair(sched_1t.s - backend.s, all.pairs),
        sched_1t,
    );
    let sched_nt = lad.rung(
        "engine.sched_nt",
        "engine",
        all,
        || many.try_score_batch(&fixed, &spec, &view),
        scored,
    );
    lad.gcups("engine.sched_gcups_nt", all.cells, sched_nt);
    lad.row(
        "engine.sched_par_eff",
        "ratio",
        sched_1t.s / sched_nt.s / cores as f64,
        sched_nt,
    );

    // engine: what one call costs when the batch is a single request.
    let auto = DispatchPolicy::auto().standard();
    let tiny = BatchView::from_refs(pairs[..workloads::SERVE_PAIRS_PER_REQ].to_vec());
    let fixed_cost = lad.rung(
        "engine.batch_fixed",
        "engine",
        load_of(tiny.len()),
        || many.try_score_batch(&auto, &spec, &tiny),
        |run| {
            expect_scores(
                &run.as_ref().map_err(|e| e.to_string())?.results,
                &expected[..tiny.len()],
            )
        },
    );
    lad.row(
        "engine.batch_fixed_us",
        "us",
        fixed_cost.s * 1e6,
        fixed_cost,
    );

    let part_view = BatchView::from_refs(pairs[..ALIGN_PAIRS].to_vec());
    let align_nt = lad.rung(
        "engine.align_sched_nt",
        "engine",
        part,
        || many.try_align_batch(&auto, &spec, &part_view),
        |run| {
            let got = &run.as_ref().map_err(|e| e.to_string())?.results;
            workloads::check_alignments(sch, &pool, &idx, &expected, got)
        },
    );
    lad.gcups("engine.align_sched_gcups_nt", part.cells, align_nt);

    // engine::cache: never-seen content, then the same batch again.
    let cached = || DispatchPolicy::auto().cache_mb(8).standard();
    let miss = lad.rung_prepared(
        "engine.cache_miss",
        "engine",
        all,
        cached,
        |cold| one.try_score_batch(cold, &spec, &view),
        scored,
    );
    lad.row(
        "engine.cache_miss_ns_per_pair",
        "ns/pair",
        ns_per_pair(miss.s - sched_1t.s, all.pairs),
        miss,
    );
    let hit = lad.rung_prepared(
        "engine.cache_hit",
        "engine",
        all,
        || {
            let warm = cached();
            one.try_score_batch(&warm, &spec, &view)
                .expect("cache fill");
            warm
        },
        |warm| one.try_score_batch(warm, &spec, &view),
        scored,
    );
    lad.row(
        "engine.cache_hit_ns_per_pair",
        "ns/pair",
        ns_per_pair(hit.s, all.pairs),
        hit,
    );

    let observed = DispatchPolicy::fixed(BackendId::Simd)
        .observe(true)
        .standard();
    let observe = lad.rung(
        "engine.observe",
        "engine",
        all,
        || one.try_score_batch(&observed, &spec, &view),
        scored,
    );
    lad.row(
        "engine.observe_overhead_frac",
        "ratio",
        (observe.s - sched_1t.s) / sched_1t.s,
        observe,
    );

    let build = lad.rung(
        "engine.dispatch_build",
        "engine",
        Load { pairs: 0, cells: 0 },
        || DispatchPolicy::auto().standard(),
        |_| Ok(()),
    );
    lad.row("engine.dispatch_build_us", "us", build.s * 1e6, build);

    // One span per op is all the tracing an end-to-end op loop would
    // carry; price it against the `reads_score` op measured above.
    lad.row(
        "trace.overhead_frac",
        "ratio",
        trace::span_cost_s() / sched_nt.s,
        sched_nt,
    );
}

/// One full `reads_dup` sweep, for the cache's optional counters.
fn dup_sweep(lad: &mut Ladder, seed: u64, out_dir: &Path) {
    let Setup { prepared, .. } =
        workloads::setup(Workload::ReadsDup, seed, workloads::ONE_DUP_SWEEP, out_dir);
    let span = lad.phase("engine.cache_sweep", "engine", Load { pairs: 0, cells: 0 });
    let out = workloads::run(prepared);
    lad.trace.close(span);
    let get = |key: &str| out.counters.get(key).copied();
    let probes = get("cache.hits")
        .zip(get("cache.misses"))
        .map(|(h, m)| (h, h + m));
    lad.counter("engine.cache_hit_frac", "ratio", probes.map(|(h, n)| h / n));
    lad.counter("engine.cache_evictions", "count", get("cache.evictions"));
    lad.checks.attempted += out.attempted;
    lad.checks.failed += out.failed;
    lad.checks.first_failure = lad.checks.first_failure.take().or(out.first_failure);
}

fn long_ladder(lad: &mut Ladder, seed: u64) {
    lad.start(LONG);
    let cores = nproc();
    let sch = Sch::GlobalAffine;
    let (spec, scheme) = (sch.spec(), oracle::global_affine());
    let pool = gen::long_pool(seed, 1, LONG_LEN, workloads::LONG_DIVERGENCE);
    let (q, s) = pool.pair(0);
    let cells = pool.cells(0);
    let expected = sch.score(q, s);
    let score_is = |got: &i32| {
        if *got == expected {
            Ok(())
        } else {
            Err(format!("score {got} but the oracle says {expected}"))
        }
    };
    macro_rules! rung {
        ($name:literal, $layer:literal, $run:expr, $check:expr) => {
            lad.rung($name, $layer, Load { pairs: 1, cells }, $run, $check)
        };
    }

    let scalar = rung!(
        "core.scalar_long",
        "core",
        || scheme.score_codes(q, s),
        score_is
    );
    lad.gcups("core.scalar_long_gcups", cells, scalar);

    let one = ParallelCfg::threads(1);
    let many = ParallelCfg::threads(cores);
    let pass_1t = rung!(
        "wavefront.pass_1t",
        "wavefront",
        || scheme.score_parallel_codes(q, s, &one),
        score_is
    );
    lad.gcups("wavefront.pass_gcups_1t", cells, pass_1t);
    let align_1t = rung!(
        "wavefront.align_1t",
        "wavefront",
        || scheme.align_parallel_codes(q, s, &one),
        |aln| oracle::replay(sch, q, s, aln, expected)
    );
    lad.gcups("wavefront.align_gcups_1t", cells, align_1t);
    let pass_nt = rung!(
        "wavefront.pass_nt",
        "wavefront",
        || scheme.score_parallel_codes(q, s, &many),
        score_is
    );
    lad.gcups("wavefront.pass_gcups_nt", cells, pass_nt);
    lad.row(
        "wavefront.par_eff",
        "ratio",
        pass_1t.s / pass_nt.s / cores as f64,
        pass_nt,
    );

    // simd: vector tiles — not what `WavefrontEngine` runs today; the
    // row that prices that gap.
    let tiled = rung!(
        "simd.tiled",
        "simd",
        || simd_tiled_score_pass::<_, _, LANES>(
            scheme.gap(),
            scheme.subst(),
            q,
            s,
            scheme.gap().open(),
            &one
        )
        .score,
        score_is
    );
    lad.gcups("simd.tiled_gcups", cells, tiled);

    // baselines: the SeqAn-like and Parasail-like strategies on the
    // same pair, one thread (their batch path has no kernel of its own).
    let (q_seq, s_seq) = (
        Seq::from_codes(q.to_vec()).expect("generated codes"),
        Seq::from_codes(s.to_vec()).expect("generated codes"),
    );
    let seqan = rung!(
        "baselines.seqan",
        "baselines",
        || SeqAnLike::new(1).score(&scheme, &q_seq, &s_seq),
        score_is
    );
    lad.gcups("baselines.seqan_gcups", cells, seqan);
    let parasail = rung!(
        "baselines.parasail",
        "baselines",
        || ParasailLike::new(1).score(&scheme, &q_seq, &s_seq),
        score_is
    );
    lad.gcups("baselines.parasail_gcups", cells, parasail);
    lad.row("baselines.seqan_ratio", "ratio", seqan.s / tiled.s, tiled);

    // engine: Auto routes the pair to the exclusive wavefront.
    let view = BatchView::from_refs(vec![PairRef::new(q, s)]);
    let scheduler = BatchScheduler::new(BatchCfg::threads(1));
    let auto = DispatchPolicy::auto().standard();
    let excl = rung!(
        "engine.excl",
        "engine",
        || scheduler.try_score_batch(&auto, &spec, &view),
        |run| score_is(&run.as_ref().map_err(|e| e.to_string())?.results[0])
    );
    lad.gcups("engine.excl_gcups", cells, excl);
    lad.row(
        "engine.excl_tax_frac",
        "ratio",
        (excl.s - pass_1t.s) / pass_1t.s,
        excl,
    );

    // engine: the same with the pair cut into slabs whose seams cross
    // the in-process byte round-trip.
    let sharded = DispatchPolicy::auto()
        .shard_cells(64 * MIN_SHARD_CELLS)
        .standard();
    let mut seam_bytes = None;
    let shard = rung!(
        "engine.shard",
        "engine",
        || scheduler.try_score_batch(&sharded, &spec, &view),
        |run| {
            let run = run.as_ref().map_err(|e| e.to_string())?;
            seam_bytes = run
                .stats
                .counters
                .get("sched.seam_bytes")
                .map(|&b| b as f64);
            score_is(&run.results[0])
        }
    );
    lad.gcups("engine.shard_gcups", cells, shard);
    lad.row(
        "engine.shard_tax_frac",
        "ratio",
        (shard.s - pass_1t.s) / pass_1t.s,
        shard,
    );
    lad.counter("engine.seam_bytes", "bytes", seam_bytes);
}

fn serve_ladder(lad: &mut Ladder, seed: u64, out_dir: &Path) {
    lad.start(SERVE);
    let cores = nproc();
    let sch = Sch::SemiGlobalAffine;
    let per_req = workloads::SERVE_PAIRS_PER_REQ;
    let conns = cores.min(workloads::SERVE_CONNS_MAX);

    // Slices of one pool, so no phase finds another's content cached:
    // idle round trips, full windows, then a `serve_mixed`-shaped mini run.
    let rtt_pairs = RTT_REQUESTS * per_req;
    let window_pairs = WINDOW_REQUESTS * WINDOW_PAIRS;
    let (mut streams, fresh) = gen::serve_schedule(seed, conns, MINI_REQS_PER_CONN * per_req);
    let mini_base = (rtt_pairs + window_pairs) as u32;
    streams.iter_mut().flatten().for_each(|i| *i += mini_base);
    let pool = gen::contained_pool(seed, mini_base as usize + fresh);
    let expected = oracle::scores(sch, &pool, cores);
    let traffic = |pairs_per_req, align| Traffic {
        pool: &pool,
        expected: &expected,
        sch,
        pairs_per_req,
        align,
    };
    let cells_of = |idx: &[u32]| idx.iter().map(|&i| pool.cells(i as usize)).sum::<u64>();

    // simd under serve's traffic: a window's worth of trimmed reads at
    // a time, where mixed lengths leave few full lane groups.
    let window: Vec<PairRef<'_>> = refs(&pool, 0..rtt_pairs);
    let semi = oracle::semiglobal_affine();
    let (mut in_lanes, mut in_all) = (0u64, 0u64);
    let rtt_load = Load {
        pairs: rtt_pairs as u64,
        cells: (0..rtt_pairs).map(|i| pool.cells(i)).sum(),
    };
    let batch_serve = lad.rung(
        "simd.batch_serve",
        "simd",
        rtt_load,
        || {
            (in_lanes, in_all) = (0, 0);
            let mut scores = Vec::with_capacity(rtt_pairs);
            for chunk in window.chunks(SERVE_WINDOW_PAIRS) {
                let (got, stats) = score_batch_simd_stats::<_, _, _, LANES>(&semi, chunk, 1);
                in_lanes += stats.lane_pairs;
                in_all += stats.lane_pairs + stats.scalar_pairs;
                scores.extend(got);
            }
            scores
        },
        |got| expect_scores(got, &expected[..rtt_pairs]),
    );
    lad.gcups("simd.batch_serve_gcups", rtt_load.cells, batch_serve);
    lad.row(
        "simd.lane_frac_serve",
        "ratio",
        in_lanes as f64 / in_all.max(1) as f64,
        batch_serve,
    );

    // serve::proto: a request and its reply through encode + decode,
    // in memory.
    let rtt_stream: Vec<u32> = (0..rtt_pairs as u32).collect();
    let requests: Vec<Request> = rtt_stream
        .chunks(per_req)
        .enumerate()
        .map(|(r, idx)| Request {
            id: r as u64 + 1,
            mode: ReqKind::Score,
            spec: sch.spec(),
            pairs: idx
                .iter()
                .map(|&i| {
                    let (q, s) = pool.pair(i as usize);
                    (q.to_vec(), s.to_vec())
                })
                .collect(),
        })
        .collect();
    let mut wire_bytes = 0usize;
    let proto = lad.rung(
        "serve.proto",
        "serve",
        Load {
            cells: 0,
            ..rtt_load
        },
        || {
            wire_bytes = 0;
            let mut echoed = Vec::with_capacity(rtt_pairs);
            for (request, idx) in requests.iter().zip(rtt_stream.chunks(per_req)) {
                let frame = encode_request(request);
                wire_bytes += frame.len();
                let Ok(Message::Request(decoded)) = decode_message(&frame) else {
                    continue;
                };
                let reply = encode_response(&Response {
                    id: decoded.id,
                    results: Results::Scores(idx.iter().map(|&i| expected[i as usize]).collect()),
                });
                wire_bytes += reply.len();
                if let Ok(Message::Response(Response {
                    results: Results::Scores(scores),
                    ..
                })) = decode_message(&reply)
                {
                    echoed.extend(scores);
                }
            }
            echoed
        },
        |echoed| expect_scores(echoed, &expected[..rtt_pairs]),
    );
    lad.row(
        "serve.proto_ns_per_pair",
        "ns/pair",
        proto.s * 1e9 / rtt_pairs as f64,
        proto,
    );
    lad.row(
        "serve.proto_mb_per_s",
        "MB/s",
        wire_bytes as f64 / 1e6 / proto.s,
        proto,
    );

    // serve: daemon start → first successful connect. The last of the
    // daemons started here serves the idle round trips.
    let span = lad.phase("serve.start", "serve", Load { pairs: 0, cells: 0 });
    let mut starts = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..MIN_REPS {
        if let Some(previous) = daemon.take() {
            previous.stop();
        }
        let (up, wall, _) = timed(|| Daemon::start(out_dir, 1));
        starts.push(wall);
        daemon = Some(up);
    }
    lad.trace.close(span);
    lad.row(
        "serve.start_ms",
        "ms",
        median(&starts) * 1e3,
        Sample::of(&starts),
    );
    let mut daemon = daemon.expect("a started daemon");

    // serve: one small request at a time — window deadline + fixed costs.
    let span = lad.phase("serve.rtt_idle", "serve", rtt_load);
    let idle = traffic(per_req, |_| false);
    let all = idle.requests(&rtt_stream);
    let (latency, replies) = idle.closed_loop(&mut daemon.clients[0], &rtt_stream, all, 1);
    lad.trace.close(span);
    idle.check(&rtt_stream, 0, &replies, &mut lad.checks);
    lad.row(
        "serve.rtt_idle_us",
        "us",
        median(&latency) * 1e6,
        Sample::counted(latency.len()),
    );
    daemon.stop();

    // serve: requests that fill a window at once, against the same
    // batches run in-process under the daemon's own dispatch policy.
    let window_stream: Vec<u32> = (rtt_pairs as u32..mini_base).collect();
    let window_load = Load {
        pairs: window_pairs as u64,
        cells: cells_of(&window_stream),
    };
    let mut daemon = Daemon::start(out_dir, 1);
    let span = lad.phase("serve.full_window", "serve", window_load);
    let full = traffic(WINDOW_PAIRS, |_| false);
    let all = full.requests(&window_stream);
    let ((_, replies), wall, _) =
        timed(|| full.closed_loop(&mut daemon.clients[0], &window_stream, all, 2));
    lad.trace.close(span);
    full.check(&window_stream, 0, &replies, &mut lad.checks);
    daemon.stop();
    lad.row(
        "serve.full_window_pairs_per_s",
        "1/s",
        window_pairs as f64 / wall,
        Sample::counted(1),
    );
    let dispatch = ServeConfig::default().policy.standard();
    let scheduler = BatchScheduler::new(BatchCfg::threads(cores));
    let views: Vec<BatchView<'_>> = window_stream
        .chunks(WINDOW_PAIRS)
        .map(|idx| BatchView::from_refs(refs(&pool, idx.iter().map(|&i| i as usize))))
        .collect();
    let (runs, in_process, _) = timed(|| {
        views
            .iter()
            .map(|view| scheduler.try_score_batch(&dispatch, &sch.spec(), view))
            .collect::<Vec<_>>()
    });
    for (run, idx) in runs.iter().zip(window_stream.chunks(WINDOW_PAIRS)) {
        let verdict = run.as_ref().map_err(|e| e.to_string()).and_then(|run| {
            workloads::check_scores(&run.results, idx.iter().map(|&i| expected[i as usize]))
        });
        lad.checks.op(verdict, idx.len() as u64, cells_of(idx));
    }
    lad.row(
        "serve.wire_ns_per_pair",
        "ns/pair",
        (wall - in_process) * 1e9 / window_pairs as f64,
        Sample::counted(1),
    );

    // serve: a small `serve_mixed`, for the daemon's own counters and
    // the per-verb latency split.
    let mut daemon = Daemon::start(out_dir, conns);
    let mini_load = Load {
        pairs: (conns * MINI_REQS_PER_CONN * per_req) as u64,
        cells: 0,
    };
    let span = lad.phase("serve.mini_mixed", "serve", mini_load);
    let mixed = traffic(per_req, workloads::is_align);
    let (results, _) = workloads::run_connections(
        &mixed,
        &mut daemon.clients,
        &streams,
        workloads::SERVE_DEPTH,
        1,
    );
    lad.trace.close(span);
    let (mut score_s, mut align_s) = (Vec::new(), Vec::new());
    for ((latency, replies), stream) in results.iter().zip(&streams) {
        mixed.check(stream, 0, replies, &mut lad.checks);
        for (r, &l) in latency.iter().enumerate() {
            if workloads::is_align(r) {
                &mut align_s
            } else {
                &mut score_s
            }
            .push(l);
        }
    }
    let counters = daemon.counters();
    daemon.stop();
    for key in ["serve.window_occupancy", "serve.batches", "serve.rejected"] {
        lad.counter(key, "count", counters.get(key).copied());
    }
    for (name, sample, p) in [
        ("serve.score_p50_ms", &score_s, 50.0),
        ("serve.align_p50_ms", &align_s, 50.0),
        ("serve.align_p95_ms", &align_s, 95.0),
    ] {
        let ms = percentile(sample, p) * 1e3;
        lad.row(name, "ms", ms, Sample::counted(sample.len()));
    }
}

/// Runs all three ladders; writes `trace.json` (Chrome trace) and
/// `layers.json` (the rows with reps and spread) into `out_dir`.
pub fn run(seed: u64, out_dir: &Path) -> Report {
    let mut lad = Ladder {
        trace: Trace::new(),
        id: 0,
        above: None,
        rows: Vec::new(),
        checks: Outcome::default(),
    };
    short_ladder(&mut lad, seed);
    dup_sweep(&mut lad, seed, out_dir);
    long_ladder(&mut lad, seed);
    serve_ladder(&mut lad, seed, out_dir);

    let layers: Vec<String> = lad
        .rows
        .iter()
        .map(|row| {
            format!(
                "  {{\"name\": {:?}, \"unit\": {:?}, \"value\": {}, \"reps\": {}, \"spread\": {}}}",
                row.metric.name,
                row.metric.unit,
                crate::num(row.metric.value),
                row.metric.n,
                crate::num(row.spread)
            )
        })
        .collect();
    std::fs::write(
        out_dir.join("layers.json"),
        format!("[\n{}\n]\n", layers.join(",\n")),
    )
    .expect("write layers.json");
    std::fs::write(out_dir.join("trace.json"), lad.trace.chrome_json()).expect("write trace.json");

    let describe = format!(
        "\"threads\": {}, \"spans\": {}, \"files\": [\"layers.json\", \"trace.json\"]",
        nproc(),
        lad.trace.spans.len()
    );
    Report {
        metrics: lad.rows.into_iter().map(|row| row.metric).collect(),
        extras: Vec::new(),
        attempted: lad.checks.attempted,
        failed: lad.checks.failed,
        first_failure: lad.checks.first_failure,
        describe,
    }
}
