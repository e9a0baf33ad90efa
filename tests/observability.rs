//! Workspace-level observability integration: the span/metrics layer
//! must tell the truth about a batch — counters from engines that
//! *declined* survive the fallback, spans attribute to the engine that
//! *executed*, per-worker lanes never overlap, and both exposition
//! formats (Chrome trace, Prometheus text) are produced from a real
//! run. It must also cost nothing when off: no spans, no stage
//! counters.

use anyseq_engine::engine::ALL_KINDS;
use anyseq_engine::{
    BackendId, BatchCfg, BatchScheduler, Caps, Dispatch, DispatchPolicy, Engine, EngineError,
    Policy, SchemeSpec,
};
use anyseq_obs::{chrome_trace, prometheus_text, Stage};
use anyseq_seq::genome::GenomeSim;
use anyseq_seq::readsim::{ReadSim, ReadSimProfile};
use anyseq_seq::{BatchView, PairRef, Seq};
use std::sync::atomic::{AtomicU64, Ordering};

/// An engine that claims full support, does some accountable probe
/// work, and then declines every request — the worst-case foreign
/// `Engine` for counter plumbing.
#[derive(Default)]
struct ProbingDecliner {
    probes: AtomicU64,
}

impl Engine for ProbingDecliner {
    fn caps(&self) -> Caps {
        Caps {
            name: "decliner",
            score_kinds: ALL_KINDS,
            align_kinds: ALL_KINDS,
            batch_native: true,
        }
    }

    fn score_batch(
        &self,
        _spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        _threads: usize,
    ) -> Result<Vec<i32>, EngineError> {
        self.probes.fetch_add(pairs.len() as u64, Ordering::Relaxed);
        Err(EngineError::unsupported("decliner", "always declines"))
    }

    fn align_batch(
        &self,
        _spec: &SchemeSpec,
        pairs: &[PairRef<'_>],
        _threads: usize,
    ) -> Result<Vec<anyseq_core::Alignment>, EngineError> {
        self.probes.fetch_add(pairs.len() as u64, Ordering::Relaxed);
        Err(EngineError::unsupported("decliner", "always declines"))
    }

    fn drain_counters(&self) -> Vec<(&'static str, u64)> {
        let v = self.probes.swap(0, Ordering::Relaxed);
        if v > 0 {
            vec![("decliner.probes", v)]
        } else {
            Vec::new()
        }
    }
}

fn read_pairs(n: usize, seed: u64) -> Vec<(Seq, Seq)> {
    let reference = GenomeSim::new(seed).generate(50_000);
    ReadSim::new(ReadSimProfile::default(), seed ^ 0xead)
        .simulate_pairs(&reference, n)
        .into_iter()
        .map(|p| (p.a, p.b))
        .collect()
}

#[test]
fn declining_engine_counters_survive_the_fallback() {
    let pairs = read_pairs(60, 1);
    let view = BatchView::from_pairs(&pairs);
    let spec = SchemeSpec::global_linear(2, -1, -1);
    let dispatch = Dispatch::standard(Policy::Fixed(BackendId::Simd))
        .with_engine(BackendId::Simd, Box::new(ProbingDecliner::default()));
    let sched = BatchScheduler::new(BatchCfg::threads(2));
    let run = sched.try_score_batch(&dispatch, &spec, &view).unwrap();

    let expected: Vec<i32> = pairs.iter().map(|(q, s)| spec.score_scalar(q, s)).collect();
    assert_eq!(run.results, expected, "fallback must stay bit-exact");
    assert!(run.stats.fallbacks > 0);
    // The probe work done before declining is attributed, not leaked.
    assert_eq!(
        run.stats.counters.get("decliner.probes").copied(),
        Some(pairs.len() as u64),
        "declined engine's counters were lost: {:?}",
        run.stats.counters
    );
    // Each declined unit is counted against the backend slot that
    // declined it.
    let declined = run.stats.counters["dispatch.declined.simd"];
    assert!(declined > 0 && declined == run.stats.fallbacks);
    assert!(
        run.stats.per_backend.iter().all(|b| b.backend == "scalar"),
        "only the scalar rescue may record execution: {:?}",
        run.stats.per_backend
    );
}

#[test]
fn spans_attribute_to_the_engine_that_executed() {
    let pairs = read_pairs(40, 2);
    let view = BatchView::from_pairs(&pairs);
    let spec = SchemeSpec::global_linear(2, -1, -1);
    let dispatch = DispatchPolicy::new(Policy::Fixed(BackendId::Simd))
        .observe(true)
        .standard()
        .with_engine(BackendId::Simd, Box::new(ProbingDecliner::default()));
    let sched = BatchScheduler::new(BatchCfg::threads(2));
    let run = sched.try_score_batch(&dispatch, &spec, &view).unwrap();

    let kernels: Vec<_> = run
        .stats
        .spans
        .iter()
        .filter(|sp| sp.stage == Stage::Kernel)
        .collect();
    assert!(!kernels.is_empty(), "observe=true must produce spans");
    for sp in &kernels {
        assert_eq!(
            sp.backend, "scalar",
            "kernel span must carry the executing engine, not the declined pick"
        );
    }
    assert!(
        !run.stats.spans.iter().any(|sp| sp.backend == "decliner"),
        "a declining engine executed nothing, so it owns no spans"
    );
    assert!(run.stats.counters["stage.kernel_ns"] > 0);
}

#[test]
fn traced_batch_produces_consistent_spans_and_exports() {
    let pairs = read_pairs(120, 3);
    let view = BatchView::from_pairs(&pairs);
    let spec = SchemeSpec::global_affine(2, -1, -2, -1);
    let dispatch = DispatchPolicy::auto().observe(true).cache_mb(8).standard();
    let threads = 3;
    let sched = BatchScheduler::new(BatchCfg::threads(threads));
    let run = sched.try_align_batch(&dispatch, &spec, &view).unwrap();
    let stats = &run.stats;

    // Every stage key exists (pre-seeded), and the hot ones are warm.
    for stage in Stage::ALL {
        assert!(
            stats.counters.contains_key(stage.counter_key()),
            "missing {}",
            stage.counter_key()
        );
    }
    for key in ["stage.hash_ns", "stage.gather_ns", "stage.merge_ns"] {
        assert!(stats.counters[key] > 0, "{key} should be non-zero");
    }

    // Spans are sorted by (worker, start) and never overlap in a lane.
    assert!(!stats.spans.is_empty());
    for w in stats.spans.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        assert!((a.worker, a.start_ns) <= (b.worker, b.start_ns), "sorted");
        if a.worker == b.worker {
            assert!(
                a.start_ns + a.dur_ns <= b.start_ns,
                "lane {} overlaps: {a:?} vs {b:?}",
                a.worker
            );
        }
    }

    // Chrome trace: JSON array, balanced B/E, one lane per worker.
    let trace = chrome_trace(&stats.spans);
    assert!(trace.starts_with('[') && trace.trim_end().ends_with(']'));
    let begins = trace.matches("\"ph\":\"B\"").count();
    let ends = trace.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "every B needs an E");
    assert_eq!(begins, stats.spans.len());
    assert!(trace.contains("\"coordinator\""));

    // Prometheus: the per-(backend, bin) kernel latency histogram and
    // the per-shard cache gauges (published at export time) are present.
    let snapshot = dispatch.metrics_snapshot();
    let text = prometheus_text(&snapshot.expect("observe=true builds a registry"));
    assert!(text.contains("anyseq_stage_duration_ns_bucket"));
    assert!(text.contains("stage=\"kernel\""));
    assert!(text.contains("backend=\"simd\"") || text.contains("backend=\"scalar\""));
    assert!(text.contains("anyseq_batch_pairs_total"));
    assert!(text.contains("anyseq_cache_shard_entries"));
}

#[test]
fn registry_accumulates_across_batches() {
    let pairs = read_pairs(30, 4);
    let view = BatchView::from_pairs(&pairs);
    let spec = SchemeSpec::global_linear(2, -1, -1);
    let dispatch = DispatchPolicy::auto().observe(true).standard();
    let sched = BatchScheduler::new(BatchCfg::threads(2));
    let registry = dispatch.metrics().unwrap();

    sched.try_score_batch(&dispatch, &spec, &view).unwrap();
    let one = registry.snapshot();
    sched.try_score_batch(&dispatch, &spec, &view).unwrap();
    let two = registry.snapshot();

    let key = ("anyseq_batches_total", String::new());
    assert_eq!(one.counters.get(&key).copied(), Some(1));
    assert_eq!(two.counters.get(&key).copied(), Some(2));
    let pairs_key = ("anyseq_batch_pairs_total", String::new());
    assert_eq!(
        two.counters.get(&pairs_key).copied(),
        Some(2 * pairs.len() as u64)
    );
}

#[test]
fn observability_off_is_invisible() {
    let pairs = read_pairs(30, 5);
    let view = BatchView::from_pairs(&pairs);
    let spec = SchemeSpec::global_linear(2, -1, -1);
    let dispatch = Dispatch::standard(Policy::Auto);
    assert!(dispatch.metrics().is_none(), "off by default");
    let run = BatchScheduler::new(BatchCfg::threads(2))
        .try_score_batch(&dispatch, &spec, &view)
        .unwrap();
    assert!(run.stats.spans.is_empty());
    assert!(
        !run.stats.counters.keys().any(|k| k.starts_with("stage.")),
        "no stage counters without observe: {:?}",
        run.stats.counters
    );
}
