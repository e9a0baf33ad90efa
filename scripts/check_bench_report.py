#!/usr/bin/env python3
"""Validate a batch_throughput (or serve_throughput) JSON report.

Usage: check_bench_report.py <report.json> <threads> [long_len] [dup_frac] [semi_len] [local_len] [huge_len]
       check_bench_report.py --serve <report.json>

`--serve` validates a `serve_throughput` report instead: the serving
metrics `serve.requests`, `serve.batches` and `serve.window_occupancy`
must be present and positive, `serve.rejected` present (zero is the
healthy value), the client-side throughput keys `serve.wall_s` /
`serve.pairs_per_s` / `serve.gcups` positive, the per-verb request
latency quantiles `serve.req_p{50,95,99}_us` (score) and
`serve.align_req_p{50,95,99}_us` (align) positive, and the tracing
keys `serve.slow_total` / `serve.req_obs_overhead_frac` present (zero
is the healthy value for both).

Fails (exit 1) if the report is missing any required key:
  * `<mode>.<backend>_1t` and `<mode>.<backend>_<threads>t` for every
    mode in {score, align} and backend in {scalar, simd},
  * `<mode>.bytes_copied` and `<mode>.peak_batch_mb` per mode,
  * the observability keys (the section always runs):
    `obs.score_gcups_{off,on}` and `obs.kernel_spans` /
    `obs.kernel_p{50,95,99}_ns` positive, `obs.overhead_frac` and
    `obs.trace_spans` present, plus all ten `stage.<name>_ns` wall
    totals with a non-zero `stage.kernel_ns` (a traced run that spent
    no time in kernels means the span plumbing is broken),
  * `long.score_gcups` / `long.align_gcups` when `long_len` > 0,
  * the kind-generic SIMD bin keys when `semi_len` > 0:
    `semi.{score,align}_gcups`, `semi.score_gcups_scalar`,
    `semi.score_speedup`, `semi.score_gcups_xdrop` all positive and
    `xdrop.retired_lanes` present (lane retirement is
    workload-dependent, so zero is allowed),
  * the Local bin keys when `local_len` > 0: `local.{score,align}_gcups`,
    `local.score_gcups_scalar` and `local.score_speedup` positive,
  * the sharded chromosome-scale bin keys when `huge_len` > 0:
    `huge.{score,align}_gcups`, `huge.score_gcups_unsharded`,
    `huge.peak_shard_mb`, `huge.budget_mb`, `huge.seam_bytes` and
    `sched.shards` all positive — and additionally
    `huge.peak_shard_mb <= huge.budget_mb` (a sharded run whose
    resident peak exceeds the unsharded border budget defeats the
    point of sharding),
  * the ISA-tier keys (the section always runs): `simd.isa` one of
    `"avx2"` / `"baseline"`, `simd.kernel_gcups_baseline` and
    `simd.kernel_gcups_tier` positive — and, when the ISA is `avx2`,
    tier / baseline >= 1.4 (measured 1.8-2.0; below 1.4 the lane
    relaxation no longer inlines into its `#[target_feature]`
    trampoline and the "AVX2" kernel is baseline code),
  * the duplicated-read / result-cache keys when `dup_frac` > 0:
    `dup.hit_rate`, `dup.{score,align}_gcups` (+ `_nocache` baselines
    and `dup.{score,align}_speedup`) and the cache counters
    `cache.{hits,misses,bytes,evictions}` — with a non-zero
    `dup.hit_rate` and `cache.hits` (a duplicated workload that never
    hits the cache means the cache is broken),
or if a present GCUPS value is not a positive number. Guards the bench
report format (documented in docs/ARCHITECTURE.md) and the zero-copy /
cache counters against silent regressions.
"""

import json
import sys

# Least speed-up of the AVX2-tier lane kernel over the same kernel
# compiled for baseline x86-64 before the tier counts as broken.
MIN_AVX2_TIER_SPEEDUP = 1.4

MODES = ("score", "align")
BACKENDS = ("scalar", "simd")
STAGES = (
    "queue_wait",
    "hash",
    "dedup",
    "cache_probe",
    "gather",
    "transpose",
    "kernel",
    "traceback",
    "cache_insert",
    "merge",
)


def check(path: str, required: list) -> int:
    """Shared validator: every (key, must_be_positive) pair present and sane."""
    with open(path) as fh:
        report = json.load(fh)
    missing = [key for key, _ in required if key not in report]
    bad = [
        key
        for key, positive in required
        if key in report
        and (
            not isinstance(report[key], (int, float))
            or (positive and not report[key] > 0)
        )
    ]
    if missing:
        print(f"{path}: missing keys: {', '.join(sorted(missing))}", file=sys.stderr)
    if bad:
        print(f"{path}: non-positive/invalid values: {', '.join(sorted(bad))}", file=sys.stderr)
    if missing or bad:
        return 1
    print(f"{path}: {len(required)} required keys present and sane")
    return 0


def check_isa_tier(path: str) -> int:
    """The run-time ISA tier must be named and, where it is AVX2, pay off."""
    with open(path) as fh:
        report = json.load(fh)
    isa = report.get("simd.isa")
    if isa not in ("avx2", "baseline"):
        print(f"{path}: simd.isa is {isa!r}, expected 'avx2' or 'baseline'", file=sys.stderr)
        return 1
    ratio = report["simd.kernel_gcups_tier"] / report["simd.kernel_gcups_baseline"]
    if isa == "avx2" and ratio < MIN_AVX2_TIER_SPEEDUP:
        print(
            f"{path}: avx2 tier runs the lane kernel at {ratio:.2f}x baseline "
            f"(< {MIN_AVX2_TIER_SPEEDUP}): the body is not inlining into the trampoline",
            file=sys.stderr,
        )
        return 1
    print(f"{path}: simd.isa {isa}, lane kernel at {ratio:.2f}x the baseline build")
    return 0


def main_serve(path: str) -> int:
    required = [
        ("serve.requests", True),
        ("serve.batches", True),
        ("serve.rejected", False),
        ("serve.window_occupancy", True),
        ("serve.clients", True),
        ("serve.pairs_per_req", True),
        ("serve.wall_s", True),
        ("serve.pairs_per_s", True),
        ("serve.gcups", True),
    ]
    # Request-scoped observability: per-verb latency quantiles (the
    # daemon refreshes the gauges at scrape time), the slow-request
    # counter, and the measured cost of leaving tracing always-on.
    for verb in ("req", "align_req"):
        for q in ("p50", "p95", "p99"):
            required.append((f"serve.{verb}_{q}_us", True))
    required.append(("serve.slow_total", False))
    required.append(("serve.req_obs_overhead_frac", False))
    return check(path, required)


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--serve":
        return main_serve(sys.argv[2])
    if len(sys.argv) not in (3, 4, 5, 6, 7, 8):
        print(__doc__, file=sys.stderr)
        return 2
    path, threads = sys.argv[1], int(sys.argv[2])
    long_len = int(sys.argv[3]) if len(sys.argv) >= 4 else 0
    dup_frac = float(sys.argv[4]) if len(sys.argv) >= 5 else 0.0
    semi_len = int(sys.argv[5]) if len(sys.argv) >= 6 else 0
    local_len = int(sys.argv[6]) if len(sys.argv) >= 7 else 0
    huge_len = int(sys.argv[7]) if len(sys.argv) >= 8 else 0

    required = []
    for mode in MODES:
        for backend in BACKENDS:
            required.append((f"{mode}.{backend}_1t", True))
            if threads > 1:
                required.append((f"{mode}.{backend}_{threads}t", True))
        required.append((f"{mode}.bytes_copied", False))
        required.append((f"{mode}.peak_batch_mb", False))
    # Observability section (always present): off/on throughput, the
    # merged kernel-latency histogram summary, and the stage wall
    # totals drained from the traced run's spans.
    required.append(("obs.score_gcups_off", True))
    required.append(("obs.score_gcups_on", True))
    required.append(("obs.overhead_frac", False))
    required.append(("obs.trace_spans", True))
    required.append(("obs.kernel_spans", True))
    for q in ("p50", "p95", "p99"):
        required.append((f"obs.kernel_{q}_ns", True))
    for stage in STAGES:
        required.append((f"stage.{stage}_ns", stage == "kernel"))
    required.append(("simd.kernel_gcups_baseline", True))
    required.append(("simd.kernel_gcups_tier", True))
    if long_len > 0:
        required.append(("long.score_gcups", True))
        required.append(("long.align_gcups", True))
    if semi_len > 0:
        # The kind-generic SIMD bin: semi-global score/align GCUPS,
        # the scalar baseline the speedup is measured against, and the
        # X-drop sub-run. Lane retirement depends on the decoy batch,
        # so the counter only has to be present.
        for key in (
            "semi.score_gcups",
            "semi.align_gcups",
            "semi.score_gcups_scalar",
            "semi.score_speedup",
            "semi.score_gcups_xdrop",
        ):
            required.append((key, True))
        required.append(("xdrop.retired_lanes", False))
    if local_len > 0:
        for key in (
            "local.score_gcups",
            "local.align_gcups",
            "local.score_gcups_scalar",
            "local.score_speedup",
        ):
            required.append((key, True))
    if huge_len > 0:
        # The sharded chromosome-scale bin: throughput for both runs,
        # the shard/seam counters proving the chain actually stitched,
        # and the memory-bound pair checked below.
        for key in (
            "huge.score_gcups",
            "huge.align_gcups",
            "huge.score_gcups_unsharded",
            "huge.peak_shard_mb",
            "huge.budget_mb",
            "huge.seam_bytes",
            "sched.shards",
        ):
            required.append((key, True))
    if dup_frac > 0:
        # A duplicated-read smoke run must actually hit the cache.
        required.append(("dup.hit_rate", True))
        required.append(("cache.hits", True))
        required.append(("cache.misses", True))
        required.append(("cache.bytes", True))
        required.append(("cache.evictions", False))
        for mode in MODES:
            required.append((f"dup.{mode}_gcups", True))
            required.append((f"dup.{mode}_gcups_nocache", True))
            required.append((f"dup.{mode}_speedup", True))

    rc = check(path, required) or check_isa_tier(path)
    if rc == 0 and huge_len > 0:
        with open(path) as fh:
            report = json.load(fh)
        peak, budget = report["huge.peak_shard_mb"], report["huge.budget_mb"]
        if peak > budget:
            print(
                f"{path}: huge.peak_shard_mb {peak} exceeds huge.budget_mb {budget}",
                file=sys.stderr,
            )
            return 1
        print(f"{path}: sharded peak {peak} MB within unsharded budget {budget:.1f} MB")
    return rc


if __name__ == "__main__":
    sys.exit(main())
