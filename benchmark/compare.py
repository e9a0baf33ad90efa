#!/usr/bin/env python3
"""Compare sets of benchmark runs against the bounds in BENCHMARK.json.

    benchmark/compare.py A.jsonl               # spread of one set
    benchmark/compare.py A.jsonl B.jsonl [...] # every later set against A

A set is the JSON-lines file `benchmark/run.sh --out` writes: one report
per (workload, run). For each (workload, end-to-end metric):

  one set   median, quartiles and spread (q3 - q1) / median against the
            metric's bound; exit 1 if a spread other than setup_s's
            exceeds its bound (the contract's steadiness check).
  two sets  both medians, how much worse B is (as a share of A's median,
            negative = better), the bound, and a verdict:
              worse       B's median is worse by more than the bound
              unresolved  a set's own spread exceeds the bound, so the
                          medians cannot tell (unless every run of B
                          beats every run of A: better)
              better      B's median is better by more than the bound
              within      anything else
            exit 1 on any `worse` or any rise in failed ops.

Quartiles are `statistics.quantiles(values, n=4)`, as the contract uses.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    """{workload: {metric: [values]}} plus failed-op count, end-to-end runs only."""
    values, failed = {}, 0
    with open(path) as lines:
        for line in lines:
            if not line.strip():
                continue
            report = json.loads(line)
            if report["trace"]:
                continue
            failed += report["failed"]
            per_metric = values.setdefault(report["workload"], {})
            for name, metric in report["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
    return values, failed


def summary(sample):
    median = statistics.median(sample)
    if len(sample) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(sample, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def worsening(base, cand, better):
    """How much worse `cand` is than `base`, as a share of `base`."""
    change = (cand - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def main(paths):
    if not paths:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        metrics = json.load(spec)["end_to_end"]
    sets = [load_set(path) for path in paths]
    (base, base_failed), rest = sets[0], sets[1:]
    bad = False

    if not rest:
        print(f"{'workload':12} {'metric':16} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for workload, per_metric in base.items():
            for spec in metrics:
                sample = per_metric.get(spec["name"])
                if not sample:
                    continue
                median, q1, q3, spread = summary(sample)
                over = spread > spec["bound"] and spec["name"] != "setup_s"
                bad |= over
                print(
                    f"{workload:12} {spec['name']:16} {len(sample):3} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                    f"{spread:7.2%} {spec['bound']:6.0%}{'  OVER' if over else ''}"
                )
        if base_failed:
            print(f"{base_failed} failed ops")
        return int(bad or base_failed > 0)

    for path, (cand, cand_failed) in zip(paths[1:], rest):
        print(f"== {path} against {paths[0]}")
        print(f"{'workload':12} {'metric':16} {'base':>12} {'cand':>12} {'worse by':>9} {'bound':>6}  verdict")
        for workload, per_metric in base.items():
            for spec in metrics:
                a = per_metric.get(spec["name"])
                b = cand.get(workload, {}).get(spec["name"])
                if not a or not b:
                    continue
                (a_med, _, _, a_spread), (b_med, _, _, b_spread) = summary(a), summary(b)
                bound = spec["bound"]
                by = worsening(a_med, b_med, spec["better"])
                lower = spec["better"] == "lower"
                all_better = max(b) < min(a) if lower else min(b) > max(a)
                if by > bound:
                    verdict = "worse"
                    bad = True
                elif max(a_spread, b_spread) > bound:
                    verdict = "better" if all_better else "unresolved"
                elif by < -bound:
                    verdict = "better"
                else:
                    verdict = "within"
                print(
                    f"{workload:12} {spec['name']:16} {a_med:12.5g} {b_med:12.5g} {by:9.2%} "
                    f"{bound:6.0%}  {verdict}"
                )
        if cand_failed > base_failed:
            print(f"failed ops rose from {base_failed} to {cand_failed}")
            bad = True
    return int(bad)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
