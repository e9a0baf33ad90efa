#!/usr/bin/env python3
"""Validate a Chrome-trace JSON file produced by `anyseq-obs`.

Usage: check_trace.py <trace.json> [--flight]

Fails (exit 1) unless the trace is a well-formed event array:
  * every event carries name/ph/pid/tid, with ph one of B/E/M and a
    numeric `ts` on B and E,
  * per (pid, tid) lane, timestamps are monotone non-decreasing, every
    B is closed by an E with the same name, no E arrives without an
    open B, and spans on one lane never nest or overlap (the
    per-worker recorder emits strictly sequential stage spans),
  * a thread_name metadata event names the coordinator lane (tid 0).

Structure only: how much of the wall clock the spans cover is not
checked. A batch's wall is sub-millisecond at smoke sizes and the time
between spans is plan/spawn, which has no `Stage`.

`--flight` validates a serve-daemon flight-recorder dump instead
(`anyseq serve-ctl --dump` / the `DUMP` verb): two pid groups (engine
batches + request lanes) share the same structural rules, the
coordinator-lane requirement is waived (the batch ring may be empty),
and every request-lifecycle stage name (decode, window_wait,
queue_wait, dispatch, reply_write) must appear as a completed span.

Guards the `--trace-out` artifact and the flight dump
(formats documented in docs/ARCHITECTURE.md) against malformed or
incomplete span streams.
"""

import json
import sys

REQUIRED_FIELDS = ("name", "ph", "pid", "tid")


def main() -> int:
    argv = list(sys.argv[1:])
    flight = "--flight" in argv
    if flight:
        argv.remove("--flight")
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = argv[0]

    with open(path) as fh:
        events = json.load(fh)
    if not isinstance(events, list):
        print(f"{path}: top-level JSON value must be an array", file=sys.stderr)
        return 1

    errors = []
    open_span = {}  # (pid, tid) -> (name, ts) of the currently open B
    last_ts = {}  # (pid, tid) -> ts of the lane's previous B/E event
    names = set()  # thread_name metadata values
    span_names = set()  # names of completed spans
    spans = 0

    for k, ev in enumerate(events):
        where = f"event {k}"
        if not isinstance(ev, dict) or any(f not in ev for f in REQUIRED_FIELDS):
            errors.append(f"{where}: missing one of {'/'.join(REQUIRED_FIELDS)}")
            continue
        ph, tid = ev["ph"], (ev["pid"], ev["tid"])
        if ph == "M":
            if ev["name"] == "thread_name":
                names.add(ev.get("args", {}).get("name"))
            continue
        if ph not in ("B", "E"):
            errors.append(f"{where}: unexpected ph {ph!r}")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: {ph} event without numeric ts")
            continue
        if ts < last_ts.get(tid, float("-inf")):
            errors.append(
                f"{where}: tid {tid} timestamps go backwards "
                f"({ts} after {last_ts[tid]})"
            )
        last_ts[tid] = ts
        if ph == "B":
            if tid in open_span:
                errors.append(
                    f"{where}: tid {tid} opens {ev['name']!r} while "
                    f"{open_span[tid][0]!r} is still open (lanes must not nest)"
                )
            open_span[tid] = (ev["name"], ts)
        else:
            if tid not in open_span:
                errors.append(f"{where}: tid {tid} E {ev['name']!r} without an open B")
                continue
            b_name, _ = open_span.pop(tid)
            if b_name != ev["name"]:
                errors.append(
                    f"{where}: tid {tid} E {ev['name']!r} closes B {b_name!r}"
                )
            span_names.add(b_name)
            spans += 1

    for tid, (name, ts) in sorted(open_span.items()):
        errors.append(f"tid {tid}: B {name!r} at ts {ts} never closed")
    if flight:
        stages = ("decode", "window_wait", "queue_wait", "dispatch", "reply_write")
        missing = [s for s in stages if s not in span_names]
        if missing:
            errors.append(
                "flight dump is missing request stage spans: " + ", ".join(missing)
            )
    elif "coordinator" not in names:
        errors.append("no thread_name metadata names the coordinator lane")
    if spans == 0:
        errors.append("trace contains no complete spans")

    if errors:
        for e in errors:
            print(f"{path}: {e}", file=sys.stderr)
        return 1
    print(f"{path}: {spans} spans on {len(last_ts)} lanes, balanced and monotone")
    return 0


if __name__ == "__main__":
    sys.exit(main())
