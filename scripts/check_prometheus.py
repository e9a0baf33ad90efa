#!/usr/bin/env python3
"""Lint a Prometheus text exposition produced by `anyseq-obs`.

Usage: check_prometheus.py <exposition.prom> [--require NAME]...

Fails (exit 1) unless the exposition is well-formed:
  * every non-comment line parses as `name[{labels}] value` with a
    finite numeric value and metric/label names matching the
    Prometheus grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`), label values
    quoted with only `\\"`, `\\\\` and `\\n` escapes,
  * every sample belongs to a `# TYPE` family declared earlier in the
    stream, each family is declared exactly once, and histogram
    families expose only `_bucket` / `_sum` / `_count` samples,
  * per histogram series (family + labels minus `le`), every `_bucket`
    carries an `le` label, counts are cumulative (non-decreasing as
    `le` rises), an `le="+Inf"` bucket is present and equals the
    series' `_count`,
  * counter samples are non-negative.

`--require NAME` (repeatable) additionally demands at least one sample
of family NAME — the CI smoke job uses it to pin the daemon's
stable cold-scrape key set (a metric that only appears after traffic
would make dashboards and alerts race the first request).

Guards the `STATS` scrape / `--metrics` artifact (format documented in
docs/ARCHITECTURE.md) against malformed output and key-set drift.
"""

import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# One label pair: name="value" with the three legal escapes.
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"')
HIST_SUFFIXES = ("_bucket", "_sum", "_count")


def parse_labels(body: str, where: str, errors: list) -> dict:
    """Parses `k="v",k2="v2"` into a dict, reporting malformed parts."""
    out = {}
    pos = 0
    while pos < len(body):
        m = LABEL_RE.match(body, pos)
        if not m:
            errors.append(f"{where}: malformed label set at ...{body[pos:]!r}")
            return out
        if m.group(1) in out:
            errors.append(f"{where}: duplicate label {m.group(1)!r}")
        out[m.group(1)] = m.group(2)
        pos = m.end()
        if pos < len(body):
            if body[pos] != ",":
                errors.append(f"{where}: expected ',' between labels")
                return out
            pos += 1
    return out


def family_of(name: str, types: dict) -> str:
    """Maps a sample name to its declared family (histogram suffixes
    fold into the base name)."""
    if name in types:
        return name
    for suffix in HIST_SUFFIXES:
        base = name.removesuffix(suffix)
        if base != name and types.get(base) == "histogram":
            return base
    return name


def main() -> int:
    argv = list(sys.argv[1:])
    required = []
    while "--require" in argv:
        i = argv.index("--require")
        try:
            required.append(argv[i + 1])
        except IndexError:
            print(__doc__, file=sys.stderr)
            return 2
        del argv[i : i + 2]
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = argv[0]

    errors = []
    types = {}  # family -> declared type
    seen_families = set()  # families with at least one sample
    samples = 0
    # (family, labels-minus-le) -> list of (le, count) for bucket
    # cumulativity, plus the series' _count value.
    buckets = {}
    counts = {}

    with open(path) as fh:
        lines = fh.read().splitlines()

    for n, line in enumerate(lines, 1):
        where = f"line {n}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    errors.append(f"{where}: malformed TYPE comment")
                    continue
                _, _, fam, kind = parts
                if fam in types:
                    errors.append(f"{where}: family {fam!r} declared twice")
                types[fam] = kind
            continue

        m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$", line)
        if not m:
            errors.append(f"{where}: unparseable sample {line!r}")
            continue
        name, _, label_body, value_str = m.groups()
        labels = parse_labels(label_body or "", where, errors)
        try:
            value = float(value_str)
        except ValueError:
            errors.append(f"{where}: non-numeric value {value_str!r}")
            continue
        if math.isnan(value) or math.isinf(value):
            errors.append(f"{where}: non-finite value {value_str!r}")
            continue

        fam = family_of(name, types)
        samples += 1
        seen_families.add(fam)
        kind = types.get(fam)
        if kind is None:
            errors.append(f"{where}: sample {name!r} has no # TYPE declaration")
            continue
        if kind == "counter" and value < 0:
            errors.append(f"{where}: counter {name!r} is negative ({value})")
        if kind == "histogram":
            if name == fam or not name.startswith(fam):
                errors.append(
                    f"{where}: histogram family {fam!r} exposes bare sample {name!r}"
                )
                continue
            suffix = name[len(fam) :]
            if suffix not in HIST_SUFFIXES:
                errors.append(f"{where}: unexpected histogram suffix {suffix!r}")
                continue
            series = (fam, tuple(sorted((k, v) for k, v in labels.items() if k != "le")))
            if suffix == "_bucket":
                if "le" not in labels:
                    errors.append(f"{where}: _bucket sample without an le label")
                    continue
                le = labels["le"]
                bound = math.inf if le == "+Inf" else float(le)
                buckets.setdefault(series, []).append((bound, value, n))
            elif suffix == "_count":
                counts[series] = (value, n)
        elif NAME_RE.match(name) and name != fam:
            errors.append(f"{where}: sample {name!r} under mismatched family {fam!r}")

    for series, entries in buckets.items():
        fam, labels = series
        tag = f"{fam}{{{', '.join(f'{k}={v!r}' for k, v in labels)}}}"
        entries.sort(key=lambda e: e[0])
        prev = -math.inf, 0.0
        for bound, acc, n in entries:
            if acc < prev[1]:
                errors.append(
                    f"line {n}: {tag} bucket le={bound} count {acc} "
                    f"drops below the previous bucket's {prev[1]}"
                )
            prev = bound, acc
        if not entries or entries[-1][0] != math.inf:
            errors.append(f"{tag}: no le=\"+Inf\" bucket")
        elif series in counts and entries[-1][1] != counts[series][0]:
            errors.append(
                f"{tag}: le=\"+Inf\" bucket {entries[-1][1]} != _count {counts[series][0]}"
            )
        if series not in counts:
            errors.append(f"{tag}: histogram series without a _count sample")

    for fam in required:
        if fam not in seen_families:
            errors.append(f"required family {fam!r} has no samples")

    if samples == 0:
        errors.append("exposition contains no samples")

    if errors:
        for e in errors:
            print(f"{path}: {e}", file=sys.stderr)
        return 1
    print(
        f"{path}: {samples} samples across {len(seen_families)} families, "
        f"{len(buckets)} histogram series cumulative and closed"
        + (f", {len(required)} required families present" if required else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
