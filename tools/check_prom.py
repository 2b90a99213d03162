#!/usr/bin/env python3
"""Lint a Prometheus text-format (0.0.4) scrape.

Reads the exposition from a file (or stdin with "-") and enforces the
invariants our renderer (src/metrics/prometheus.cpp) promises:

  * metric and label names match the Prometheus grammar
  * every sample's family has a # TYPE line, declared before first use
  * at most one TYPE/HELP per family; no duplicate samples (name+labels)
  * counters end in _total and are non-negative
  * ratio gauges (names ending in _occupancy or _saturation, e.g. the
    per-layer slide_lsh_bucket_* table-health gauges) lie in [0, 1]
  * histograms: le buckets are cumulative, +Inf bucket present,
    _count == +Inf bucket, _sum present
  * no trailing garbage lines

With --require-serve, also checks that the serving families the CI smoke
test depends on are present (request counters, queue depth, service-time
EWMA, latency histogram).

Exit code 0 when clean, 1 with one violation per line on stderr.

Usage:
  python3 tools/check_prom.py scrape.txt
  curl -s localhost:9109/metrics | python3 tools/check_prom.py - --require-serve
"""

import argparse
import math
import re
import sys

METRIC_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# name{labels} value   (no timestamps: our renderer never emits them)
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

REQUIRED_SERVE_FAMILIES = [
    "slide_serve_submitted_total",
    "slide_serve_rejected_total",
    "slide_serve_completed_total",
    "slide_serve_errors_total",
    "slide_serve_queue_depth",
    "slide_serve_ewma_service_seconds",
    "slide_serve_latency_seconds",
]


RATIO_SUFFIXES = ("_occupancy", "_saturation")


def base_family(name):
    """Map a histogram sample name to its family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_value(raw):
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    return float(raw)  # raises ValueError on garbage


def lint(text, require_serve=False):
    errors = []
    types = {}  # family -> type string
    helps = set()
    seen_samples = set()  # (name, labels-string) for duplicate detection
    # family -> {labels-without-le (sorted tuple) -> [(le, value)]}
    histogram_buckets = {}
    histogram_sums = {}
    histogram_counts = {}
    families_seen = set()

    for lineno, line in enumerate(text.splitlines(), 1):
        def err(msg):
            errors.append("line %d: %s: %r" % (lineno, msg, line))

        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not METRIC_RE.match(parts[2]):
                err("malformed HELP")
                continue
            if parts[2] in helps:
                err("duplicate HELP for family")
            helps.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not METRIC_RE.match(parts[2]):
                err("malformed TYPE")
                continue
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                err("unknown TYPE kind")
                continue
            if name in types:
                err("duplicate TYPE for family")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue  # free-form comment

        m = SAMPLE_RE.match(line)
        if not m:
            err("unparseable sample line")
            continue
        name = m.group("name")
        raw_labels = m.group("labels") or ""
        try:
            value = parse_value(m.group("value"))
        except ValueError:
            err("unparseable sample value")
            continue

        labels = LABEL_PAIR_RE.findall(raw_labels)
        # Re-serialize to catch junk the pair regex skipped over.
        rebuilt = ",".join('%s="%s"' % (k, v) for k, v in labels)
        if rebuilt != raw_labels:
            err("malformed label block")
            continue
        for key, _ in labels:
            if not LABEL_RE.match(key):
                err("bad label name %r" % key)

        family = base_family(name)
        families_seen.add(family)
        kind = types.get(family) or types.get(name)
        if kind is None:
            err("sample for family with no TYPE line")
            continue

        sample_key = (name, raw_labels)
        if sample_key in seen_samples:
            err("duplicate sample (same name and labels)")
        seen_samples.add(sample_key)

        if kind == "counter":
            if not name.endswith("_total"):
                err("counter name must end in _total")
            if value < 0:
                err("negative counter value")
        elif kind == "gauge" and name.endswith(RATIO_SUFFIXES):
            if not 0.0 <= value <= 1.0:
                err("ratio gauge outside [0, 1]")
        elif kind == "histogram":
            rest = tuple(sorted((k, v) for k, v in labels if k != "le"))
            if name.endswith("_bucket"):
                le = dict(labels).get("le")
                if le is None:
                    err("histogram bucket without le label")
                    continue
                histogram_buckets.setdefault(family, {}).setdefault(
                    rest, []
                ).append((parse_value(le), value))
            elif name.endswith("_sum"):
                histogram_sums.setdefault(family, {})[rest] = value
            elif name.endswith("_count"):
                histogram_counts.setdefault(family, {})[rest] = value
            else:
                err("histogram sample must be _bucket/_sum/_count")

    for family, series in histogram_buckets.items():
        for rest, buckets in series.items():
            label_desc = "%s{%s}" % (family, ",".join("%s=%s" % kv for kv in rest))
            les = [le for le, _ in buckets]
            if les != sorted(les):
                errors.append("%s: le buckets out of order" % label_desc)
            counts = [v for _, v in buckets]
            if any(b > a for a, b in zip(counts[1:], counts[:-1])):
                errors.append("%s: bucket counts not cumulative" % label_desc)
            if not les or not math.isinf(les[-1]):
                errors.append("%s: missing +Inf bucket" % label_desc)
                continue
            count = histogram_counts.get(family, {}).get(rest)
            if count is None:
                errors.append("%s: missing _count" % label_desc)
            elif count != counts[-1]:
                errors.append(
                    "%s: _count (%g) != +Inf bucket (%g)"
                    % (label_desc, count, counts[-1])
                )
            if rest not in histogram_sums.get(family, {}):
                errors.append("%s: missing _sum" % label_desc)

    if require_serve:
        for family in REQUIRED_SERVE_FAMILIES:
            if family not in families_seen:
                errors.append("required serve family missing: %s" % family)

    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("path", help="scrape file, or - for stdin")
    ap.add_argument(
        "--require-serve",
        action="store_true",
        help="also require the serving metric families CI smoke-tests",
    )
    args = ap.parse_args()

    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()

    errors = lint(text, require_serve=args.require_serve)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print("check_prom: %d violation(s)" % len(errors), file=sys.stderr)
        return 1
    print("check_prom: OK (%d lines)" % len(text.splitlines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
