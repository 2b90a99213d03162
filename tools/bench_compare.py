#!/usr/bin/env python3
"""Benchmark regression gate: compare BENCH_*.json artifacts to baselines.

Used by the `bench-regression` CI job: each bench emits a machine-readable
JSON artifact (either this repo's bench::Json format or google-benchmark's
--benchmark_out format), and this script fails the job when any gated
metric regresses more than --threshold (default 25%) against the snapshot
checked in under bench/baselines/.

Metric extraction:
  * google-benchmark files ({"benchmarks": [...]}) -> one metric per entry,
    keyed by the benchmark name, value = cpu_time (lower is better).
  * bench::Json files -> the document is flattened to dotted paths; a
    numeric leaf becomes a gated metric when its key signals a direction:
      higher-is-better: *per_sec*, *qps*, *speedup*, *throughput*
      lower-is-better:  *seconds*, *_time*, *latency*, *_us, *_ms, *_ns
    Everything else (counts, config echoes, accuracies) is informational.

Comparison modes:
  * absolute (default): each metric's cur/base ratio is thresholded
    directly. Right for a dedicated, quiet benchmarking host.
  * --relative: each metric's slowdown is first normalized by the MEDIAN
    slowdown of its file. Shared CI runners routinely swing 30-40% in
    sustained throughput (frequency scaling, noisy neighbors); the median
    tracks that machine factor, so what remains is the *shape* change —
    one kernel regressing while its siblings hold still. The blind spot
    is a perfectly uniform slowdown of every metric in a file. Only
    within-run ratios ("speedup_*", e.g. shard_scaling's
    speedup_qps_s4_vs_s1) are scale-invariant and gated in every mode;
    a file without one, such as BENCH_maintenance.json, cannot show a
    uniform slowdown under --relative. CI uses --relative.

Baselines are machine-specific: regenerate with --update on the machine
class that runs the gate (CI does this implicitly by uploading the current
artifacts — download, inspect, and commit them to refresh).

Exit codes: 0 ok, 1 regression or missing/corrupt current artifact.
"""

import argparse
import json
import math
import os
import sys

HIGHER_TOKENS = ("per_sec", "qps", "speedup", "throughput", "items_per_second")
LOWER_TOKENS = ("seconds", "_time", "latency", "_us", "_ms", "_ns")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def flatten(node, path, out):
    if isinstance(node, dict):
        # Prefer a human-meaningful label for array elements when present.
        for key, value in node.items():
            flatten(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            label = str(i)
            if isinstance(value, dict):
                parts = [str(value[k]) for k in ("schedule", "name", "label") if k in value]
                if parts:
                    label = "/".join(parts)
            flatten(value, f"{path}[{label}]", out)
    elif is_number(node):
        out[path] = float(node)


def direction_of(key):
    lowered = key.lower()
    if any(tok in lowered for tok in HIGHER_TOKENS):
        return "higher"
    if any(tok in lowered for tok in LOWER_TOKENS):
        return "lower"
    return None


def extract_metrics(doc):
    """Returns {metric_name: (value, direction)} for gated metrics."""
    metrics = {}
    if isinstance(doc, dict) and isinstance(doc.get("benchmarks"), list):
        # google-benchmark format: cpu_time is the stable per-iteration
        # cost. With --benchmark_repetitions, keep the minimum across
        # repetitions (scheduler noise only ever adds time).
        for entry in doc["benchmarks"]:
            if entry.get("run_type") == "aggregate":
                continue
            name = entry.get("name")
            if "/repeats:" in (name or ""):
                name = name.split("/repeats:")[0]
            if name and is_number(entry.get("cpu_time")):
                value = float(entry["cpu_time"])
                if name in metrics:
                    value = min(value, metrics[name][0])
                metrics[name] = (value, "lower")
        return metrics
    flat = {}
    flatten(doc, "", flat)
    for key, value in flat.items():
        direction = direction_of(key)
        if direction is not None:
            metrics[key] = (value, direction)
    return metrics


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def compare_file(name, baseline_doc, current_doc, threshold, relative):
    """Returns a list of (metric, base, cur, slowdown, status) rows; status
    in {ok, REGRESSION, missing, new}. `slowdown` > 1 means worse than
    baseline (direction already folded in)."""
    base = extract_metrics(baseline_doc)
    cur = extract_metrics(current_doc)
    rows = []
    slowdowns = {}
    for metric, (base_value, direction) in base.items():
        if metric not in cur:
            continue
        cur_value = cur[metric][0]
        if base_value <= 0 or cur_value <= 0:
            continue
        # Sub-5ms wall-clock readings are pure noise — skip them.
        if "seconds" in metric.lower() and base_value < 5e-3:
            continue
        slowdowns[metric] = (cur_value / base_value if direction == "lower"
                             else base_value / cur_value)
    # Within-run ratio metrics ("speedup_*") are already scale-invariant:
    # they neither contribute to nor get divided by the machine factor.
    def is_invariant(metric):
        return "speedup" in metric.lower()

    machine_factor = 1.0
    if relative:
        ordered = sorted(v for m, v in slowdowns.items() if not is_invariant(m))
        if ordered:
            machine_factor = ordered[len(ordered) // 2]
    for metric, (base_value, direction) in sorted(base.items()):
        if metric not in cur:
            rows.append((metric, base_value, None, None, "missing"))
            continue
        cur_value = cur[metric][0]
        if metric not in slowdowns:
            rows.append((metric, base_value, cur_value, None, "ok"))
            continue
        slowdown = slowdowns[metric]
        if not is_invariant(metric):
            slowdown /= machine_factor
        bad = slowdown > 1.0 + threshold
        rows.append((metric, base_value, cur_value, slowdown,
                     "REGRESSION" if bad else "ok"))
    for metric in sorted(set(cur) - set(base)):
        rows.append((metric, None, cur[metric][0], None, "new"))
    if relative:
        rows.append((f"(median machine factor {machine_factor:.2f}x "
                     "divided out)", None, None, None, "note"))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default=".")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression tolerance (0.25 = 25%%)")
    parser.add_argument("--relative", action="store_true",
                        help="normalize by each file's median slowdown "
                             "(for noisy shared runners; see module doc)")
    parser.add_argument("--files", nargs="*", default=None,
                        help="restrict to these artifact basenames (lets CI "
                             "gate micro kernels and end-to-end throughput "
                             "at different thresholds)")
    parser.add_argument("--update", action="store_true",
                        help="copy current artifacts over the baselines "
                             "instead of comparing")
    args = parser.parse_args()

    if args.update:
        # Bootstrap-friendly: works with an empty baseline dir, honors
        # --files so a single bench's snapshot can be refreshed alone.
        os.makedirs(args.baseline_dir, exist_ok=True)
        updated = 0
        for name in sorted(os.listdir(args.current_dir)):
            if not (name.startswith("BENCH_") and name.endswith(".json")):
                continue
            if args.files is not None and name not in args.files:
                continue
            doc = load(os.path.join(args.current_dir, name))
            with open(os.path.join(args.baseline_dir, name), "w",
                      encoding="utf-8") as f:
                json.dump(doc, f, indent=1, sort_keys=False)
                f.write("\n")
            print(f"updated baseline {name}")
            updated += 1
        if updated == 0:
            print(f"error: no matching BENCH_*.json in {args.current_dir}")
            return 1
        return 0

    baselines = sorted(
        f for f in os.listdir(args.baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json")
        and (args.files is None or f in args.files))
    if not baselines:
        print(f"error: no matching BENCH_*.json baselines in "
              f"{args.baseline_dir}")
        return 1

    failed = False
    for name in baselines:
        current_path = os.path.join(args.current_dir, name)
        print(f"\n== {name} (threshold {args.threshold:.0%}) ==")
        if not os.path.exists(current_path):
            print(f"error: current artifact {current_path} missing "
                  "(bench crashed or was skipped?)")
            failed = True
            continue
        try:
            current_doc = load(current_path)
        except json.JSONDecodeError as err:
            print(f"error: {current_path} is not valid JSON ({err}) — "
                  "truncated artifact?")
            failed = True
            continue
        rows = compare_file(name, load(os.path.join(args.baseline_dir, name)),
                            current_doc, args.threshold, args.relative)
        gated = 0
        for metric, base, cur, slowdown, status in rows:
            if status == "ok" and slowdown is None:
                continue
            if status in ("ok", "REGRESSION"):
                gated += 1
                print(f"  [{status:^10}] {metric:<60} "
                      f"base={base:<12.6g} cur={cur:<12.6g} "
                      f"slowdown={slowdown:5.2f}x")
                failed |= status == "REGRESSION"
            elif status == "missing":
                print(f"  [{status:^10}] {metric:<60} base={base:.6g} "
                      "(metric disappeared — renamed? regenerate baselines)")
            elif status == "note":
                print(f"  {metric}")
            else:  # new
                print(f"  [{status:^10}] {metric:<60} cur={cur:.6g} "
                      "(not gated until baselines are refreshed)")
        print(f"  {gated} gated metric(s) checked")

    print("\nbench_compare:", "FAIL" if failed else "PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
