#!/usr/bin/env python3
"""Builds and runs one perfbench workload; prints the result as its last line.

    python3 perfbench/run.py --workload train-amazon --seed 1 --seconds 15 --trace 0

Run from the repository root. The library and the benchmark are built from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
on first use. The served model of churn-sharded is trained in a separate,
untimed process (once per build, cached next to it), so the serving
process's peak RSS is its own. --trace 1 runs the workload untraced and
then traced with the same seed, reports the per-layer metrics, and the
traced run's throughput loss as bench.tracing_overhead_pct; the spans go to
<build>/traces/<workload>-seed<N>.json.

Exits nonzero, without printing a result, when the build or a run fails;
exits nonzero after printing it when any output was invalid.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-amazon", "churn-sharded")
SERVING = ("churn-sharded",)
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
OVERHEAD = "bench.tracing_overhead_pct"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(f"[perfbench] {message}", flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the perfbench binary; returns its path."""
    out.mkdir(parents=True, exist_ok=True)
    build_log = out / "build.log"
    with open(build_log, "w") as sink:
        if not (out / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sink, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"configure failed; see {build_log}")
        compile_cmd = ["cmake", "--build", str(out), "--target", "perfbench",
                       "-j", "3"]
        if subprocess.run(compile_cmd, stdout=sink, stderr=subprocess.STDOUT,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            raise BenchError(f"build failed; see {build_log}")
    return out / "perfbench"


def binary_digest(binary):
    return hashlib.sha256(binary.read_bytes()).hexdigest()[:16]


def prepared_model(binary, out):
    """The served model's checkpoint, trained once per build."""
    models = out / "models" / binary_digest(binary)
    models.mkdir(parents=True, exist_ok=True)
    path = models / "delicious.slide"
    if not path.exists():
        log("preparing the serving model")
        done = subprocess.run([str(binary), "prepare", "--out", str(path)],
                              timeout=RUN_TIMEOUT_S)
        if done.returncode != 0 or not path.exists():
            raise BenchError("model preparation failed")
    return path


def run_binary(binary, args, traced, checkpoint, trace_out):
    cmd = [str(binary), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if traced else "0"]
    if checkpoint is not None:
        cmd += ["--checkpoint", str(checkpoint)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        raise BenchError(f"run exited {done.returncode} without a result")
    return result, done.returncode


def expected_metrics(spec, traced):
    """name -> unit for the metrics the run's mode must print."""
    group = spec["per_layer"] if traced else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(result, expected, traced):
    """Problems with a run's result against BENCHMARK.json, as strings."""
    problems = []
    if sorted(result) != sorted(RESULT_KEYS):
        problems.append(f"result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing} extra {extra}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not a finite number")
        elif not traced and value == 0:
            problems.append(f"{name} is 0")
        if name in expected and entry.get("unit") != expected[name]:
            problems.append(f"{name} unit {entry.get('unit')} != "
                            f"{expected[name]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("no operation attempted")
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = build_dir()
    binary = build(out)
    checkpoint = None
    if args.workload in SERVING:
        checkpoint = prepared_model(binary, out)

    traced = args.trace == 1
    result, code = run_binary(binary, args, False, checkpoint, None)
    untraced_rate = result.pop("throughput_per_s")
    if traced:
        untraced_ok = code == 0 and result["correct"]
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        trace_out = traces / f"{args.workload}-seed{args.seed}.json"
        result, code = run_binary(binary, args, True, checkpoint, trace_out)
        traced_rate = result.pop("throughput_per_s")
        result["metrics"][OVERHEAD] = {
            "value": 100.0 * (untraced_rate - traced_rate) / untraced_rate,
            "unit": "%"}
        log(f"spans written to {trace_out}")
        if not untraced_ok:
            log("INVALID: the untraced run of the same seed failed")
            result["correct"] = False

    problems = check_result(result, expected_metrics(spec, traced), traced)
    for problem in problems:
        log(f"INVALID: {problem}")
    if problems:
        result["correct"] = False
    print(json.dumps({key: result[key] for key in RESULT_KEYS}), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, KeyError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
