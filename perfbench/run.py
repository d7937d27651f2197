#!/usr/bin/env python3
"""Benchmark entry point: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. Metric names and units
come from BENCHMARK.json. With --trace 0 the result holds every end-to-end
metric, with --trace 1 every per-layer metric (0 for a layer the workload
does not exercise). The last line of stdout is the JSON result; the lines
before it are a readable report with the host/build fingerprint.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("spec_mcf", "persist_hash", "crash_recover", "kv_ycsb_a")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configure once, then bring the build up to date; returns the binary."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "cmake_install.cmake").exists():  # written by a completed configure
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", "steins_perfbench"],
                   check=True, stdout=sys.stderr)
    return out / "steins_perfbench"


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs the benchmark program; returns its parsed result line."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[0]} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark program printed nothing")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the simulator and benchmark sources (a git commit is not
    available in an exported checkout)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the repository this checkout is, or None outside one."""
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def select_metrics(res, trace, e2e_units, layer_units):
    """The metrics this mode reports, checked against BENCHMARK.json. A run
    with failed ops still reports (as incorrect); a value its failures left
    unusable reads 0."""
    if trace:
        emitted, units = res["per_layer"], layer_units
    else:
        emitted, units = res["end_to_end"], e2e_units
    unknown = sorted(set(emitted) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in units.items():
        value = emitted.get(name, 0.0 if trace else None)  # 0: layer not exercised
        usable = value is not None and math.isfinite(value) and (trace or value != 0)
        if not usable:
            if res["failed"] == 0:
                raise RuntimeError(f"metric {name} has no usable value ({value})")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    e2e_units, layer_units = declared_metrics()
    binary = build()
    res = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    for err in res["errors"]:
        log(f"error: {err}")
    if not res["consistent"]:
        log("benchmark failed: simulated results are not reproducible or the traced "
            "replay diverges from System::run; no metrics reported")
        return 1
    metrics = select_metrics(res, args.trace, e2e_units, layer_units)

    fingerprint = dict(res["fingerprint"], git_commit=git_commit(),
                       source_sha256=source_digest(), seed=args.seed,
                       workload=args.workload)
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    attempted, failed = res["attempted"], res["failed"]
    print(f"{'failed_ops_frac':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            OSError, ValueError, KeyError) as e:
        log(f"benchmark failed: {e}")
        sys.exit(1)
