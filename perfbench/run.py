#!/usr/bin/env python3
"""Repository benchmark: build hornet from source, run one workload, check it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness K --workload NAME|all --seconds S

The first form builds the library and the measurement binary (Release)
into .bench_build/perfbench, runs the workload in its own process and
prints, last on stdout, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones;
the traced run also writes its spans to .bench_build/perfbench/traces/.
A host fingerprint line precedes the result, because numbers from
different host classes must never be compared.

The second form is the steadiness check: it runs each workload K times
with seeds N..N+K-1 and prints, per metric, the median, the quartiles,
the sample count and the quartile spread as a share of the median,
against the metric's bound.

See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "hornet_perfbench"
RUN_TIMEOUT_S = 160


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not (ROOT / "src" / "sim" / "system.h").is_file():
        fail(f"hornet sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    if not BINARY.is_file():
        fail(f"build produced no {BINARY}")


def read_text(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def host_fingerprint(compiler, build_type):
    """What a number depends on besides the code: host class and build."""
    model = ""
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        level = read_text(idx / "level")
        kind = read_text(idx / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = read_text(idx / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "l2_per_core": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "compiler": compiler,
        "build_type": build_type,
        "kernel": platform.release(),
    }


def run_binary(args, timeout):
    """Run the measurement binary; return its last stdout line as JSON."""
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_once(spec, workload, seed, seconds, trace):
    """One measurement of one workload. Returns (result, info): result
    follows the benchmark contract, info says what was run where."""
    started = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    probe = None
    if not trace:
        # Peak RSS comes from a fresh process that builds and runs once.
        probe = run_binary(common + ["--rss-probe"], RUN_TIMEOUT_S)
    args = common + ["--seconds", str(seconds), "--trace",
                     "1" if trace else "0"]
    trace_file = None
    if trace:
        trace_file = BUILD_DIR / "traces" / f"{workload}-seed{seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(trace_file)]
    raw = run_binary(args, RUN_TIMEOUT_S - (time.monotonic() - started))
    if probe is not None:
        raw["metrics"]["peak_rss_mb"] = probe["peak_rss_mb"]
        raw["fingerprints"].append(probe["fingerprint"])
        raw["attempted"] += 1
        ok = (probe["ok"] if workload.startswith("mips_") else
              probe["fingerprint"] == raw["reference_fingerprint"])
        if not ok:
            raw["failed"] += 1
            raw["first_failure"] = (raw["first_failure"] or probe["why"] or
                                    "fingerprint differs from the reference")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    problems = []
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} missing or not finite")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if not trace:
        for m in wanted:
            if metrics.get(m["name"], {}).get("value", 0) <= 0:
                problems.append(f"end-to-end metric {m['name']} is not > 0")

    # Every run of one seed must give the same fingerprint; synthetic
    # runs must also equal the 1-thread poll reference.
    prints = set(raw["fingerprints"])
    if len(prints) != 1:
        problems.append(f"runs disagree: fingerprints {sorted(prints)}")
    ref = raw["reference_fingerprint"]
    if not workload.startswith("mips_") and prints != {ref}:
        problems.append(f"fingerprints {sorted(prints)} != reference {ref}")
    if raw["failed"]:
        problems.append(f"{raw['failed']} run(s) failed: {raw['first_failure']}")
    if raw["attempted"] < 1:
        problems.append("no run attempted")

    host = host_fingerprint(raw["compiler"], raw["build_type"])
    if trace_file is not None and trace_file.is_file():
        doc = json.loads(trace_file.read_text())
        doc["host"] = host
        doc["fingerprint"] = sorted(prints)
        trace_file.write_text(json.dumps(doc) + "\n")
    result = {
        "correct": not problems,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    info = {"host": host, "workload": workload, "seed": seed,
            "fingerprint": sorted(prints), "run_s": raw["run_s"],
            "setups": raw["setups"], "simulated_cycles": raw["cycles"],
            "problems": problems}
    if trace_file is not None:
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    return result, info


def quartile_summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def steadiness(spec, workloads, first_seed, count, seconds, trace):
    """Repeat each workload with successive seeds; print per-metric
    quartiles and the spread/bound check."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    all_steady = True
    for w in workloads:
        samples = {}
        started = time.monotonic()
        for seed in range(first_seed, first_seed + count):
            result, info = run_once(spec, w, seed, seconds, trace)
            if not result["correct"]:
                fail(f"{w} seed {seed} incorrect: {info['problems']}")
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print(json.dumps({"workload": w, "seed": seed,
                              "metrics": {k: v["value"] for k, v in
                                          result["metrics"].items()}}),
                  flush=True)
        rows = {}
        for name, values in samples.items():
            row = quartile_summary(values)
            bound = bounds.get(name)
            if bound is not None:
                row["bound"] = bound
                row["steady"] = row["spread"] < bound / 3
                all_steady &= row["steady"]
            rows[name] = row
            print(f"{w:26s} {name:34s} median {row['median']:.6g} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} n {row['n']} "
                  f"spread {100 * row['spread']:.2f}%"
                  + (f" bound {100 * bound:.0f}%"
                     f" {'ok' if row['steady'] else 'NOISY'}"
                     if bound is not None else ""), flush=True)
        rows["wall_s"] = time.monotonic() - started
        report[w] = rows
    print(json.dumps({"steady": all_steady, "workloads": report}))
    return all_steady


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="K",
                    help="repeat each workload K times with successive seeds")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        fail(f"unknown workload {args.workload}; choose from {names} or all")
    seconds = args.seconds or spec["run_seconds"]
    if seconds <= 0:
        fail("--seconds must be positive")
    build()
    workloads = names if args.workload == "all" else [args.workload]
    if args.steadiness:
        if args.steadiness < 4:
            fail("--steadiness needs at least 4 repetitions for quartiles")
        ok = steadiness(spec, workloads, args.seed, args.steadiness,
                        seconds, bool(args.trace))
        sys.exit(0 if ok else 1)
    if len(workloads) != 1:
        fail("a single run takes one workload")
    result, info = run_once(spec, workloads[0], args.seed, seconds,
                            bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
