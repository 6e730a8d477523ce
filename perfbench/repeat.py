#!/usr/bin/env python3
"""Steadiness evidence: run each workload many times and summarise.

Usage, from the repository root:

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1] [--trace]

Runs the `BENCHMARK.json` command once per seed (`--first-seed` onwards)
on every workload it lists, for its `run_seconds`, one run at a time, and
prints each run's end-to-end values. Per metric it then prints the median,
the quartiles (`statistics.quantiles(values, n=4)`), the spread (quartile
distance over the median) next to the metric's bound, and the worst
deviation of a single run from the median. It also prints the core count,
the CPU model and the filesystem holding the runs' journals. With
`--trace` it adds one traced run per workload and reports the tracing
overhead: the traced run's serving-pass figures against the untraced
medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = ".perfbench"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding `path`, from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as f:
            for line in f:
                fields = line.split()
                mount = fields[4]
                fs = fields[fields.index("-") + 1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fs
    except (OSError, ValueError, IndexError):
        pass
    return f"{fstype} ({best or '?'})"


def run_once(command: list, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    t = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - t
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    scale = abs(med) or 1.0
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / scale,
        "worst": max(abs(v - med) for v in values) / scale,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    journal_fs = filesystem_of(WORK_DIR if os.path.isdir(WORK_DIR) else ".")
    print(f"cores {os.cpu_count()} | cpu {cpu_model()} | journal filesystem {journal_fs}")
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(bench["command"], workload, seed, seconds, False)
            runs.append(r)
            values = " ".join(f"{name} {r['metrics'][name]['value']:.5g}" for name in bounds)
            print(f"  {workload} seed {seed}: correct={r['correct']} failed={r['failed']}/"
                  f"{r['attempted']} in {r['elapsed_s']:.1f}s | {values}", flush=True)
        medians = {}
        print(f"{workload}: {args.runs} runs, {sum(r['failed'] for r in runs)} failed operations")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'worst':>7}")
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            medians[name] = s["median"]
            print(f"  {name:<18} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                  f"{s['spread']:>8.2%} {bounds[name]:>6.0%} {s['worst']:>7.2%}", flush=True)
        if args.trace:
            t = run_once(bench["command"], workload, args.first_seed, seconds, True)
            tm = {name: v["value"] for name, v in t["metrics"].items()}
            print(f"  traced run: correct={t['correct']} failed={t['failed']}"
                  f" | visible p50 {tm['trace.visible_p50_ms'] / medians['visible_p50_ms'] - 1:+.2%}"
                  f" | deltas/s {tm['trace.deltas_per_s'] / medians['deltas_per_s'] - 1:+.2%}"
                  f" vs untraced medians"
                  f" | span recording {tm['trace.overhead_share']:.4%} of replay wall"
                  f" | self-time sum {tm['trace.self_sum_share']:.3f} of absorb wall", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
