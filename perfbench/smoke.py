#!/usr/bin/env python3
"""Repeatability smoke test of the benchmark.

Runs every workload at the tiny size (--tiny), untraced and traced, twice
with one seed, and fails unless

  * every run is correct and exits 0,
  * every metric named in BENCHMARK.json is present, with its unit,
  * every per-layer count and ratio of the traced run repeats exactly.

Usage (from the repository root):  python3 perfbench/smoke.py [--seed N]
"""
import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXACT_UNITS = {"count", "ratio"}


def run(workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"FAIL {workload} trace={trace}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    # fs_bulk is not in BENCHMARK.json (see README) but is checked too.
    for workload in ["append_small", "read_verified", "fs_bulk"]:
        for trace in (0, 1):
            first, second = run(workload, seed, trace), run(workload, seed, trace)
            for result in (first, second):
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{workload} trace={trace}: incorrect result")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    failures.append(f"{workload} trace={trace}: metric names/units differ "
                                    f"from BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            if trace == 1:
                for name, unit in expected[1].items():
                    a = first["metrics"].get(name, {}).get("value")
                    b = second["metrics"].get(name, {}).get("value")
                    if unit in EXACT_UNITS and a != b:
                        failures.append(f"{workload}: {name} did not repeat: {a} vs {b}")
            print(f"ok   {workload} trace={trace} attempted={first['attempted']}", flush=True)
    for f in failures:
        print("FAIL", f)
    if failures:
        return 1
    print("smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
