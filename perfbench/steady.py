"""Steadiness self-check: run the benchmark repeatedly and compare every
end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --traced

Each of two sets runs every workload ten times, with seeds 1 to 10, for
the ``run_seconds`` of BENCHMARK.json.  Per set and metric it prints the
quartile spread (Q3 - Q1) / median against the metric's bound, and by how
much the second set's median differs from the first set's; either beyond
the bound makes the check fail.  ``--traced`` instead makes two traced
runs per workload with seed 1 and reports every count, byte and gflop
metric that differs between them.
Every result is also written to ``_runs/steady-<time>.json``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SETS = 2
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed")
    return result


def spreads() -> dict:
    """Per set, workload and metric: the values of every run."""
    values = {w: {m["name"]: [[] for _ in range(SETS)] for m in BENCHMARK["end_to_end"]}
              for w in WORKLOADS}
    for s in range(SETS):
        for workload in WORKLOADS:
            for seed in SEEDS:
                t0 = time.perf_counter()
                metrics = run_once(workload, seed, 0)["metrics"]
                print(f"set {s} {workload} seed {seed}: {time.perf_counter() - t0:.1f} s",
                      flush=True)
                for name, series in values[workload].items():
                    series[s].append(metrics[name]["value"])
    report, steady = {}, True
    for workload, metrics in values.items():
        for spec in BENCHMARK["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            sets = metrics[name]
            widths = [measure.quartile_spread(v) for v in sets]
            medians = [measure.median(v) for v in sets]
            drift = measure.worse_by(medians[0], medians[-1], spec["better"])
            ok = abs(drift) <= bound and max(widths) <= bound
            steady &= ok
            report[f"{workload} {name}"] = {"values": sets, "spread": widths,
                                            "median": medians, "drift": drift,
                                            "bound": bound}
            print(f"{workload:<14} {name:<26} median {medians[0]:<11.5g} spread "
                  + " ".join(f"{w:6.3f}" for w in widths)
                  + f"  drift {drift:+6.3f}  bound {bound:.2f}"
                  + ("" if ok else "  OUT OF BOUND")
                  + ("" if max(widths) <= bound / 3 else "  (above bound/3)"))
    print("steady" if steady else "NOT steady")
    return report


def traced_counts() -> dict:
    """Two traced runs per workload; count metrics that differ."""
    exact = {m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "B", "gflop")}
    report = {}
    for workload in WORKLOADS:
        first, second = (run_once(workload, SEEDS[0], 1)["metrics"] for _ in range(2))
        differ = {name: [first[name]["value"], second[name]["value"]] for name in sorted(exact)
                  if first[name]["value"] != second[name]["value"]}
        report[workload] = {"counts": {n: first[n]["value"] for n in sorted(exact)},
                            "differ": differ}
        print(f"{workload}: {len(exact) - len(differ)} of {len(exact)} counts identical"
              + "".join(f"\n  {n}: {v[0]} != {v[1]}" for n, v in differ.items()))
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    report = traced_counts() if args.traced else spreads()
    out = HERE / "_runs" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
