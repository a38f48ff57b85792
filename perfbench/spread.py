#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload adapt-live-S --seeds 1 2 3 4 5

Runs ``perfbench/run.py --trace 0`` for ``run_seconds`` of
``BENCHMARK.json`` once per seed, one after another, and prints per
end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance over
the median) and the bound. ``OVER`` marks a spread above a third of the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: outputs failed their checks\n{out.stdout}")
    return result


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    if len(args.seeds) < 2:
        p.error("need at least two seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, spec["run_seconds"]))
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    for name in runs[0]["metrics"]:
        row = summarise([r["metrics"][name]["value"] for r in runs])
        bound = bounds[name]
        flag = "  OVER" if row["spread"] > bound / 3 else ""
        print(f"{name:20s} median {row['median']:.6g} q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
              f"spread {row['spread']:.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
