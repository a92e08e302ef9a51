"""Steadiness record: repeat the benchmark over seeds and summarise spread.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10 [--workload verify-2-3 ...]

Runs ``run.py --trace 0`` once per seed (1..runs) for each workload, one
run at a time, and writes ``perfbench/steadiness.json``: for every
end-to-end metric its values, median, quartiles (``statistics.quantiles``
with ``n=4``) and the quartile spread as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  A spread at or above a third
of the bound is flagged (``setup_s`` is exempt from the spread rule).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound,
            "steady": spread < bound / 3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", default=str(HERE / "steadiness.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"run_seconds": spec["run_seconds"], "runs": args.runs,
              "workloads": {}}
    status = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--trace", "0"],
                capture_output=True, text=True, timeout=180, cwd=ROOT)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                status = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {n: round(v[-1], 4)
                                   for n, v in values.items()}, flush=True)
        summary = {name: summarise(vals, bounds[name])
                   for name, vals in values.items()}
        record["workloads"][workload] = summary
        for name, s in summary.items():
            flag = "" if s["steady"] or name == "setup_s" else "  UNSTEADY"
            print(f"{workload:12s} {name:12s} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={s['spread']:.4f} bound={s['bound']}{flag}",
                  flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
