"""qpair benchmark: exact-verification workloads, timed and gated.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify-2-3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run is one fresh interpreter working on one workload, single-threaded.
It times passes of the workload (see ``workloads.py``) until ``--seconds``
would be exceeded, at least one pass, and gates every pass's outputs.
``run_s`` is the median pass time at the reference machine speed (see
``pace.py``); the wall-clock median is printed and recorded beside it.
The run also starts ``SETUP_PROBES`` fresh interpreters that only import
``qpair`` and build the workload's state; ``setup_s`` is the median of
their times at the reference speed.  ``peak_rss_mb`` is the run's ``ru_maxrss`` after
its first pass and ``ops_total`` the operations in one pass.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; ``trace.overhead_s`` is the median traced pass minus
the median untraced pass.  Every run writes its full record (provenance,
passes, per-layer table, spans) to ``perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed or
missing operation makes the exit status 1; a checkout without the
program's sources gives 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-2-3", "smoke-3-4", "dump-2-5")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 170

# Per-layer table: traced function -> the statistics reported for it.
_CALL_METRICS = {
    "cyclo.mul": ("calls", "self_s"),
    "cyclo.add": ("calls", "self_s"),
    "cyclo.make": ("calls", "self_s"),
    "cyclo.inverse": ("calls", "self_s"),
    "algebra.product_monomials": ("calls", "self_s"),
    "algebra.elem_mul": ("calls", "self_s"),
    "algebra.tensor_mul": ("calls", "self_s"),
    "algebra.coproduct_monomial": ("calls", "total_s"),
    "algebra.antipode": ("calls", "total_s"),
    "linalg.span_add": ("calls", "self_s"),
    "linalg.span_coordinates": ("calls", "self_s"),
    "linalg.nullspace": ("calls", "total_s"),
    "linalg.matrix_mul": ("calls", "self_s"),
    "modules.simple_action": ("calls", "total_s"),
    "modules.verify_simple_family": ("total_s",),
    "ideals.build_named_element": ("calls", "total_s"),
    "ideals.primitive_idempotent": ("calls", "total_s"),
    "ideals.verify_ladder_relations": ("total_s",),
    "realization.generator_matrix": ("calls", "total_s"),
    "realization.monomial_matrices": ("calls", "total_s"),
    "realization.represent": ("calls", "self_s"),
    "realization.block_realization": ("total_s",),
    "realization.center_dimension": ("total_s",),
    "functionals.integral_functional": ("total_s",),
}
_COUNTERS = ("algebra.elem_mul.term_pairs", "algebra.elem_mul.out_terms",
             "linalg.span_add.pivots")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; BENCHMARK.json run_seconds "
                             "by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _provenance(workload: str, seed: int) -> dict:
    from workloads import PAIRS

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload, "seed": seed,
            "pair": list(PAIRS[workload]), "commit": commit,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def _setup_seconds(workload: str) -> tuple:
    """Spawn-to-state times of SETUP_PROBES fresh interpreters, at the
    reference speed and in wall-clock seconds."""
    paced, wall = [], []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             workload, repr(spawned)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        fields = done.stdout.strip().splitlines()[-1].split()
        paced.append(float(fields[0]))
        wall.append(float(fields[1]))
    return paced, wall


def _measure(workload: str, seed: int, seconds: float, trace: bool,
             expected: dict):
    """Time passes until the next one would overrun ``seconds``.

    Also returns the peak RSS in MiB after the first (untraced) pass, so
    that it does not depend on how many passes fit.
    """
    from tracer import Tracer, install
    from workloads import run_pass

    start = time.perf_counter()
    untraced, traced = [], []
    peak_mb = None
    while True:
        tracing = trace and len(untraced) > len(traced)
        tracer = Tracer() if tracing else None
        if tracing:
            install(tracer)
        try:
            result = run_pass(workload, seed, expected, tracer)
        finally:
            if tracing:
                tracer.uninstall()
        if tracing:
            traced.append((result, tracer.snapshot()))
        else:
            untraced.append(result)
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace and not traced:
            continue
        nxt = ([r for r, _ in traced] if trace and len(untraced) > len(traced)
               else untraced)
        estimate = statistics.median(r.wall_s for r in nxt)
        if time.perf_counter() - start + estimate > seconds:
            return untraced, traced, peak_mb


def _layer_table(untraced, traced) -> dict:
    """Every per-layer metric: counts from the first traced pass, times as
    the median over traced passes, rescaled to the reference speed.  The
    pass extras (suite and dump timings, dump bytes) are medians over the
    untraced passes, timings in wall-clock seconds."""
    table = {}
    snaps = [snap for _, snap in traced]
    scales = [r.seconds / r.wall_s for r, _ in traced]

    def med(values):
        return statistics.median(values) if values else 0

    def traced_s(fn, stat):
        return med([snap["functions"].get(fn, {}).get(stat, 0) * scale
                    for snap, scale in zip(snaps, scales)])

    for fn, stats in _CALL_METRICS.items():
        for stat in stats:
            table[f"{fn}.{stat}"] = (
                (snaps[0]["functions"].get(fn, {}).get(stat, 0), "count")
                if stat == "calls" else (traced_s(fn, stat), "s"))
    table["algebra.construct_s"] = (traced_s("algebra.construct", "total_s"),
                                    "s")
    for counter in _COUNTERS:
        table[counter] = (snaps[0]["counters"].get(counter, 0), "count")
    extras = sorted({k for r in untraced for k in r.extra})
    for key in extras:
        unit = "bytes" if key.endswith(".bytes") else "s"
        table[key] = (med([r.extra.get(key, 0) for r in untraced]), unit)
    table["trace.overhead_s"] = (
        med([r.seconds for r, _ in traced])
        - med([r.seconds for r in untraced]), "s")
    return table


def run_workload(args) -> int:
    spec = _benchmark_spec()
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)[args.workload]

    setup, setup_wall = _setup_seconds(args.workload)
    sys.path.insert(0, str(SRC))
    import qpair

    if Path(qpair.__file__).resolve().parent != (SRC / "qpair").resolve():
        print(f"error: qpair imported from {qpair.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    untraced, traced, peak_mb = _measure(args.workload, args.seed, seconds,
                                bool(args.trace), expected)
    passes = untraced + [r for r, _ in traced]
    attempted = sum(len(r.ops) for r in passes)
    failed = sum(r.failed for r in passes)
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(r.seconds for r in untraced), "s"),
        "peak_rss_mb": (peak_mb, "MiB"),
        "ops_total": (min(len(r.ops) for r in untraced), "count"),
    }
    record = {
        "provenance": _provenance(args.workload, args.seed),
        "seconds": seconds,
        "setup_samples_s": setup,
        "setup_wall_s": setup_wall,
        "run_wall_s": statistics.median(r.wall_s for r in untraced),
        "passes": [{"traced": i >= len(untraced), "seconds": r.seconds,
                    "wall_s": r.wall_s,
                    "ops": len(r.ops), "failed": r.failed,
                    "failures": [n for n, ok in r.ops if not ok],
                    "extra": r.extra}
                   for i, r in enumerate(passes)],
        "end_to_end": end_to_end,
        "attempted": attempted, "failed": failed,
    }
    if args.trace:
        layers = _layer_table(untraced, traced)
        record["per_layer"] = layers
        record["traced_functions"] = [snap["functions"] for _, snap in traced]
        record["spans"] = [snap["spans"] for _, snap in traced]
        wanted = spec["per_layer"]
    else:
        layers = end_to_end
        wanted = spec["end_to_end"]
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    prov = record["provenance"]
    print(f"# {args.workload} pair={tuple(prov['pair'])} seed={args.seed} "
          f"commit={prov['commit'][:12]} python={prov['python']} "
          f"nproc={prov['nproc']} passes={len(untraced)}+{len(traced)} "
          f"traced; record {out_path.relative_to(ROOT)}")
    for name, (value, unit) in sorted(layers.items()):
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(f"{'ops_failed':48s} {failed:>16d} count")
    print(f"{'run_wall_s (wall clock, not rescaled)':48s} "
          f"{record['run_wall_s']:>16.6g} s")
    metrics = {m["name"]: {"value": layers[m["name"]][0],
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = 1
        lines = done.stdout.strip().splitlines()
        if lines:
            result = json.loads(lines[-1])
            rows.append((workload, result))
    print()
    for workload, result in rows:
        cells = [f"{name}={m['value']:.6g} {m['unit']}"
                 for name, m in result["metrics"].items()]
        print(f"{workload:12s} " + "  ".join(cells)
              + f"  ops_failed={result['failed']} count")
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qpair" / "__init__.py").is_file():
        print(f"error: no qpair sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
