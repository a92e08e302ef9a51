"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench -q``.  They
take about a minute; the repository's own test suite does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from qpair import cli  # noqa: E402
from qpair.report import RunConfig  # noqa: E402

from tracer import Tracer, install  # noqa: E402

SHORT_SUITES = ("relations", "hopf", "modules")
IGNORE = shutil.ignore_patterns("__pycache__", "results", ".pytest_cache")


def _checks(tracer=None):
    if tracer is not None:
        install(tracer)
    try:
        _, report = cli.run(RunConfig(p1=2, p2=3, suites=SHORT_SUITES,
                                      seed=5))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return [(c.check_id, c.status, c.detail) for c in report.checks]


def _checkout(tmp_path: Path, with_src: bool = True) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=IGNORE)
    return tmp_path


def _run(root: Path, *args: str):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
         *args], cwd=root, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def test_tracing_changes_no_check_and_counts_repeat():
    plain = _checks()
    first, second = Tracer(), Tracer()
    assert _checks(first) == plain
    assert _checks(second) == plain
    counts = [{name: s["calls"] for name, s in t.snapshot()["functions"].items()}
              for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["cyclo.mul"] > 0
    assert first.counters == second.counters
    suites = [s["name"] for s in first.spans if s["kind"] == "suite"]
    assert suites == [f"cli.suite.{name}" for name in SHORT_SUITES]


def test_tampered_digest_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    digest = expected["dump-2-5"]["sha256"]["block 0 5"]
    expected["dump-2-5"]["sha256"]["block 0 5"] = digest[::-1]
    path.write_text(json.dumps(expected))
    code, lines = _run(root, "--workload", "dump-2-5", "--trace", "0")
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["failed"] <= result["attempted"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = _run(ROOT, "--workload", "verify-2-3", "--trace", trace)
        result = json.loads(lines[-1])
        assert code == 0
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in spec[section]}


def test_checkout_without_sources_fails(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    code, lines = _run(root, "--workload", "verify-2-3", "--trace", "0")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
