"""Record the outputs the benchmark gates on, from the current program.

Run from the repository root: ``python3 perfbench/record_expected.py``.
It writes ``perfbench/expected.json``: the operation names of one pass of
each workload and the SHA-256 of each dump target's JSON text.  It refuses
to write when any operation fails.  The file in the repository was recorded
from the program as it stood when the benchmark was added.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    from qpair import cli
    from qpair.report import RunConfig
    from workloads import DUMP_TARGETS, run_pass

    session = cli.Session(RunConfig(p1=2, p2=5, suites=("all",)))
    digests = {target: hashlib.sha256(json.dumps(
        cli.dump_payload(session, target), indent=2).encode()).hexdigest()
        for target in DUMP_TARGETS}
    expected = {}
    for workload in ("verify-2-3", "smoke-3-4", "dump-2-5"):
        result = run_pass(workload, 1, {"ops": [], "sha256": digests})
        if result.failed:
            sys.exit(f"{workload}: {result.failed} operations failed")
        expected[workload] = {"ops": [name for name, _ in result.ops]}
    expected["dump-2-5"]["sha256"] = digests
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
