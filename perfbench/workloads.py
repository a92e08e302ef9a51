"""The three benchmark workloads: one pass each, with its output gate.

A pass starts from fresh program state, the way a ``qpair`` invocation
does, so every pass pays the same lazy set-up.  Each pass returns its
operations as ``(name, ok)`` pairs; an operation that is wrong, or an
expected operation that is missing, is a failure.  The expected outputs in
``expected.json`` were recorded with ``record_expected.py`` from the
program as it stood when the benchmark was added.

The full stacks (``verify --suite all`` at (2,3), the whole criterion-13
stack at (3,4), all twelve dump targets at (2,5)) each take one to two
minutes on a 2-core machine, longer than one timed run of the benchmark
may last.  Each pass therefore runs a fixed slice of its stack; the
slices are listed below.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple

from qpair import cli
from qpair.algebra import Algebra
from qpair.ideals import BlockSystem
from qpair.realization import Realization
from qpair.report import RunConfig

from pace import Pacer

perf_counter = time.perf_counter

# verify-2-3: the suites that fit one pass.  ``idempotents``, ``blocks``,
# ``shapes``, ``slf``, ``radford`` and ``qchar`` take 2-60 s each at (2,3)
# and are left out.
VERIFY_SUITES = ("relations", "hopf", "modules", "ideals", "integrals",
                 "center")

# smoke-3-4: criterion 13 with the six smallest of its 24 Steinberg
# idempotent squares and without its sampled Hopf axioms.  The Hopf part
# costs 8-16 s at (3,4) depending on which monomials the seed draws, more
# than the rest of the pass together.
SMOKE_SQUARES = ((1, 1), (1, 2), (2, 1))

# dump-2-5: the targets that fit one pass.  ``slf`` alone takes 40 s.
DUMP_TARGETS = ("block 2 1", "block 1 5", "block 0 5", "idempotents",
                "integrals")

Ops = List[Tuple[str, bool]]


class PassResult:
    """Outcome of one pass: its operations, times and layer extras.

    ``seconds`` is the pass time at the reference speed (see ``pace``),
    ``wall_s`` the wall-clock time.
    """

    def __init__(self) -> None:
        self.ops: Ops = []
        self.seconds = 0.0
        self.wall_s = 0.0
        self.extra: Dict[str, float] = {}

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.ops if not ok)


def _span(tracer, name: str, kind: str):
    return tracer.span(name, kind) if tracer is not None else nullcontext()


def missing_ops(got: List[str], want: List[str]) -> Ops:
    """One failed operation per expected name absent from ``got``."""
    lost = Counter(want) - Counter(got)
    return [(f"missing:{name}", False)
            for name in sorted(lost.elements())]


def build_state(workload: str):
    """The state a pass starts from; what the set-up probe builds."""
    if workload == "verify-2-3":
        return cli.Session(RunConfig(p1=2, p2=3, suites=VERIFY_SUITES))
    if workload == "smoke-3-4":
        return Algebra.for_pair(3, 4)
    if workload == "dump-2-5":
        return cli.Session(RunConfig(p1=2, p2=5, suites=("all",)))
    raise ValueError(f"unknown workload {workload!r}")


def verify_pass(seed: int, expected: dict, tracer=None) -> PassResult:
    """``qpair verify --suite <VERIFY_SUITES> --seed <seed>`` at (2,3)."""
    out = PassResult()
    _, report = cli.run(RunConfig(p1=2, p2=3, suites=VERIFY_SUITES,
                                  seed=seed))
    out.ops = [(c.check_id, c.passed) for c in report.checks]
    for name, seconds in report.suite_timings.items():
        out.extra[f"cli.suite.{name}_s"] = seconds
    return out


def smoke_pass(seed: int, expected: dict, tracer=None) -> PassResult:
    """Criterion-13 parts at (3,4): relations, idempotent squares and the
    boundary center, which must have dimension 3.  Uses no seed."""
    out = PassResult()
    A = build_state("smoke-3-4")
    with _span(tracer, "relations", "part"):
        out.ops += [(c.check_id, c.passed)
                    for c in A.verify_defining_relations()]
    B = BlockSystem(A)
    with _span(tracer, "steinberg-idempotents", "part"):
        for label in B.block_labels():
            if not B.block_kind(label).startswith("corner"):
                continue
            for entry in B.primitive_idempotent_catalog(label):
                if tuple(entry[4:]) not in SMOKE_SQUARES:
                    continue
                e = B.primitive_idempotent(*entry)
                out.ops.append((f"square{entry}", e * e == e))
    with _span(tracer, "boundary-center", "part"):
        edge = next(label for label in B.block_labels()
                    if B.block_kind(label) == "edge-1")
        dim = Realization(B).center_dimension(edge)
        out.ops.append((f"center-dimension[{edge.r1},{edge.r2}]", dim == 3))
    return out


def dump_pass(seed: int, expected: dict, tracer=None) -> PassResult:
    """``qpair dump`` of each DUMP_TARGETS entry at (2,5), one Session.

    Each target's JSON text must hash to the recorded digest, and the
    idempotent and integral elements must re-parse to the originals.
    """
    out = PassResult()
    session = build_state("dump-2-5")
    totals = Counter()
    for target in DUMP_TARGETS:
        with _span(tracer, target, "dump-target"):
            t0 = perf_counter()
            payload = cli.dump_payload(session, target)
            t1 = perf_counter()
            text = json.dumps(payload, indent=2)
            t2 = perf_counter()
            ok = (hashlib.sha256(text.encode()).hexdigest()
                  == expected["sha256"].get(target))
            ok = ok and _reparse_ok(session, payload, totals)
            totals["cli.dump_payload.total_s"] += t1 - t0
            totals["cli.serialize_s"] += t2 - t1
            totals["cli.dump.bytes"] += len(text.encode())
            out.ops.append((target, ok))
    out.extra.update(totals)
    return out


def _reparse_ok(session, payload: dict, totals: Counter) -> bool:
    """Re-parse the dumped elements and compare them with the originals."""
    algebra = session.algebra
    pairs = []
    t0 = perf_counter()
    if payload["target"] == "idempotents":
        for item in payload["idempotents"]:
            entry = (item["kind"], item["alpha"], item["r1"], item["r2"],
                     item["s1"], item["s2"])
            pairs.append((cli.element_from_json(algebra, item["element"]),
                          entry))
    elif payload["target"] == "integrals":
        pairs.append((cli.element_from_json(
            algebra, payload["two_sided_element"]), None))
    totals["cli.parse_s"] += perf_counter() - t0
    for parsed, entry in pairs:
        original = (session.functionals.integral_element() if entry is None
                    else session.system.primitive_idempotent(*entry))
        if parsed != original:
            return False
    return True


PASSES: Dict[str, Callable[..., PassResult]] = {
    "verify-2-3": verify_pass,
    "smoke-3-4": smoke_pass,
    "dump-2-5": dump_pass,
}

PAIRS = {"verify-2-3": (2, 3), "smoke-3-4": (3, 4), "dump-2-5": (2, 5)}


def run_pass(workload: str, seed: int, expected: dict,
             tracer: Optional[object] = None) -> PassResult:
    """Run one timed pass of ``workload`` and apply its gate."""
    with _span(tracer, workload, "pass"), Pacer() as pace:
        result = PASSES[workload](seed, expected, tracer)
    result.seconds, result.wall_s = pace.seconds, pace.wall_s
    result.ops += missing_ops([name for name, _ in result.ops],
                              expected["ops"])
    return result
