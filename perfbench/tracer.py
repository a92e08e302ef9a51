"""Per-layer call tracing installed from outside the program.

The tracer replaces public functions and methods of the ``qpair`` modules
with timing wrappers for the life of one traced pass, then puts the
originals back.  Nothing in ``src/`` knows about it.  Per wrapped function
it keeps the call count, the total time (outermost calls only, so
recursion is not counted twice), the self time (the call's duration minus
the time spent in wrapped calls it made) and optional work counters.
Coarse spans (pass, suite, dump target, criterion-13 part) are kept with
their parent span so a trace file shows where a pass spent its time.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter


class Tracer:
    """Aggregates call statistics and coarse spans in memory."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}      # name -> [calls, total, self]
        self.counters: Dict[str, int] = {}           # name -> work count
        self.spans: List[dict] = []
        self._stack: List[float] = []                # child time per open call
        self._open_spans: List[int] = []
        self._patches: List[tuple] = []

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, kind: str):
        """A coarse span; nested spans record this one as their parent."""
        sid = len(self.spans)
        record = {"id": sid,
                  "parent": self._open_spans[-1] if self._open_spans else None,
                  "kind": kind, "name": name, "start": perf_counter()}
        self.spans.append(record)
        self._open_spans.append(sid)
        try:
            yield record
        finally:
            self._open_spans.pop()
            record["end"] = perf_counter()
            record["seconds"] = record["end"] - record["start"]

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, *,
             when: Optional[Callable] = None,
             after: Optional[Callable] = None,
             span_kind: Optional[str] = None) -> Callable:
        """Timing wrapper around ``fn``.

        ``when(args, kwargs)`` selects the calls that are traced (others run
        untimed); ``after(tracer, args, kwargs, result)`` adds work counters;
        ``span_kind`` also records each call as a coarse span.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        depth = [0]
        tracer = self

        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            depth[0] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                if span_kind is None:
                    result = fn(*args, **kwargs)
                else:
                    with tracer.span(name, span_kind):
                        result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                depth[0] -= 1
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[2] += dt - child
                if depth[0] == 0:
                    stats[1] += dt
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch_method(self, owner: type, attr: str, name: str, **opts) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, **opts))
        self._patches.append((owner, attr, original))

    def patch_function(self, module_name: str, attr: str, name: str,
                       **opts) -> None:
        """Wrap a module-level function everywhere ``qpair`` bound it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(name, original, **opts)
        for mod_name, module in list(sys.modules.items()):
            if (mod_name == "qpair" or mod_name.startswith("qpair.")) \
                    and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {
            "functions": {name: {"calls": int(c), "total_s": t, "self_s": s}
                          for name, (c, t, s) in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
        }


def _elem_sizes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("algebra.elem_mul.term_pairs",
                 len(args[0].terms) * len(args[1].terms))
    tracer.count("algebra.elem_mul.out_terms", len(result.terms))


def _span_pivot(tracer: Tracer, args, kwargs, result) -> None:
    if result:
        tracer.count("linalg.span_add.pivots", 1)


def install(tracer: Tracer) -> None:
    """Wrap the traced public surface of every ``qpair`` layer."""
    from qpair import algebra, cli, cyclo, functionals, ideals, linalg
    from qpair import modules, realization

    m = tracer.patch_method
    m(cyclo.CycloField, "_mul", "cyclo.mul")
    m(cyclo.CycloField, "_add", "cyclo.add")
    m(cyclo.CycloField, "make", "cyclo.make")
    m(cyclo.CycloField, "_inverse", "cyclo.inverse")

    m(algebra.Algebra, "__init__", "algebra.construct")
    m(algebra.Algebra, "product_monomials", "algebra.product_monomials")
    m(algebra.AlgebraElement, "__mul__", "algebra.elem_mul",
      when=lambda args, kwargs: isinstance(args[1], algebra.AlgebraElement),
      after=_elem_sizes)
    m(algebra.TensorElement, "__mul__", "algebra.tensor_mul",
      when=lambda args, kwargs: isinstance(args[1], algebra.TensorElement))
    m(algebra.Algebra, "coproduct_monomial", "algebra.coproduct_monomial")
    m(algebra.Algebra, "antipode", "algebra.antipode")

    m(linalg.IncrementalSpan, "add", "linalg.span_add", after=_span_pivot)
    m(linalg.IncrementalSpan, "coordinates", "linalg.span_coordinates")
    tracer.patch_function("qpair.linalg", "nullspace", "linalg.nullspace")
    m(linalg.Matrix, "__mul__", "linalg.matrix_mul",
      when=lambda args, kwargs: isinstance(args[1], linalg.Matrix))

    tracer.patch_function("qpair.modules", "simple_action",
                          "modules.simple_action")
    tracer.patch_function("qpair.modules", "verify_simple_family",
                          "modules.verify_simple_family")

    m(ideals.BlockSystem, "build_named_element", "ideals.build_named_element")
    m(ideals.BlockSystem, "primitive_idempotent", "ideals.primitive_idempotent")
    m(ideals.BlockSystem, "verify_ladder_relations",
      "ideals.verify_ladder_relations")

    R = realization.Realization
    m(R, "generator_matrix", "realization.generator_matrix")
    m(R, "monomial_matrices", "realization.monomial_matrices")
    m(R, "represent", "realization.represent")
    m(R, "block_realization", "realization.block_realization")
    m(R, "center_dimension", "realization.center_dimension")

    m(functionals.Functionals, "integral_functional",
      "functionals.integral_functional")

    for suite in cli.SUITE_ORDER:
        m(cli.Session, f"suite_{suite}", f"cli.suite.{suite}", span_kind="suite")
