"""Verification run configuration and reporting containers.

Every verify_* routine in the package returns a list of Check records; the
CLI groups them into a VerificationReport that can render as a text table
or JSON.  Anchors are stable descriptive slugs naming the mathematical fact
a check certifies, so downstream tooling can key off them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from typing import Iterable

__all__ = ["Check", "RunConfig", "VerificationReport"]


@dataclass
class Check:
    """One verified fact: identifier, outcome, human detail, stable anchor.

    ``corrected`` marks checks whose passing form relies on an adjudicated
    misprint correction; they render with their own status so a reader can
    tell them apart from checks of material taken at face value.
    ``scope`` says what the check ran on, for example "exhaustive: 5
    generators × 432 monomials"; it goes into the JSON report only.
    """

    check_id: str
    passed: bool
    detail: str = ""
    anchor: str = ""
    corrected: bool = False
    scope: str = ""

    @property
    def status(self) -> str:
        if not self.passed:
            return "fail"
        return "erratum-corrected" if self.corrected else "pass"

    def row(self) -> str:
        mark = self.status.upper()
        line = f"[{mark}] {self.check_id}"
        if self.detail:
            line += f" — {self.detail}"
        return line


@dataclass
class RunConfig:
    """Inputs of a verification run, echoed into the report."""

    p1: int
    p2: int
    suites: tuple[str, ...]
    seed: int = 0  # accepted and echoed; no check draws from it
    output_format: str = "text"


@dataclass
class VerificationReport:
    """Aggregated result of one verification run."""

    config: RunConfig
    checks: list[Check] = field(default_factory=list)
    started_at: float = field(default_factory=time.time)
    elapsed_seconds: float = 0.0
    suite_timings: dict = field(default_factory=dict)
    suite_counts: dict = field(default_factory=dict)

    def extend(self, checks: Iterable[Check]) -> None:
        self.checks.extend(checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> tuple[int, int]:
        ok = sum(1 for c in self.checks if c.passed)
        return ok, len(self.checks) - ok

    def to_text(self) -> str:
        ok, bad = self.counts
        lines = [
            f"pair (p1, p2) = ({self.config.p1}, {self.config.p2})",
            f"suites: {', '.join(self.config.suites)}",
        ]
        lines += [c.row() for c in self.checks]
        lines.append(f"{ok} passed, {bad} failed in {self.elapsed_seconds:.2f}s")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "config": asdict(self.config),
            "passed": self.passed,
            "counts": {"passed": self.counts[0], "failed": self.counts[1]},
            "elapsed_seconds": self.elapsed_seconds,
            "suite_timings": self.suite_timings,
            "suite_counts": self.suite_counts,
            "checks": [dict(asdict(c), status=c.status) for c in self.checks],
        }
        return json.dumps(payload, indent=2)
