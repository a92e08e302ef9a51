"""Command-line driver: verification suites and block-realization dumps.

`qpair verify` builds the algebra for a coprime pair, runs the requested
suites in dependency order (later suites construct whatever earlier state
they need on demand), and prints one row per check.  `qpair dump` writes
block matrices, functional value vectors, idempotent expansions, or the
solved integrals as JSON with exact rational coefficients.

Exit codes: 0 all checks pass (erratum-corrected counts as passing),
1 at least one hard failure, 2 unusable configuration or unknown target.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import time
from typing import Dict, List, Optional, Tuple

import click

from . import __version__
from .algebra import Algebra, AlgebraElement
from .cyclo import CycloField, CycloNumber
from .functionals import Functionals
from .ideals import BlockSystem
from .modules import verify_simple_family
from .realization import GENERATOR_NAMES, Realization
from .report import Check, RunConfig, VerificationReport

SUITE_ORDER = ("relations", "hopf", "modules", "ideals", "idempotents",
               "blocks", "shapes", "slf", "integrals", "radford", "qchar",
               "center")

_IDEMPOTENT_CHECK_IDS = frozenset({
    "blocks.idempotent-squares",
    "blocks.pairwise-orthogonal",
    "blocks.resolution-of-identity",
})


def validate_config(config: RunConfig) -> Optional[str]:
    """Reason the config is unusable, or None."""
    if config.p1 < 2 or config.p2 < 2:
        return f"both exponents must be at least 2, got ({config.p1}, {config.p2})"
    if math.gcd(config.p1, config.p2) != 1:
        return f"exponents must be coprime, got ({config.p1}, {config.p2})"
    if config.sample_size < 0:
        return f"sample size must be non-negative, got {config.sample_size}"
    if config.output_format not in ("text", "json"):
        return f"unknown output format {config.output_format!r}"
    unknown = [s for s in config.suites if s != "all" and s not in SUITE_ORDER]
    if unknown:
        return f"unknown suites: {', '.join(sorted(unknown))}"
    if not config.suites:
        return "no suites requested"
    return None


class Session:
    """Lazily built computational state shared by the suites."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.algebra = Algebra.for_pair(config.p1, config.p2)
        self._system: Optional[BlockSystem] = None
        self._realization: Optional[Realization] = None
        self._functionals: Optional[Functionals] = None
        self._decomposition: Optional[List[Check]] = None

    @property
    def system(self) -> BlockSystem:
        if self._system is None:
            self._system = BlockSystem(self.algebra)
        return self._system

    @property
    def realization(self) -> Realization:
        if self._realization is None:
            self._realization = Realization(self.system)
        return self._realization

    @property
    def functionals(self) -> Functionals:
        if self._functionals is None:
            self._functionals = Functionals(self.realization)
        return self._functionals

    def decomposition_checks(self) -> List[Check]:
        if self._decomposition is None:
            self._decomposition = self.system.verify_block_decomposition()
        return self._decomposition

    # -- suites ---------------------------------------------------------

    def _scan_mode(self) -> Tuple[str, int]:
        if self.config.sample_size == 0 and self.algebra.exhaustive_scans:
            return "exhaustive", 0
        return "sampled", self.config.sample_size or 2000

    def suite_relations(self) -> List[Check]:
        return self.algebra.verify_defining_relations()

    def suite_hopf(self) -> List[Check]:
        return self.algebra.verify_hopf_axioms(
            sample_size=self.config.sample_size or 200,
            seed=self.config.seed)

    def suite_modules(self) -> List[Check]:
        return verify_simple_family(self.algebra.params)

    def suite_ideals(self) -> List[Check]:
        checks: List[Check] = []
        for label in self.system.block_labels():
            checks.extend(self.system.verify_ladder_relations(label))
        return checks

    def suite_idempotents(self) -> List[Check]:
        return [c for c in self.decomposition_checks()
                if c.check_id in _IDEMPOTENT_CHECK_IDS]

    def suite_blocks(self) -> List[Check]:
        return [c for c in self.decomposition_checks()
                if c.check_id not in _IDEMPOTENT_CHECK_IDS]

    def suite_shapes(self) -> List[Check]:
        checks: List[Check] = []
        for label in self.system.block_labels():
            checks.extend(self.realization.verify_action_table(label))
            checks.extend(self.realization.verify_block_shape(label))
        return checks

    def suite_slf(self) -> List[Check]:
        F = self.functionals
        checks = F.slf_checks()
        mode, size = self._scan_mode()
        checks.extend(F.pairwise_scan(F.slf_basis(), mode=mode,
                                      sample_size=size,
                                      seed=self.config.seed))
        return checks

    def suite_integrals(self) -> List[Check]:
        F = self.functionals
        checks = F.integral_checks()
        checks.append(F.verify_integral_element())
        checks.append(F.verify_integral_identities(
            pairs=self.config.sample_size or 1000, seed=self.config.seed))
        return checks

    def suite_radford(self) -> List[Check]:
        F = self.functionals
        return F.verify_radford_identities() + F.verify_radford_injectivity()

    def suite_qchar(self) -> List[Check]:
        from .modules import all_simple_specs

        F = self.functionals
        checks = F.verify_character_bridge()
        twisted = {f"qchar.{s.label()}": F.q_character(s)
                   for s in all_simple_specs(self.algebra.params)}
        mode, size = self._scan_mode()
        if mode == "exhaustive":
            mode, size = "sampled", 2000
        checks.extend(F.pairwise_scan({}, twisted, mode=mode,
                                      sample_size=size,
                                      seed=self.config.seed))
        for label in self.system.block_labels():
            if self.system.block_kind(label).startswith("corner"):
                continue
            checks.append(F.exhibit_invalid_sigma(label))
        return checks

    def suite_center(self) -> List[Check]:
        checks: List[Check] = []
        total = 0
        for label in self.system.block_labels():
            checks.extend(self.realization.verify_central_elements(label))
            total += self.realization.center_dimension(label)
        want = (3 * self.config.p1 - 1) * (3 * self.config.p2 - 1) // 2
        checks.append(Check(
            "center.total-dimension", total == want,
            f"block centers sum to {total}; symmetric-function count is {want}",
            anchor="center-dimension-total"))
        return checks


def run(config: RunConfig) -> Tuple[int, VerificationReport]:
    """Execute the configured suites; exit status plus the report."""
    report = VerificationReport(config=config)
    problem = validate_config(config)
    if problem is not None:
        report.extend([Check("config.validate", False, problem,
                             anchor="plumbing")])
        report.elapsed_seconds = 0.0
        return 2, report
    start = time.time()
    session = Session(config)
    selected = (SUITE_ORDER if "all" in config.suites
                else tuple(s for s in SUITE_ORDER if s in config.suites))
    for name in selected:
        t0 = time.time()
        report.extend(getattr(session, f"suite_{name}")())
        report.suite_timings[name] = round(time.time() - t0, 3)
    report.elapsed_seconds = time.time() - start
    return (0 if report.passed else 1), report


# ----------------------------------------------------------------------
# Exact serialization
# ----------------------------------------------------------------------

def cyclo_to_json(x: CycloNumber) -> List[str]:
    """Fixed-length coefficient array of exact rationals as strings.

    Each coefficient is written in lowest terms as ``"n"`` or ``"n/d"``
    with ``d > 1``.

    >>> from qpair.cyclo import CycloField
    >>> cyclo_to_json(CycloField(12).make([3, -2, 0, 6], 4))
    ['3/4', '-1/2', '0', '3/2']
    """
    den = x.den
    out = []
    for c in x.num:
        g = math.gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out


_COEFFICIENT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def cyclo_from_json(field: CycloField, coeffs: List[str]) -> CycloNumber:
    """Parse the array `cyclo_to_json` writes; refuse anything else.

    Each coefficient must be a string ``-?[0-9]+(/[0-9]+)?`` with a
    positive denominator; it need not be in lowest terms.
    """
    if len(coeffs) != field.degree:
        raise ValueError(f"expected {field.degree} coefficients for "
                         f"Q(zeta_{field.order}), got {len(coeffs)}")
    nums, dens = [], []
    for c in coeffs:
        m = _COEFFICIENT.fullmatch(c) if isinstance(c, str) else None
        if m is None:
            raise ValueError(f"malformed coefficient {c!r}: expected an "
                             f"integer or n/d as a string")
        den = int(m[2]) if m[2] else 1
        if den == 0:
            raise ValueError(f"zero denominator in coefficient {c!r}")
        nums.append(int(m[1]))
        dens.append(den)
    den = math.lcm(*dens)
    return field.make([n * (den // d) for n, d in zip(nums, dens)], den)


def element_to_json(x: AlgebraElement) -> List[dict]:
    index = x.algebra.monomial_index
    items = sorted(x.terms.items(), key=lambda kv: index(kv[0]))
    return [{"monomial": [m.m1, m.m2, m.n1, m.n2, m.ell],
             "coefficient": cyclo_to_json(c)} for m, c in items]


def element_from_json(algebra: Algebra, data: List[dict]) -> AlgebraElement:
    field = algebra.params.field
    terms = {algebra.monomial(*item["monomial"]):
             cyclo_from_json(field, item["coefficient"]) for item in data}
    return algebra.element(terms)


def artifact_header(algebra: Algebra) -> dict:
    """Pair, field order, a digest of Phi_N and the package version."""
    phi = ",".join(str(c) for c in algebra.field.phi)
    return {"p1": algebra.p1, "p2": algebra.p2, "N": algebra.params.N,
            "phi_digest": hashlib.sha256(phi.encode()).hexdigest()[:16],
            "version": __version__}


def check_header(algebra: Algebra, header: dict) -> None:
    """Refuse an artifact header written for another pair or field.

    Raises ValueError naming each of ``p1``, ``p2``, ``N`` and
    ``phi_digest`` that differs from `artifact_header` of ``algebra``;
    ``version`` is not compared.
    """
    if not isinstance(header, dict):
        raise ValueError(f"artifact header must be an object, got "
                         f"{type(header).__name__}")
    expected = artifact_header(algebra)
    wrong = [f"{key} {header.get(key)!r} (expected {expected[key]!r})"
             for key in ("p1", "p2", "N", "phi_digest")
             if header.get(key) != expected[key]]
    if wrong:
        raise ValueError("artifact header does not match this algebra: "
                         + ", ".join(wrong))


def _sparse_matrix_to_json(mat) -> Dict[str, Dict[str, List[str]]]:
    return {str(col): {str(row): cyclo_to_json(val)
                       for row, val in sorted(entries.items())}
            for col, entries in sorted(mat.items())}


def dump_payload(session: Session, target: str) -> dict:
    """The serialized artifact for one dump target.

    Targets: ``block R1 R2`` (separators may be spaces, colons or commas),
    ``slf``, ``idempotents``, ``integrals``.  Unknown targets raise
    ValueError.
    """
    tokens = target.replace(":", " ").replace(",", " ").split()
    if not tokens:
        raise ValueError("empty dump target")
    payload = {"header": artifact_header(session.algebra),
               "target": tokens[0]}
    if tokens[0] == "block":
        if len(tokens) != 3:
            raise ValueError("block target needs two labels: block R1 R2")
        try:
            label = next(l for l in session.system.block_labels()
                         if (l.r1, l.r2) == (int(tokens[1]), int(tokens[2])))
        except StopIteration:
            raise ValueError(f"no block labelled ({tokens[1]}, {tokens[2]})")
        payload["label"] = [label.r1, label.r2]
        payload["summands"] = [{
            "alpha": s.alpha, "r1": s.r1, "r2": s.r2,
            "dimension": session.realization.layout(s).dim,
            "generators": {gen: _sparse_matrix_to_json(
                session.realization.generator_matrix(s, gen))
                for gen in GENERATOR_NAMES},
        } for s in session.realization.summands_of(label)]
        return payload
    if len(tokens) > 1:
        raise ValueError(f"target {tokens[0]!r} takes no arguments")
    if tokens[0] == "slf":
        F = session.functionals
        payload["functionals"] = {
            name: {str(k): cyclo_to_json(v)
                   for k, v in sorted(func.values.items())}
            for name, func in sorted(F.slf_basis().items())}
        return payload
    if tokens[0] == "idempotents":
        system = session.system
        entries = []
        for label in system.block_labels():
            for entry in system.primitive_idempotent_catalog(label):
                kind, alpha, r1, r2, s1, s2 = entry
                entries.append({
                    "block": [label.r1, label.r2],
                    "kind": kind, "alpha": alpha, "r1": r1, "r2": r2,
                    "s1": s1, "s2": s2,
                    "element": element_to_json(
                        system.primitive_idempotent(*entry)),
                })
        payload["idempotents"] = entries
        return payload
    if tokens[0] == "integrals":
        F = session.functionals
        monos = list(session.algebra.basis_monomials())
        side_payload = {}
        for side in ("left", "right"):
            func = F.integral_functional(side)
            side_payload[side] = {
                "values": {str(k): cyclo_to_json(v)
                           for k, v in sorted(func.values.items())},
                "support": [list(monos[k]) for k in sorted(func.values)],
            }
        payload["dual"] = side_payload
        payload["two_sided_element"] = element_to_json(F.integral_element())
        return payload
    raise ValueError(f"unknown dump target {tokens[0]!r}")


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

@click.group()
def main() -> None:
    """Exact structure checks for the two-parameter quantum pair algebra."""


@main.command()
@click.option("--p1", type=int, required=True)
@click.option("--p2", type=int, required=True)
@click.option("--suite", "suites", default="all",
              help="comma-separated suite names, or 'all'")
@click.option("--sample", "sample_size", type=int, default=0,
              help="0 = suite defaults (exhaustive where feasible)")
@click.option("--seed", type=int, default=0)
@click.option("--format", "output_format",
              type=click.Choice(["text", "json"]), default="text")
@click.option("--out", "out_path", type=click.Path(), default=None)
def verify(p1, p2, suites, sample_size, seed, output_format, out_path) -> None:
    """Run verification suites and print one row per check."""
    config = RunConfig(p1=p1, p2=p2,
                       suites=tuple(s.strip() for s in suites.split(",")
                                    if s.strip()),
                       sample_size=sample_size, seed=seed,
                       output_format=output_format)
    code, report = run(config)
    rendered = (report.to_json() if output_format == "json"
                else report.to_text())
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(rendered + "\n")
    else:
        click.echo(rendered)
    sys.exit(code)


@main.command()
@click.option("--p1", type=int, required=True)
@click.option("--p2", type=int, required=True)
@click.option("--target", required=True,
              help="'block R1 R2', 'slf', 'idempotents', or 'integrals'")
@click.option("--format", "output_format", type=click.Choice(["json"]),
              default="json")
@click.option("--out", "out_path", type=click.Path(), default=None)
def dump(p1, p2, target, output_format, out_path) -> None:
    """Serialize one computed artifact with exact coefficients."""
    config = RunConfig(p1=p1, p2=p2, suites=("all",),
                       output_format=output_format)
    problem = validate_config(config)
    if problem is not None:
        click.echo(f"error: {problem}", err=True)
        sys.exit(2)
    try:
        payload = dump_payload(Session(config), target)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    rendered = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(rendered + "\n")
    else:
        click.echo(rendered)
    sys.exit(0)


if __name__ == "__main__":
    main()
