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
               "blocks", "shapes", "slf", "integrals", "center", "radford",
               "qchar")


def validate_config(config: RunConfig) -> Optional[str]:
    """Reason the config is unusable, or None."""
    if config.p1 < 2 or config.p2 < 2:
        return f"both exponents must be at least 2, got ({config.p1}, {config.p2})"
    if math.gcd(config.p1, config.p2) != 1:
        return f"exponents must be coprime, got ({config.p1}, {config.p2})"
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

    # -- suites ---------------------------------------------------------

    def suite_relations(self) -> List[Check]:
        return self.algebra.verify_defining_relations()

    def suite_hopf(self) -> List[Check]:
        return self.algebra.verify_hopf_axioms()

    def suite_modules(self) -> List[Check]:
        return verify_simple_family(self.algebra.params)

    def suite_ideals(self) -> List[Check]:
        checks: List[Check] = []
        for label in self.system.block_labels():
            checks.extend(self.system.verify_ladder_relations(label))
        return checks

    def suite_idempotents(self) -> List[Check]:
        return self.system.verify_idempotents()

    def suite_blocks(self) -> List[Check]:
        return self.system.verify_blocks()

    def suite_shapes(self) -> List[Check]:
        checks: List[Check] = []
        for label in self.system.block_labels():
            checks.extend(self.realization.verify_block_shape(label))
        return checks

    def suite_slf(self) -> List[Check]:
        F = self.functionals
        checks = F.slf_checks()
        checks.extend(F.symmetry_checks(F.slf_basis()))
        return checks

    def suite_integrals(self) -> List[Check]:
        F = self.functionals
        checks = F.integral_checks()
        checks.append(F.verify_integral_element())
        checks.append(F.verify_integral_identities())
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
        checks.extend(F.symmetry_checks({}, twisted))
        for label in self.system.block_labels():
            if not self.system.block_ladders(label):
                continue
            checks.append(F.exhibit_invalid_sigma(label))
        return checks

    def suite_center(self) -> List[Check]:
        checks: List[Check] = []
        total = 0
        labels = self.system.block_labels()
        for label in labels:
            checks.extend(self.realization.verify_central_elements(label))
            total += self.realization.center_dimension(label)
        want = (3 * self.config.p1 - 1) * (3 * self.config.p2 - 1) // 2
        checks.append(Check(
            "center.total-dimension", total == want,
            f"block centers sum to {total}; symmetric-function count is {want}",
            anchor="center-dimension-total",
            scope=f"exhaustive: commutator nullspaces of all {len(labels)} "
                  f"blocks, summed"))
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
    start = time.perf_counter()
    session = Session(config)
    selected = (SUITE_ORDER if "all" in config.suites
                else tuple(s for s in SUITE_ORDER if s in config.suites))
    algebra = session.algebra
    for name in selected:
        products, rows = algebra.element_products, algebra.word_product_rows
        t0 = time.perf_counter()
        report.extend(getattr(session, f"suite_{name}")())
        report.suite_timings[name] = round(time.perf_counter() - t0, 3)
        report.suite_counts[name] = {
            "element_products": algebra.element_products - products,
            "word_product_rows": algebra.word_product_rows - rows}
    report.elapsed_seconds = time.perf_counter() - start
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
        if not c:
            out.append("0")
            continue
        g = math.gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out


def _ascii_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def _coefficient_from_json(c) -> tuple[int, int]:
    """(numerator, denominator) of one string ``-?[0-9]+(/[0-9]+)?`` with
    a positive denominator; ValueError for anything else."""
    if isinstance(c, str):
        num, slash, den = c.partition("/")
        digits = num[1:] if num.startswith("-") else num
        if _ascii_digits(digits) and (not slash or _ascii_digits(den)):
            d = int(den) if slash else 1
            if d == 0:
                raise ValueError(f"zero denominator in coefficient {c!r}")
            return int(num), d
    raise ValueError(f"malformed coefficient {c!r}: expected an "
                     f"integer or n/d as a string")


def _cyclo_from_json(field: CycloField, coeffs: List[str],
                     parsed: dict) -> CycloNumber:
    """`cyclo_from_json` through the ``parsed`` memo, which maps each array
    read so far (as a tuple) to its value and each string to its
    (numerator, denominator): a distinct array is parsed once, and a
    distinct string once.  Only what parses is stored, so a bad array is
    refused each time it recurs; an unhashable entry (a list or a dict)
    misses the lookup and is refused by the parser."""
    if not isinstance(coeffs, list) or len(coeffs) != field.degree:
        got = len(coeffs) if isinstance(coeffs, list) else repr(coeffs)
        raise ValueError(f"expected {field.degree} coefficients for "
                         f"Q(zeta_{field.order}) as a list, got {got}")
    key = tuple(coeffs)
    try:
        value = parsed.get(key)
    except TypeError:
        value = None
    if value is None:
        pairs = []
        for c in coeffs:
            pair = parsed.get(c) if isinstance(c, str) else None
            if pair is None:
                pair = parsed[c] = _coefficient_from_json(c)
            pairs.append(pair)
        den = math.lcm(*(d for _, d in pairs))
        value = parsed[key] = field.make([n * (den // d) for n, d in pairs],
                                         den)
    return value


def cyclo_from_json(field: CycloField, coeffs: List[str]) -> CycloNumber:
    """Parse the array `cyclo_to_json` writes; refuse anything else.

    It must be a list of the field's degree, and each coefficient a string
    ``-?[0-9]+(/[0-9]+)?`` of ASCII digits with a positive denominator;
    it need not be in lowest terms.
    """
    return _cyclo_from_json(field, coeffs, {})


def element_to_json(x: AlgebraElement) -> List[dict]:
    """The element's PBW terms in basis order.

    PBW keys sort by their own tuple order, which is `monomial_index`
    order.  Each distinct coefficient is rendered once; every term gets
    its own copy of the rendered list.
    """
    rendered: Dict[CycloNumber, List[str]] = {}
    out = []
    for mono, c in sorted(x.pbw_terms().items()):
        coeff = rendered.get(c)
        if coeff is None:
            coeff = rendered[c] = cyclo_to_json(c)
        out.append({"monomial": list(mono), "coefficient": coeff.copy()})
    return out


_TERM_KEYS = frozenset(("monomial", "coefficient"))


def element_from_json(algebra: Algebra, data: List[dict]) -> AlgebraElement:
    """Parse the list `element_to_json` writes; refuse anything else.

    Each term must be an object with the keys ``monomial`` and
    ``coefficient`` (read by `cyclo_from_json`, each distinct array once
    per call) only.  Each monomial must be five ints (not bools) inside
    the ranges of the algebra, ``ell`` in [0, 2*p1*p2) included, and no
    monomial may occur twice; otherwise ValueError.
    """
    if not isinstance(data, list):
        raise ValueError(f"element must be a list of terms, got {data!r}")
    field = algebra.params.field
    p1, p2, korder = algebra.p1, algebra.p2, algebra.korder
    terms = {}
    parsed: dict = {}
    for item in data:
        if not isinstance(item, dict) or item.keys() != _TERM_KEYS:
            raise ValueError(f"malformed term {item!r}")
        mono = item["monomial"]
        ok = isinstance(mono, list) and len(mono) == 5
        if ok:
            m1, m2, n1, n2, ell = mono
            ok = (type(m1) is type(m2) is type(n1) is type(n2) is type(ell)
                  is int and 0 <= m1 < p1 and 0 <= m2 < p2
                  and 0 <= n1 < p1 and 0 <= n2 < p2 and 0 <= ell < korder)
        if not ok:
            raise ValueError(f"malformed monomial {mono!r}: expected five "
                             f"ints below {[p1, p2, p1, p2, korder]}")
        key = (m1, m2, n1, n2, ell)
        if key in terms:
            raise ValueError(f"monomial {mono} occurs twice")
        terms[key] = _cyclo_from_json(field, item["coefficient"], parsed)
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
    ``phi_digest`` that differs from `artifact_header` of ``algebra`` in
    value or type (a float or bool size differs); ``version`` is not
    compared.
    """
    if not isinstance(header, dict):
        raise ValueError(f"artifact header must be an object, got "
                         f"{type(header).__name__}")
    expected = artifact_header(algebra)
    wrong = [f"{key} {header.get(key)!r} (expected {expected[key]!r})"
             for key in ("p1", "p2", "N", "phi_digest")
             if type(header.get(key)) is not type(expected[key])
             or header.get(key) != expected[key]]
    if wrong:
        raise ValueError("artifact header does not match this algebra: "
                         + ", ".join(wrong))


def load_artifact(path: str, algebra: Algebra) -> dict:
    """Read a dump written for ``algebra``: header first, then elements.

    `check_header` runs before anything else is parsed, so a dump of
    another pair is refused even when the two fields have the same
    degree.  The elements of an ``idempotents`` or ``integrals`` dump are
    returned parsed (`element_from_json`); matrix and functional arrays
    are returned as written.  A missing or malformed ``idempotents``
    list, ``element`` or ``two_sided_element`` raises ValueError naming
    the key.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"artifact must be a JSON object, got "
                         f"{type(payload).__name__}")
    check_header(algebra, payload.get("header"))
    if payload.get("target") == "idempotents":
        items = _artifact_entry(payload, "idempotents")
        if not isinstance(items, list):
            raise ValueError(f"artifact entry 'idempotents' must be a list, "
                             f"got {type(items).__name__}")
        for item in items:
            item["element"] = element_from_json(
                algebra, _artifact_entry(item, "element"))
    elif payload.get("target") == "integrals":
        payload["two_sided_element"] = element_from_json(
            algebra, _artifact_entry(payload, "two_sided_element"))
    return payload


def _artifact_entry(obj, key: str):
    """``obj[key]`` of a parsed dump; ValueError naming ``key`` when obj
    is not an object or has no such entry."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"artifact has no {key!r} entry")
    return obj[key]


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
        } for s in session.system.summands_of(label)]
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
@click.option("--seed", type=int, default=0,
              help="recorded in the report; every check is exhaustive and "
                   "no check draws from it")
@click.option("--format", "output_format",
              type=click.Choice(["text", "json"]), default="text")
@click.option("--out", "out_path", type=click.Path(), default=None)
def verify(p1, p2, suites, seed, output_format, out_path) -> None:
    """Run verification suites and print one row per check."""
    config = RunConfig(p1=p1, p2=p2,
                       suites=tuple(s.strip() for s in suites.split(",")
                                    if s.strip()),
                       seed=seed,
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
@click.option("--out", "out_path", type=click.Path(), default=None)
def dump(p1, p2, target, out_path) -> None:
    """Serialize one computed artifact with exact coefficients as JSON."""
    config = RunConfig(p1=p1, p2=p2, suites=("all",))
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
