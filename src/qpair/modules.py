"""Simple modules as explicit matrices.

The algebra has exactly 2*p1*p2 pairwise non-isomorphic simple modules,
labelled by a sign alpha and a pair (r1, r2) with 1 <= r_i <= p_i.  The
module labelled (alpha, r1, r2) is r1*r2-dimensional with basis vectors
tagged by (n1, n2), 0 <= n_i <= r_i - 1, flattened row-major as
n1 + r1*n2.  In that basis

    K   acts diagonally with entry  alpha * q1^(r1-1-2*n1) * q2^(r2-1-2*n2),
    f_i raises n_i by one (annihilating the top rung),
    e_i lowers n_i with the scalar coefficient phi_i (annihilating n_i = 0).

The phi coefficients factor through the balanced bracket integers of the
two small quantum-sl2 copies and satisfy a four-fold family of
reflection identities that drive the sign bookkeeping everywhere else in
the package; they are exposed here both range-checked (the module
actions only ever evaluate them strictly inside a rung ladder) and raw
(the ideal ladders evaluate the same formula one step outside).

Matrices act on column vectors: entry (i, j) is the coefficient of
basis vector i in the image of basis vector j.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from typing import Iterator, List

from .cyclo import CycloNumber, Params
from .linalg import Matrix
from .report import Check


@dataclass(frozen=True)
class SimpleModuleSpec:
    """Label (alpha, r1, r2) of a simple module; alpha is +1 or -1."""

    alpha: int
    r1: int
    r2: int

    @property
    def dim(self) -> int:
        return self.r1 * self.r2

    def validate(self, params: Params) -> None:
        if self.alpha not in (1, -1):
            raise ValueError(f"sign label must be +1 or -1, got {self.alpha!r}")
        if not 1 <= self.r1 <= params.p1:
            raise ValueError(f"r1 out of range [1, {params.p1}]: {self.r1}")
        if not 1 <= self.r2 <= params.p2:
            raise ValueError(f"r2 out of range [1, {params.p2}]: {self.r2}")

    def index(self, n1: int, n2: int) -> int:
        return n1 + self.r1 * n2

    def label(self) -> str:
        sign = "+" if self.alpha == 1 else "-"
        return f"X{sign}({self.r1},{self.r2})"


def all_simple_specs(params: Params) -> List[SimpleModuleSpec]:
    """The full list of 2*p1*p2 simple-module labels."""
    return [
        SimpleModuleSpec(alpha, r1, r2)
        for alpha in (1, -1)
        for r1 in range(1, params.p1 + 1)
        for r2 in range(1, params.p2 + 1)
    ]


def _phi_formula(params: Params, i: int, alpha: int, n: int,
                 r1: int, r2: int) -> CycloNumber:
    """The raw lowering coefficient, with no range validation.

    For i=1:  alpha^p2 * (-1)^(r2-1) * [n]_1 * [r1-n]_1
    for i=2:  alpha^p1 * (-1)^(r1-1) * [n]_2 * [r2-n]_2
    with [.]_i the balanced bracket of copy i.
    """
    if alpha not in (1, -1):
        raise ValueError(f"sign parameter must be +1 or -1, got {alpha!r}")
    if i == 1:
        sign = (alpha ** params.p2) * ((-1) ** (r2 - 1))
        value = params.bracket(1, n) * params.bracket(1, r1 - n)
    elif i == 2:
        sign = (alpha ** params.p1) * ((-1) ** (r1 - 1))
        value = params.bracket(2, n) * params.bracket(2, r2 - n)
    else:
        raise ValueError(f"copy index must be 1 or 2, got {i!r}")
    return value if sign == 1 else -value


def phi(params: Params, i: int, alpha: int, n: int, r1: int, r2: int) -> CycloNumber:
    """Lowering coefficient phi_i^alpha(n, r1, r2); n must lie on the ladder.

    >>> phi(Params(2, 3), 1, +1, 1, 2, 3).as_rational()
    Fraction(1, 1)
    """
    if not 1 <= r1 <= params.p1:
        raise ValueError(f"r1 out of range [1, {params.p1}]: {r1}")
    if not 1 <= r2 <= params.p2:
        raise ValueError(f"r2 out of range [1, {params.p2}]: {r2}")
    rung = r1 if i == 1 else r2
    if not 1 <= n <= rung - 1:
        raise ValueError(
            f"ladder position must satisfy 1 <= n <= {rung - 1}, got {n}")
    return _phi_formula(params, i, alpha, n, r1, r2)


def weight(params: Params, spec: SimpleModuleSpec, n1: int, n2: int) -> CycloNumber:
    """K-eigenvalue on basis vector (n1, n2)."""
    return (params.alpha_sign(spec.alpha)
            * params.q1_pow(spec.r1 - 1 - 2 * n1)
            * params.q2_pow(spec.r2 - 1 - 2 * n2))


def simple_action(params: Params, spec: SimpleModuleSpec, gen: str) -> Matrix:
    """Matrix of a generator on the simple module, in the flat basis."""
    spec.validate(params)
    field = params.field
    dim = spec.dim
    out = Matrix(field, dim)
    r1, r2 = spec.r1, spec.r2
    for n2 in range(r2):
        for n1 in range(r1):
            src = spec.index(n1, n2)
            if gen == "K":
                out.put(src, src, weight(params, spec, n1, n2))
            elif gen == "Kinv":
                out.put(src, src, weight(params, spec, n1, n2).inverse())
            elif gen == "one":
                out.put(src, src, field.one)
            elif gen == "e1":
                if n1 >= 1:
                    coeff = phi(params, 1, spec.alpha, n1, r1, r2)
                    out.put(spec.index(n1 - 1, n2), src, coeff)
            elif gen == "e2":
                if n2 >= 1:
                    coeff = phi(params, 2, spec.alpha, n2, r1, r2)
                    out.put(spec.index(n1, n2 - 1), src, coeff)
            elif gen == "f1":
                if n1 <= r1 - 2:
                    out.put(spec.index(n1 + 1, n2), src, field.one)
            elif gen == "f2":
                if n2 <= r2 - 2:
                    out.put(spec.index(n1, n2 + 1), src, field.one)
            else:
                raise ValueError(f"unknown generator {gen!r}")
    return out


def casimir_matrix(params: Params, i: int, spec: SimpleModuleSpec) -> Matrix:
    """The central quadratic element of copy i evaluated on the module."""
    pj = params.other(i)
    K = simple_action(params, spec, "K")
    Kinv = simple_action(params, spec, "Kinv")
    E = simple_action(params, spec, "e1" if i == 1 else "e2")
    F = simple_action(params, spec, "f1" if i == 1 else "f2")
    a = params.qi_pow(i, pj)
    gap = a - a.inverse()
    return (-(Kinv ** pj) * a) + (-(K ** pj) * a.inverse()) + (-(E * F) * (gap * gap))


def casimir_eigenvalue(params: Params, i: int, spec: SimpleModuleSpec) -> CycloNumber:
    """Scalar through which the copy-i central element acts on the module.

    beta_1 = alpha^p2 * (-1)^r2 * (q1^(p2*r1) + q1^(-p2*r1)) and the
    mirror formula for beta_2.
    """
    spec.validate(params)
    if i == 1:
        sign = (spec.alpha ** params.p2) * ((-1) ** spec.r2)
        value = params.q1_pow(params.p2 * spec.r1) + params.q1_pow(-params.p2 * spec.r1)
    elif i == 2:
        sign = (spec.alpha ** params.p1) * ((-1) ** spec.r1)
        value = params.q2_pow(params.p1 * spec.r2) + params.q2_pow(-params.p1 * spec.r2)
    else:
        raise ValueError(f"copy index must be 1 or 2, got {i!r}")
    return value if sign == 1 else -value


def k_spectrum(params: Params, spec: SimpleModuleSpec) -> Counter:
    """Multiset of K-eigenvalues, the isomorphism invariant used below."""
    return Counter(
        weight(params, spec, n1, n2)
        for n2 in range(spec.r2)
        for n1 in range(spec.r1)
    )


def _matrix_rel(name: str, lhs: Matrix, rhs: Matrix, label: str) -> Check:
    return Check(f"{label}: {name}", lhs == rhs, anchor="simple-module-relations")


def verify_simple_module(params: Params, spec: SimpleModuleSpec) -> List[Check]:
    """Every defining relation as a matrix identity, plus the scalar facts."""
    spec.validate(params)
    field = params.field
    label = spec.label()
    dim = spec.dim
    ident = Matrix.identity(field, dim)
    zero = Matrix.zeros(field, dim, dim)
    act = {g: simple_action(params, spec, g) for g in
           ("K", "Kinv", "e1", "e2", "f1", "f2")}
    checks: List[Check] = []

    checks.append(_matrix_rel("K*Kinv = 1", act["K"] * act["Kinv"], ident, label))
    checks.append(_matrix_rel(f"K^{params.korder} = 1", act["K"] ** params.korder,
                              ident, label))
    for i in (1, 2):
        E = act[f"e{i}"]
        F = act[f"f{i}"]
        p = params.p(i)
        checks.append(_matrix_rel(f"e{i}^{p} = 0", E ** p, zero, label))
        checks.append(_matrix_rel(f"f{i}^{p} = 0", F ** p, zero, label))
        checks.append(_matrix_rel(
            f"K e{i} Kinv = q{i}^2 e{i}",
            act["K"] * E * act["Kinv"], E * params.qi_pow(i, 2), label))
        checks.append(_matrix_rel(
            f"K f{i} Kinv = q{i}^-2 f{i}",
            act["K"] * F * act["Kinv"], F * params.qi_pow(i, -2), label))
        pj = params.other(i)
        gap = params.qi_pow(i, pj) - params.qi_pow(i, -pj)
        rhs = ((act["K"] ** pj) - (act["Kinv"] ** pj)) * gap.inverse()
        checks.append(_matrix_rel(
            f"[e{i}, f{i}] = weight line", E * F - F * E, rhs, label))
    checks.append(_matrix_rel("e1 e2 = e2 e1", act["e1"] * act["e2"],
                              act["e2"] * act["e1"], label))
    checks.append(_matrix_rel("f1 f2 = f2 f1", act["f1"] * act["f2"],
                              act["f2"] * act["f1"], label))
    checks.append(_matrix_rel("[e1, f2] = 0",
                              act["e1"] * act["f2"] - act["f2"] * act["e1"],
                              zero, label))
    checks.append(_matrix_rel("[e2, f1] = 0",
                              act["e2"] * act["f1"] - act["f1"] * act["e2"],
                              zero, label))

    checks.append(Check(
        f"{label}: K acts diagonally with the rung weights",
        act["K"].is_diagonal() and all(
            act["K"][spec.index(n1, n2), spec.index(n1, n2)]
            == weight(params, spec, n1, n2)
            for n2 in range(spec.r2) for n1 in range(spec.r1)),
        anchor="simple-module-weights"))

    for i in (1, 2):
        got = casimir_matrix(params, i, spec).scalar_of_identity()
        want = casimir_eigenvalue(params, i, spec)
        checks.append(Check(
            f"{label}: central element {i} acts by its stated scalar",
            got is not None and got == want,
            anchor="simple-module-casimir"))

    if spec.r2 >= 2:
        # Misprint adjudication: a raising step of two in the second index
        # (instead of one) must break the copy-2 commutator relation.
        bad_f2 = Matrix.zeros(field, dim, dim)
        for n2 in range(spec.r2):
            for n1 in range(spec.r1):
                if n2 + 2 <= spec.r2 - 1:
                    bad_f2.put(spec.index(n1, n2 + 2), spec.index(n1, n2), field.one)
        pj = params.p1
        gap = params.q2_pow(pj) - params.q2_pow(-pj)
        rhs = ((act["K"] ** pj) - (act["Kinv"] ** pj)) * gap.inverse()
        broken = (act["e2"] * bad_f2 - bad_f2 * act["e2"]) != rhs
        checks.append(Check(
            f"{label}: raising the second index by two breaks the commutator",
            broken,
            "the printed double-step raising action fails the copy-2 "
            "commutator; the single-step action passes",
            anchor="simple-module-f2-step"))
    return checks


def _phi_identity_checks(params: Params) -> Iterator[Check]:
    """The four reflection identities, swept over every in-range argument."""
    p1, p2 = params.p1, params.p2
    failures = [0, 0, 0, 0]
    counts = [0, 0, 0, 0]
    for alpha in (1, -1):
        for r1 in range(1, p1):
            for r2 in range(1, p2):
                for k1 in range(1, p1 - r1):
                    counts[0] += 1
                    if phi(params, 1, -alpha, k1, p1 - r1, r2) != \
                            phi(params, 1, alpha, k1, p1 - r1, p2 - r2):
                        failures[0] += 1
                for k2 in range(1, p2 - r2):
                    counts[2] += 1
                    if phi(params, 2, -alpha, k2, r1, p2 - r2) != \
                            phi(params, 2, alpha, k2, p1 - r1, p2 - r2):
                        failures[2] += 1
        for r1 in range(1, p1 + 1):
            for r2 in range(1, p2):
                for n1 in range(1, r1):
                    counts[1] += 1
                    if phi(params, 1, alpha, n1, r1, r2) != \
                            phi(params, 1, -alpha, n1, r1, p2 - r2):
                        failures[1] += 1
        for r1 in range(1, p1):
            for r2 in range(1, p2 + 1):
                for n2 in range(1, r2):
                    counts[3] += 1
                    if phi(params, 2, alpha, n2, r1, r2) != \
                            phi(params, 2, -alpha, n2, p1 - r1, r2):
                        failures[3] += 1
    names = (
        "phi1 reflection in the first label (sign flipped)",
        "phi1 reflection in the second label (sign flipped)",
        "phi2 reflection in the first label (sign flipped)",
        "phi2 reflection in the second label (sign flipped)",
    )
    for name, bad, total in zip(names, failures, counts):
        yield Check(name, bad == 0, f"{total} argument tuples; failures: {bad}",
                    anchor="phi-reflection-identities")


def verify_simple_family(params: Params) -> List[Check]:
    """All simple modules: relations, scalars, identities, distinctness."""
    specs = all_simple_specs(params)
    checks: List[Check] = []
    checks.append(Check(
        "simple-module count is 2*p1*p2",
        len(specs) == 2 * params.p1 * params.p2,
        f"{len(specs)} labels", anchor="simple-module-count"))
    for spec in specs:
        checks.extend(verify_simple_module(params, spec))
    # Pairwise non-isomorphy certificate.  K-spectra separate almost all
    # pairs, but when p_i = 2 the sign partners with r_i = 2 share their
    # weight multiset (the sign is absorbed by q_i^(+-1) = +-sqrt(-1)); the
    # central scalars beta_1, beta_2 still differ, so the combined invariant
    # (spectrum, beta_1, beta_2) certifies distinctness.
    invariants = [
        (spec,
         k_spectrum(params, spec),
         casimir_eigenvalue(params, 1, spec),
         casimir_eigenvalue(params, 2, spec))
        for spec in specs
    ]
    spectrum_clashes = []
    full_clashes = []
    for idx, (a, sa, b1a, b2a) in enumerate(invariants):
        for b, sb, b1b, b2b in invariants[idx + 1:]:
            if sa == sb:
                spectrum_clashes.append((a.label(), b.label()))
                if b1a == b1b and b2a == b2b:
                    full_clashes.append((a.label(), b.label()))
    checks.append(Check(
        "pairwise non-isomorphic simple modules",
        not full_clashes,
        f"{len(specs)} modules; K-spectrum ties broken by the central "
        f"scalars for {len(spectrum_clashes)} pairs "
        f"({spectrum_clashes or 'none'}); unresolved: {full_clashes or 'none'}",
        anchor="simple-module-distinct"))
    checks.extend(_phi_identity_checks(params))
    return checks
