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

The checks hold no relation and no Casimir formula of their own: each
module's matrices form a `RelationTarget` (`matrix_target`, which also
serves the projective summands' generator matrices), on which the one
presentation of `algebra` (`defining_relations`, `casimir`) is
evaluated, as it is in A and on the images of the Hopf maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from typing import Iterator, List, Mapping, Sequence

from .algebra import RelationTarget, casimir, defining_relations
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
    """Matrix of a generator (e1, e2, f1, f2 or K) on the simple module,
    in the flat basis."""
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


def matrix_target(params: Params, images: Mapping[str, Matrix],
                  weights: Sequence[CycloNumber]) -> RelationTarget:
    """Matrices as a `RelationTarget`: ``images`` of e1, e2, f1 and f2, and
    K^t the diagonal of ``weights`` raised to t mod korder, the power A
    reads K^t as.  It serves the simple modules (`relation_target`) and
    the projective summands (`BlockSystem._check_central_annihilators`)."""
    field, dim, korder = params.field, len(weights), params.korder
    return RelationTarget(
        images=images,
        k_power=lambda t: Matrix(field, dim, columns={
            j: {j: w ** (t % korder)} for j, w in enumerate(weights)}),
        one=Matrix.identity(field, dim), zero=Matrix.zeros(field, dim))


def relation_target(params: Params, spec: SimpleModuleSpec) -> RelationTarget:
    """The module as a `matrix_target`: the matrices of e1, e2, f1 and f2,
    and the rung weights."""
    return matrix_target(
        params, {g: simple_action(params, spec, g)
                 for g in ("e1", "e2", "f1", "f2")},
        [weight(params, spec, n1, n2)
         for n2 in range(spec.r2) for n1 in range(spec.r1)])


def verify_simple_module(params: Params, spec: SimpleModuleSpec) -> List[Check]:
    """The presentation and the two Casimirs on the module's matrices.

    The 17 relations of `defining_relations` and the Casimirs of `casimir`
    are evaluated on `relation_target`, as they are in A.  K's matrix is
    checked against the rung weights that target reads K^t from, and the
    printed double-step f2 is adjudicated on the same relation list.
    """
    spec.validate(params)
    field = params.field
    label = spec.label()
    dim = spec.dim
    target = relation_target(params, spec)
    on = f"the generator matrices of {label}, dim {dim}"
    relations = defining_relations(params, target)
    scope = f"presentation: {len(relations)} defining relations on {on}"
    checks = [Check(f"{label}: {name}", holds,
                    anchor="simple-module-relations", scope=scope)
              for name, holds in relations]

    checks.append(Check(
        f"{label}: K acts diagonally with the rung weights",
        simple_action(params, spec, "K") == target.k_power(1),
        anchor="simple-module-weights",
        scope=f"K's matrix on {label}: {dim} diagonal entries against the "
              f"rung weights"))

    for i in (1, 2):
        got = casimir(params, i, target).scalar_of_identity()
        want = casimir_eigenvalue(params, i, spec)
        checks.append(Check(
            f"{label}: central element {i} acts by its stated scalar",
            got is not None and got == want,
            anchor="simple-module-casimir",
            scope=f"central element {i} of the presentation on {on}"))

    if spec.r2 >= 2:
        # Misprint adjudication: a raising step of two in the second index
        # (instead of one) must break the copy-2 commutator relation.
        double_f2 = Matrix(field, dim, columns={
            spec.index(n1, n2): {spec.index(n1, n2 + 2): field.one}
            for n2 in range(spec.r2 - 2) for n1 in range(spec.r1)})
        printed = dict(defining_relations(params, target._replace(
            images={**target.images, "f2": double_f2})))
        checks.append(Check(
            f"{label}: raising the second index by two breaks the commutator",
            not printed["[e2, f2] = weight line"],
            "the printed double-step raising action fails the copy-2 "
            "commutator; the single-step action passes",
            anchor="simple-module-f2-step",
            scope=f"presentation: {len(printed)} defining relations on {on}, "
                  f"f2 raising n2 by two; read at [e2, f2] = weight line"))
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
                    anchor="phi-reflection-identities",
                    scope=f"exhaustive: {total} in-range argument tuples")


def verify_simple_family(params: Params) -> List[Check]:
    """All simple modules: relations, scalars, identities, distinctness."""
    specs = all_simple_specs(params)
    checks: List[Check] = []
    checks.append(Check(
        "simple-module count is 2*p1*p2",
        len(specs) == 2 * params.p1 * params.p2,
        f"{len(specs)} labels", anchor="simple-module-count",
        scope="labels (alpha, r1, r2) with alpha = +-1, 1 <= r_i <= p_i"))
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
        anchor="simple-module-distinct",
        scope=f"exhaustive: {len(specs) * (len(specs) - 1) // 2} module "
              f"pairs by (K-spectrum, beta_1, beta_2)"))
    checks.extend(_phi_identity_checks(params))
    return checks
