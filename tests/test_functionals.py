"""Integrals, the symmetric-function basis, Radford identities, characters.

The dual integrals are solved from scratch here and pinned to their known
support; the Radford identities are graded exactly, including the one
boundary block whose printed cross-identity needs the second-direction
Psi (the other boundary block of that direction has Psi1 = Psi2, which is
why the slip is invisible there).  The integral solve and the Radford
transform read the integrals through their degree-zero support, and
every symmetry law runs through the one degree-matched generator scan,
and every trace functional through the one `twisted_trace` kernel; at
(2,3) and (3,2) each is compared with the loop it replaced, kept here:
the whole coproduct system handed to `nullspace`, the pair loop over full
products, the scan over all 5 × dim generator pairs, and the dense trace
vectors with the K-shift table.
"""

import operator
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from conftest import A23, B23, F23, R23

import qpair.functionals
from qpair.algebra import (GENERATOR_MONOMIALS, Algebra, AlgebraElement,
                           PBWMonomial, TensorElement)
from qpair.cyclo import CycloNumber
from qpair.functionals import Functionals, LinearFunctional, SigmaRecord
from qpair.ideals import BlockSystem
from qpair.linalg import nullspace
from qpair.modules import SimpleModuleSpec, all_simple_specs, simple_action
from qpair.realization import (GENERATOR_NAMES, Realization,
                               diagonal_exponents, pbw_matrices)
MONOS = list(A23.basis_monomials())
rng = random.Random(90125)


@lru_cache(maxsize=None)
def _functionals(pair):
    if pair == (2, 3):
        return F23
    return Functionals(Realization(BlockSystem(Algebra.for_pair(*pair))))


def _first_violation(func, sigma=lambda y: y):
    """The first (x, y) in the scan's order (x over the basis, y over the
    generators) with func(xy) != func(sigma(y) x), found by element
    products, independently of `generator_scan`; None if there is none."""
    gens = [(g, A23.monomial_element(g)) for g in GENERATOR_MONOMIALS]
    for m in MONOS:
        x = A23.monomial_element(m)
        for g, y in gens:
            if func(x * y) != func(sigma(y) * x):
                return f"({m}, {g})"
    return None


def _counit_functional(algebra):
    """The counit as a functional: 1 on every K^ell, 0 on every other
    basis monomial."""
    one = algebra.params.field.one
    return LinearFunctional(algebra, {
        k: one for k, m in enumerate(algebra.basis_monomials())
        if not any(m[:4])})


def _s2(y):
    return A23.antipode(A23.antipode(y))


def _s2_inverse(y):
    g = A23.k_power(A23.params.p1 - A23.params.p2)
    return A23.k_power(A23.params.p2 - A23.params.p1) * y * g


def _label(kind):
    for label in B23.block_labels():
        if B23.block_kind(label) == kind:
            return label
    raise AssertionError(kind)


def test_left_integral_support_frozen():
    lam = F23.integral_functional("left")
    idx = A23.monomial_index(PBWMonomial(1, 2, 1, 2, 1))
    assert lam.values == {idx: A23.params.field.one}


def test_right_integral_support_frozen():
    mu = F23.integral_functional("right")
    idx = A23.monomial_index(PBWMonomial(1, 2, 1, 2, 11))
    assert mu.values == {idx: A23.params.field.one}


def test_integral_checks_statuses():
    checks = {c.check_id: c for c in F23.integral_checks()}
    assert all(c.passed for c in checks.values())
    assert checks["integrals.left-k-exponent"].status == "erratum-corrected"
    assert "difference=match" in checks["integrals.left-k-exponent"].detail
    assert ("reversed-difference=match"
            in checks["integrals.right-k-exponent"].detail)


def test_left_integral_defining_property():
    lam = F23.integral_functional("left")
    for m in rng.sample(MONOS, 30):
        terms = {}
        for (u, v), c in A23.coproduct_monomial(m).terms.items():
            lv = lam(A23.monomial_element(v))
            if not lv.is_zero():
                cur = terms.get(u, A23.params.zero)
                terms[u] = cur + c * lv
        lhs = A23.element(terms)
        assert lhs == A23.one() * lam(A23.monomial_element(m))


def test_right_integral_defining_property():
    mu = F23.integral_functional("right")
    for m in rng.sample(MONOS, 30):
        terms = {}
        for (u, v), c in A23.coproduct_monomial(m).terms.items():
            mv = mu(A23.monomial_element(u))
            if not mv.is_zero():
                cur = terms.get(v, A23.params.zero)
                terms[v] = cur + c * mv
        lhs = A23.element(terms)
        assert lhs == A23.one() * mu(A23.monomial_element(m))


def test_integral_element_two_sided():
    assert F23.verify_integral_element().passed


def _reference_integral(F, side):
    """The integral solve the degree-zero reading replaced: every equation
    row built whole and the system handed to `nullspace` as it is.  The
    values, the support metadata, the equation count and the number of
    one-unknown rows."""
    A = F.algebra
    korder = A.korder
    monos = list(A.basis_monomials())
    minus_one = A.params.field.minus_one
    rows = []
    for base in range(0, len(monos), korder):
        buckets = {}
        for (u, v), c in A.coproduct_monomial(monos[base]).terms.items():
            if side == "right":
                u, v = v, u
            buckets.setdefault((A.word_index(u) * korder, u.ell), []).append(
                (A.word_index(v) * korder, v.ell, c))
        for ell in range(korder):
            by_key = {key: {vb + (vl + ell) % korder: c
                            for vb, vl, c in terms}
                      for key, terms in buckets.items()}
            row = by_key.setdefault((0, -ell % korder), {})
            x_idx = base + ell
            tot = row.get(x_idx, A.params.zero) + minus_one
            if tot.is_zero():
                del row[x_idx]
            else:
                row[x_idx] = tot
            rows.extend(r for r in by_key.values() if r)
    vec, = nullspace(A.params.field, rows, len(monos))
    support = sorted(vec)
    top = [k for k in support if F._is_top_word(monos[k])]
    scale = vec[(top or support)[0]].inverse()
    meta = {"support": support, "top_only": len(top) == len(support),
            "k_exponents": sorted({monos[k].ell for k in support}),
            "equations": len(rows),
            "single": sum(len(r) == 1 for r in rows)}
    return {k: v * scale for k, v in vec.items()}, meta


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_integral_solve_matches_the_whole_system_reference(pair):
    F = _functionals(pair)
    for side in ("left", "right"):
        values, meta = _reference_integral(F, side)
        assert F.integral_functional(side).values == values, side
        assert F._integral_meta[side] == meta, side
        assert meta["single"] == meta["equations"], side


def test_a_multi_term_equation_still_goes_to_nullspace(monkeypatch):
    # Delta(e1) gains the term e1 (x) f1 beside e1 (x) 1: the bucket of e1
    # then holds two terms, and its korder equations lambda(K^ell) +
    # lambda(f1 K^ell) = 0 reach `nullspace` whole; the other equations
    # already zero both unknowns, so the integral does not move
    A = A23
    want = F23.integral_functional("left")
    e1, f1 = PBWMonomial(1, 0, 0, 0, 0), PBWMonomial(0, 0, 1, 0, 0)
    true = A.coproduct_monomial

    def coproduct(mono):
        out = true(mono)
        if mono == e1:
            out = TensorElement(A, {**out.terms, (e1, f1): A.params.one})
        return out

    seen = []

    def spy(field, rows, dim):
        rows = list(rows)
        seen.extend(r for r in rows if len(r) > 1)
        return nullspace(field, rows, dim)

    monkeypatch.setattr(A, "coproduct_monomial", coproduct)
    monkeypatch.setattr(qpair.functionals, "nullspace", spy)
    F = Functionals(R23)
    assert F.integral_functional("left") == want
    one = A.params.field.one
    assert seen == [{A.monomial_index(PBWMonomial(0, 0, 0, 0, ell)): one,
                     A.monomial_index(PBWMonomial(0, 0, 1, 0, ell)): one}
                    for ell in range(A.korder)]
    meta = F._integral_meta["left"]
    assert meta["equations"] == F23._integral_meta["left"]["equations"]
    assert meta["single"] == meta["equations"] - A.korder


def test_translation_identities():
    check = F23.verify_integral_identities()
    assert check.passed
    assert check.detail == ("lambda at tau = -1, mu at tau = +1, on the "
                            "degree-matched generator pairs; failures: 0")
    assert check.scope == "degree-matched: 240 of 5 × 432 generator pairs"


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_translation_identities_match_the_full_generator_scan(pair):
    # the identities on every generator against every basis monomial,
    # through full products and S^2 from the antipode: each pair the
    # degree-matched scan leaves out vanishes on both sides
    F = _functionals(pair)
    A = F.algebra
    one, zero = A.params.one, A.params.zero
    lam, mu = (_by_monomial(F, side) for side in ("left", "right"))
    read = 0
    for g in GENERATOR_MONOMIALS:
        s2g = A.pbw_antipode(A.antipode_monomial(g))
        for x in A.basis_monomials():
            sides = (
                (_evaluate(lam, A.product_monomials(g, x), zero),
                 _evaluate(lam, A.pbw_product({x: one}, s2g), zero)),
                (_evaluate(mu, A.product_monomials(x, g), zero),
                 _evaluate(mu, A.pbw_product(s2g, {x: one}), zero)))
            assert sides[0][0] == sides[0][1], (g, x)
            assert sides[1][0] == sides[1][1], (g, x)
            if (x[0] - x[2], x[1] - x[3]) != (g[2] - g[0], g[3] - g[1]):
                assert all(v.is_zero() for pair_ in sides for v in pair_)
            else:
                read += 1
    check = F.verify_integral_identities()
    assert check.passed
    assert check.scope == (f"degree-matched: {read} of 5 × "
                           f"{A.dimension} generator pairs")


def _by_monomial(F, side):
    return {F._monos[k]: v
            for k, v in F.integral_functional(side).values.items()}


def _evaluate(vals, terms, zero):
    """sum c * vals[m] over the PBW terms c m."""
    acc = zero
    for m, c in terms.items():
        if m in vals:
            acc = acc + c * vals[m]
    return acc


def test_a_degree_zero_perturbation_fails_a_degree_matched_pair():
    # lambda with an extra value at e1 f1 K^2, of degree (0, 0): the
    # support holds, so the degree-matched pairs are read and one breaks
    F = Functionals(R23)
    bump = A23.monomial_index(PBWMonomial(1, 0, 1, 0, 2))
    lam = F23.integral_functional("left") + LinearFunctional(
        A23, {bump: A23.params.field.one})
    F._integrals["left"] = lam
    check = F.verify_integral_identities()
    assert not check.passed
    witness = _first_violation(lam, _s2_inverse)
    assert witness is not None
    assert check.detail.endswith(
        f"failures: 1, first lambda at (x, y) = {witness}")
    assert check.scope.endswith(
        "; mu degree-matched: 240 of 5 × 432 generator pairs")


def test_off_degree_integral_fails_the_reduced_checks_by_their_premise():
    # lambda with an extra value at e1, of degree (1, 0): the Radford
    # checks rest on the degree-zero support and name it; the scan reads
    # the support first, and the value at e1 K^0 is already a violation
    # of lambda(x K) = lambda(K x), at x = e1 K^-1
    F = Functionals(R23)
    e1 = A23.monomial_index(PBWMonomial(1, 0, 0, 0, 0))
    lam = F23.integral_functional("left") + LinearFunctional(
        A23, {e1: A23.params.field.one})
    F._integrals["left"] = lam
    premise = ("premise integrals.left-support fails: lambda takes a value "
               "off Z²-degree (0, 0), at e1")
    check = F.verify_integral_identities()
    assert not check.passed
    assert check.detail.endswith("first lambda at (x, y) = (e1 K^11, K)")
    assert check.scope.startswith(
        "lambda support: a value off Z²-degree (0, 0) at e1; no products "
        "read; mu ")
    x, k = A23.monomial_element(A23.monomial(1, 0, 0, 0, 11)), A23.generator("K")
    assert lam(x * k) != lam(k * x)
    with pytest.raises(ArithmeticError, match="integrals.left-support"):
        F.radford_transform(A23.one())
    injective = F.verify_radford_injectivity()
    assert injective and all(not c.passed and c.detail == premise
                             for c in injective)


def test_lambda_is_not_symmetric():
    lam = F23.integral_functional("left")
    check, = F23.symmetry_checks({"lambda": lam})
    witness = _first_violation(lam)
    assert not check.passed and witness is not None
    assert check.detail.endswith(f"violated at (x, y) = {witness}")


def test_counit_is_symmetric():
    eps = _counit_functional(A23)
    check, = F23.symmetry_checks({"counit": eps})
    assert check.passed
    assert _first_violation(eps) is None


def test_generator_scan_catches_a_functional_perturbed_at_one_monomial():
    name, func = next(iter(F23.slf_basis().items()))
    k7 = A23.monomial_index(A23.monomial(0, 0, 0, 0, 7))
    bad = func + LinearFunctional(A23, {k7: A23.params.field.one})
    check, = F23.symmetry_checks({name: bad})
    witness = _first_violation(bad)
    assert not check.passed and witness is not None
    assert check.detail.endswith(f"violated at (x, y) = {witness}")


def test_generator_scan_catches_a_qchar_with_the_wrong_twist():
    chi = F23.q_character(SimpleModuleSpec(1, 2, 3))
    assert F23.symmetry_checks({}, {"chi": chi})[0].passed
    # weight 1 instead of the S^2 weight: scanned as a symmetric functional
    check, = F23.symmetry_checks({"chi": chi})
    assert not check.passed
    assert check.detail.endswith(
        f"violated at (x, y) = {_first_violation(chi)}")
    # x -> chi(g^2 x) = trace(g x) is twisted by S^-2, not S^2
    shifted = F23.theta(F23.theta(chi))
    check, = F23.symmetry_checks({}, {"chi-shifted": shifted})
    assert not check.passed
    assert check.detail.endswith(
        f"violated at (x, y) = {_first_violation(shifted, _s2)}")


def _reference_scan(F, laws):
    """The scan over all 5 × dim generator pairs that the degree-matched
    one replaced: for each name of ``laws`` ({name: (f, tau)}), the first
    (x, g) in basis-then-generator order with f(x g) != w(g)^tau f(g x),
    or None; every product built in full."""
    A = F.algebra
    zero = A.params.zero
    vals = {name: (_by_values(F, f), tau) for name, (f, tau) in laws.items()}
    first = dict.fromkeys(laws)
    for x in A.basis_monomials():
        for g in GENERATOR_MONOMIALS:
            xg, gx = A.product_monomials(x, g), A.product_monomials(g, x)
            for name, (f, tau) in vals.items():
                if first[name] is None and (
                        _evaluate(f, xg, zero)
                        != _weight(A, g, tau) * _evaluate(f, gx, zero)):
                    first[name] = f"({x}, {g})"
    return first


def _weight(A, g, tau):
    """w(g)^tau, w(g) = zeta^((p1 - p2) wt g)."""
    return A.params.zeta(tau * (A.params.p1 - A.params.p2)
                         * A.conjugation_weight_exponent(g))


def _violates(F, f, tau, pair):
    """Whether the pair "(x, g)" reported by the scan breaks the law."""
    A = F.algebra
    x, g = (next(m for m in A.basis_monomials() if str(m) == text)
            for text in pair[1:-1].split(", "))
    zero = A.params.zero
    vals = _by_values(F, f)
    return (_evaluate(vals, A.product_monomials(x, g), zero)
            != _weight(A, g, tau)
            * _evaluate(vals, A.product_monomials(g, x), zero))


def _by_values(F, f):
    return {F._monos[k]: v for k, v in f.values.items()}


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_generator_scan_matches_the_all_pairs_reference(pair):
    # every functional the verifier scans, the integrals at their twists,
    # every invalid record, and broken ones: a degree-0 bump at K^7, an
    # off-degree bump at e1, the q-characters at the wrong twist
    F = _functionals(pair)
    A = F.algebra
    one = A.params.field.one
    laws = {f"slf.{n}": (f, 0) for n, f in F.slf_basis().items()}
    qchars = {s.label(): F.q_character(s) for s in all_simple_specs(A.params)}
    laws.update({f"qchar.{n}": (f, 1) for n, f in qchars.items()})
    laws.update({f"untwisted.{n}": (f, 0) for n, f in qchars.items()})
    laws.update({f"shifted.{n}": (F.theta(F.theta(f)), 1)
                 for n, f in qchars.items()})
    laws["lambda"] = (F.integral_functional("left"), -1)
    laws["mu"] = (F.integral_functional("right"), 1)
    for label in F.system.block_labels():
        if F.system.block_ladders(label):
            tags = F.summand_tags(label)
            laws[f"invalid{label}"] = (F.sigma_character(
                label, SigmaRecord(alpha_up={tags[0]: 1})), 1)
    name, slf = next(iter(F.slf_basis().items()))
    for where in ((0, 0, 0, 0, 7), (1, 0, 0, 0, 0)):
        laws[f"bump{where}"] = (slf + LinearFunctional(
            A, {A.monomial_index(A.monomial(*where)): one}), 0)
    got = F.generator_scan(laws)
    want = _reference_scan(F, laws)
    assert list(got) == list(laws)
    off_degree = {name for name, (f, _) in laws.items()
                  if any(F._monos[k][:2] != F._monos[k][2:4]
                         for k in f.values)}
    assert off_degree == {"bump(1, 0, 0, 0, 0)"}
    for name, (f, tau) in laws.items():
        witness, _ = got[name]
        assert (witness is None) == (want[name] is None), name
        if name in off_degree:
            assert _violates(F, f, tau, witness), name
        else:
            assert witness == want[name], name
    # the production laws hold; every invalid record and bump breaks
    failing = {name for name, (w, _) in got.items() if w is not None}
    assert not {n for n in failing
                if n.startswith(("slf.", "qchar.")) or n in ("lambda", "mu")}
    assert {n for n in laws if n.startswith(("invalid", "bump"))} <= failing


def test_slf_count_and_rank():
    assert len(F23.slf_basis()) == 20
    assert all(c.passed for c in F23.slf_checks())


def test_slf_full_symmetry_scan():
    checks = F23.symmetry_checks(F23.slf_basis())
    assert len(checks) == 20
    assert all(c.passed for c in checks)
    assert {(c.detail, c.scope) for c in checks} == {(
        "degree-matched: 240 of 5 × 432 generator pairs; the rest vanish "
        "by Z²-degree", "degree-matched: 240 of 5 × 432 generator pairs")}


def test_qchar_of_trivial_module_is_counit():
    spec = SimpleModuleSpec(1, 1, 1)
    assert F23.q_character(spec) == _counit_functional(A23)


def test_theta_fixes_the_counit():
    eps = _counit_functional(A23)
    assert F23.theta(eps) == eps


def test_qchar_on_k_powers_is_shifted_weight_sum():
    P = A23.params
    half = P.N // 2
    for spec in (SimpleModuleSpec(1, 2, 3), SimpleModuleSpec(-1, 1, 2)):
        gamma = F23.q_character(spec)
        for ell in (0, 1, 7):
            shift = ell + P.p2 - P.p1
            want = P.zero
            for n1 in range(spec.r1):
                for n2 in range(spec.r2):
                    exp = (half * (spec.alpha < 0)
                           + 2 * P.p2 * (spec.r1 - 1 - 2 * n1)
                           + 2 * P.p1 * (spec.r2 - 1 - 2 * n2))
                    want = want + P.zeta(exp * shift)
            got = gamma(A23.monomial_element(A23.monomial(0, 0, 0, 0, ell)))
            assert got == want


def test_qchar_twisted_symmetry_on_generators():
    twisted = {f"qchar.{s.label()}": F23.q_character(s)
               for s in all_simple_specs(A23.params)}
    checks = F23.symmetry_checks({}, twisted)
    assert len(checks) == 12
    assert all(c.passed for c in checks)


def test_character_bridge():
    checks = F23.verify_character_bridge()
    assert len(checks) == 5
    assert all(c.passed for c in checks)


def test_sigma_strict_mode_rejects_unbalanced_record():
    label = _label("interior")
    with pytest.raises(ValueError):
        F23.sigma_character(label, SigmaRecord(alpha_up={"up": 1}),
                            strict=True)


def test_sigma_rejects_corner_blocks_and_bad_tags():
    with pytest.raises(ValueError):
        F23.summand_tags(_label("corner-plus"))
    label = _label("edge-1")
    with pytest.raises(ValueError):
        F23.sigma_character(label, SigmaRecord(alpha_up={"left": 1}))
    with pytest.raises(ValueError):
        F23.sigma_character(label, SigmaRecord(beta_up={"up": 1}),
                            strict=True)


def test_invalid_sigma_record_fails_twisted_symmetry():
    label = _label("interior")
    check = F23.exhibit_invalid_sigma(label)
    assert check.passed
    beta = F23.sigma_character(label, SigmaRecord(alpha_up={"up": 1}))
    assert check.detail.endswith(
        f"violated at (x, y) = {_first_violation(beta, _s2)}")


def _reference_group_trace(F, summand, mat, rowgroup, colgroup, k_power):
    """The loop `twisted_trace` replaced: the sum of the entries of mat
    K^k_power at (row family position t, column family position t), each
    scaled by K's diagonal entry at its column."""
    lay = F.real.layout(summand)
    roff, coff = lay.offsets[rowgroup], lay.offsets[colgroup]
    h1, h2 = lay.sizes[rowgroup]
    k_exp = F.real.k_exponents(summand)
    total = F.params.zero
    for t in range(h1 * h2):
        val = mat.get(coff + t, {}).get(roff + t)
        if val is not None:
            total = total + val * F.params.zeta(k_exp[coff + t] * k_power)
    return total


def _reference_trace_vector(F, label, s_idx, rowgroup, colgroup):
    """One summand's strip trace as a dense list over every basis
    monomial, word-major with the K-exponent fastest."""
    summand = F.system.summands_of(label)[s_idx]
    return [_reference_group_trace(F, summand, word, rowgroup, colgroup, ell)
            for word in F.real.monomial_matrices(summand)
            for ell in range(F.params.korder)]


def _reference_slf(F):
    """Every slf member as the dense sum of its recipe's trace vectors."""
    out = {}
    for label in F.system.block_labels():
        for name, cells in F._block_recipes(label).items():
            vecs = [_reference_trace_vector(F, label, *cell) for cell in cells]
            out[name] = LinearFunctional(F.algebra, {
                k: sum(col[1:], col[0]) for k, col in enumerate(zip(*vecs))})
    return out


def _reference_qchar(F, spec):
    """trace(g^-1 w K^ell) on a simple module, read off the diagonal of
    each word matrix, entry d scaled by zeta^(s_d (ell + p2 - p1))."""
    P = F.params
    gens = {g: simple_action(P, spec, g) for g in GENERATOR_NAMES}
    k_exp = diagonal_exponents(P.field, gens["K"], spec)
    values = {}
    for w, M in enumerate(pbw_matrices(P, gens)):
        for ell in range(P.korder):
            acc = P.zero
            for d, rows in M.items():
                if d in rows:
                    acc = acc + rows[d] * P.zeta(k_exp[d] * (ell + P.p2 - P.p1))
            values[w * P.korder + ell] = acc
    return LinearFunctional(F.algebra, values)


def _reference_sigma(F, label, record):
    """The insertion character as the dense combination of the strip
    trace vectors, then shifted by g^-1 through the PBW shift table:
    K^t m_k = c m_idx gives the value c * combo[idx] at m_k."""
    P = F.params
    tags = F.summand_tags(label)
    combo = [P.zero] * F.algebra.dimension
    for fname, mapping in record.families():
        for tag, raw in mapping.items():
            coeff = raw if isinstance(raw, CycloNumber) else P.rational(raw)
            vec = _reference_trace_vector(
                F, label, tags.index(tag), ("B", "down"),
                qpair.functionals._TARGET_GROUP[fname])
            combo = [acc + coeff * v for acc, v in zip(combo, vec)]
    return LinearFunctional(F.algebra, {
        k: c * combo[idx]
        for k, (idx, c) in enumerate(F._shift_table(P.p2 - P.p1))})


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_twisted_trace_matches_the_dense_reference(pair):
    # every slf member, q-character, pattern record and invalid record,
    # and one interior record with non-unit coefficients on all four
    # families, one of them not rational
    F = _functionals(pair)
    P = F.params
    assert F.slf_basis() == _reference_slf(F)
    for spec in all_simple_specs(P):
        assert F.q_character(spec) == _reference_qchar(F, spec), spec
    records = []
    for label in F.system.block_labels():
        if not F.system.block_ladders(label):
            continue
        records.extend((label, r) for r in F.sigma_patterns(label).values())
        records.append((label, SigmaRecord(
            alpha_up={F.summand_tags(label)[0]: 1})))
    interior = next(label for label, _ in records
                    if len(F.summand_tags(label)) == 4)
    records.append((interior, SigmaRecord(
        alpha_up={"up": 2, "down": -3}, alpha_down={"right": 5},
        beta_up={"left": -1, "up": 7},
        beta_down={"down": P.zeta(1) + P.rational(2)})))
    for label, record in records:
        got = F.sigma_character(label, record)
        assert not got.is_zero(), (label, record)
        assert got == _reference_sigma(F, label, record), (label, record)


def test_functional_evaluation_stays_within_one_pair():
    # an slf member at (2,3) on an element at (3,2): both have the field
    # Q(zeta_24), so only the pair check tells them apart
    func = next(iter(F23.slf_basis().values()))
    with pytest.raises(ValueError):
        func(_functionals((3, 2)).algebra.one())
    assert func(Algebra.for_pair(2, 3).one()) == func(A23.one())


def test_scaling_a_functional_refuses_another_fields_scalar():
    # zeta_40 lives in the field of (2,5); the empty functional must refuse
    # it as the one-value functional does, before any shortcut
    zeta40 = Algebra.for_pair(2, 5).params.field.zeta(1)
    P = A23.params
    empty = LinearFunctional(A23, {})
    single = LinearFunctional(A23, {0: P.one})
    for func in (empty, single):
        with pytest.raises(ValueError):
            func * zeta40
        with pytest.raises(ValueError):
            zeta40 * func
    # ints and Fractions are embedded exactly, on either side
    assert (single * 3).values == {0: P.rational(3)}
    assert (Fraction(1, 3) * single).values == {0: P.rational(Fraction(1, 3))}
    assert (empty * 3).is_zero() and (empty * Fraction(2, 7)).is_zero()
    assert (single * P.zeta(1)).values == {0: P.zeta(1)}


def test_theta_stays_within_one_pair():
    with pytest.raises(ValueError):
        F23.theta(_counit_functional(_functionals((3, 2)).algebra))
    twin = LinearFunctional(Algebra.for_pair(2, 3),
                            _counit_functional(A23).values)
    assert F23.theta(twin) == _counit_functional(A23)


def test_generator_scan_stays_within_one_pair():
    with pytest.raises(ValueError):
        F23.symmetry_checks(
            {"x": _counit_functional(_functionals((3, 2)).algebra)})
    twin = LinearFunctional(Algebra.for_pair(2, 3),
                            _counit_functional(A23).values)
    check, = F23.symmetry_checks({"x": twin})
    assert check.passed


def test_radford_identities_with_single_correction():
    checks = {c.check_id: c for c in F23.verify_radford_identities()}
    assert len(checks) == 20
    assert all(c.passed for c in checks.values())
    corrected = {cid for cid, c in checks.items() if c.corrected}
    assert corrected == {"radford[2,1].unit"}
    assert "second-direction Psi" in checks["radford[2,1].unit"].detail


def test_edge2_psi_coincidence_hides_the_slip():
    # the slip is invisible on the other second-direction block because
    # both Psi constants happen to be equal there
    assert B23.scalar_constants(1, 2, 2).Psi1 == B23.scalar_constants(
        1, 2, 2).Psi2
    assert B23.scalar_constants(1, 2, 1).Psi1 != B23.scalar_constants(
        1, 2, 1).Psi2


def _reference_radford(F, c):
    """The Radford transform as the pair loop it replaced: every basis
    monomial against every PBW term of K^(p2-p1) c, by full products."""
    A = F.algebra
    lam = _by_monomial(F, "left")
    d = (A.k_power(A.params.p2 - A.params.p1) * c).pbw_terms()
    values = {}
    for k, m in enumerate(A.basis_monomials()):
        acc = A.params.zero
        for t, ct in d.items():
            acc = acc + ct * _evaluate(lam, A.product_monomials(m, t),
                                       A.params.zero)
        values[k] = acc
    return LinearFunctional(A, values)


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_radford_transform_matches_the_pair_loop(pair):
    # every central element of every block, on every monomial; then two
    # elements of mixed degree, where the pairs of nonzero degree matter
    F = _functionals(pair)
    system = F.system
    assert len({system.block_kind(label)
                for label in system.block_labels()}) == 5
    for label in system.block_labels():
        for key, c in F.real.central_elements(label).items():
            assert F.radford_transform(c) == _reference_radford(F, c), (
                label, key)
    A = F.algebra
    for terms in ({(1, 0, 0, 0, 3): 1, (0, 1, 1, 0, 5): 2},
                  {(0, 0, 1, 1, 1): 1, (1, 1, 0, 0, 0): -3, (0, 0, 0, 0, 7): 1}):
        c = A.element(terms)
        func = F.radford_transform(c)
        assert not func.is_zero()
        assert func == _reference_radford(F, c), terms


def test_radford_transform_reads_projector_terms_after_one_product(
        monkeypatch):
    # the transform multiplies K^(p2-p1) into c once and never converts
    # an element to PBW form
    label = B23.block_labels()[0]
    central = list(F23.real.central_elements(label).values())
    expected = [_reference_radford(F23, c) for c in central]

    def refuse(self):
        raise AssertionError("pbw_terms called")

    monkeypatch.setattr(AlgebraElement, "pbw_terms", refuse)
    for c, ref in zip(central, expected):
        before = A23.element_products
        assert F23.radford_transform(c) == ref
        assert A23.element_products == before + 1


def test_radford_injectivity_per_block():
    assert all(c.passed for c in F23.verify_radford_injectivity())


def test_center_dimension_matches_slf_share():
    dims = {label: F23.real.center_dimension(label)
            for label in B23.block_labels()}
    assert sum(dims.values()) == 20
    assert dims[_label("interior")] == 9


def test_functional_arithmetic():
    lam = F23.integral_functional("left")
    mu = F23.integral_functional("right")
    combo = lam * 3 + mu
    assert combo(F23.integral_element()) == A23.params.rational(4)
    assert (combo - combo).is_zero()


def test_functional_arithmetic_stays_within_one_pair():
    lam = F23.integral_functional("left")
    # (2,5) has another field; (3,2) has the same field Q(zeta_24)
    for pair in ((2, 5), (3, 2)):
        other = Algebra.for_pair(*pair)
        stranger = LinearFunctional(other, {0: other.params.field.one})
        for op in (operator.add, operator.sub, operator.eq):
            with pytest.raises(ValueError):
                op(lam, stranger)
    # a twin (2,3) algebra is the same pair: values are compared
    twin = LinearFunctional(Algebra.for_pair(2, 3), lam.values)
    assert twin == lam
    assert (lam - twin).is_zero()
    assert lam + twin == lam * 2
    assert twin != lam * 2
