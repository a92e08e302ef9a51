"""Integrals, the symmetric-function basis, Radford identities, characters.

The dual integrals are solved from scratch here and pinned to their known
support; the Radford identities are graded exactly, including the one
boundary block whose printed cross-identity needs the second-direction
Psi (the other boundary block of that direction has Psi1 = Psi2, which is
why the slip is invisible there).
"""

import operator
import random

import pytest
from conftest import A23, B23, F23, R23

from qpair.algebra import GENERATOR_MONOMIALS, Algebra, PBWMonomial
from qpair.functionals import LinearFunctional, SigmaRecord
from qpair.modules import SimpleModuleSpec, all_simple_specs
MONOS = list(A23.basis_monomials())
rng = random.Random(90125)


def _first_violation(func, sigma=lambda y: y):
    """The first (x, y) in the scan's order (x over the basis, y over the
    generators) with func(xy) != func(sigma(y) x), found by element
    products, independently of `pairwise_scan`; None if there is none."""
    gens = [(g, A23.monomial_element(g)) for g in GENERATOR_MONOMIALS]
    for m in MONOS:
        x = A23.monomial_element(m)
        for g, y in gens:
            if func(x * y) != func(sigma(y) * x):
                return f"({m}, {g})"
    return None


def _s2(y):
    return A23.antipode(A23.antipode(y))


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


def test_translation_identities():
    check = F23.verify_integral_identities()
    assert check.passed
    assert check.detail == ("exhaustive: 5 generators × 432 monomials; "
                            "failures: 0")


def test_lambda_is_not_symmetric():
    lam = F23.integral_functional("left")
    check, = F23.pairwise_scan({"lambda": lam})
    witness = _first_violation(lam)
    assert not check.passed and witness is not None
    assert check.detail.endswith(f"violated at (x, y) = {witness}")


def test_counit_is_symmetric():
    eps = F23.counit_functional()
    check, = F23.pairwise_scan({"counit": eps})
    assert check.passed
    assert _first_violation(eps) is None


def test_generator_scan_catches_a_functional_perturbed_at_one_monomial():
    name, func = next(iter(F23.slf_basis().items()))
    k7 = A23.monomial_index(A23.monomial(0, 0, 0, 0, 7))
    bad = func + LinearFunctional(A23, {k7: A23.params.field.one})
    check, = F23.pairwise_scan({name: bad})
    witness = _first_violation(bad)
    assert not check.passed and witness is not None
    assert check.detail.endswith(f"violated at (x, y) = {witness}")


def test_generator_scan_catches_a_qchar_with_the_wrong_twist():
    chi = F23.q_character(SimpleModuleSpec(1, 2, 3))
    assert F23.pairwise_scan({}, {"chi": chi})[0].passed
    # weight 1 instead of the S^2 weight: scanned as a symmetric functional
    check, = F23.pairwise_scan({"chi": chi})
    assert not check.passed
    assert check.detail.endswith(
        f"violated at (x, y) = {_first_violation(chi)}")
    # x -> chi(g^2 x) = trace(g x) is twisted by S^-2, not S^2
    shifted = F23.theta(F23.theta(chi))
    check, = F23.pairwise_scan({}, {"chi-shifted": shifted})
    assert not check.passed
    assert check.detail.endswith(
        f"violated at (x, y) = {_first_violation(shifted, _s2)}")


def test_slf_count_and_rank():
    assert len(F23.slf_basis()) == 20
    assert all(c.passed for c in F23.slf_checks())


def test_slf_full_symmetry_scan():
    checks = F23.pairwise_scan(F23.slf_basis())
    assert len(checks) == 20
    assert all(c.passed for c in checks)
    assert {c.detail for c in checks} == {
        "exhaustive: 5 generators × 432 monomials"}


def test_qchar_of_trivial_module_is_counit():
    spec = SimpleModuleSpec(1, 1, 1)
    assert F23.q_character(spec) == F23.counit_functional()


def test_theta_fixes_the_counit():
    eps = F23.counit_functional()
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
    checks = F23.pairwise_scan({}, twisted)
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


def test_radford_transform_matches_direct_products():
    lam = F23.integral_functional("left")
    central = R23.central_elements(_label("interior"))
    c = central["unit"]
    func = F23.radford_transform(c)
    d = A23.k_power(A23.params.p2 - A23.params.p1) * c
    for m in rng.sample(MONOS, 12):
        direct = lam(A23.monomial_element(m) * d)
        got = func.values.get(A23.monomial_index(m), A23.params.zero)
        assert got == direct


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
