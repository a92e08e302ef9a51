"""Integrals, the symmetric-function basis, Radford identities, characters.

The dual integrals are solved from scratch here and pinned to their known
support; the Radford identities are graded exactly, including the one
boundary block whose printed cross-identity needs the second-direction
Psi (the other boundary block of that direction has Psi1 = Psi2, which is
why the slip is invisible there).
"""

import random

import pytest
from conftest import A23, B23, F23, R23

from qpair.algebra import PBWMonomial
from qpair.functionals import SigmaRecord
from qpair.modules import SimpleModuleSpec, all_simple_specs
MONOS = list(A23.basis_monomials())
rng = random.Random(90125)


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
    assert F23.verify_integral_identities(pairs=120).passed


def test_lambda_is_not_symmetric():
    lam = F23.integral_functional("left")
    witness = F23.symmetry_witness(lam, mode="exhaustive")
    assert witness is not None
    assert not F23.is_symmetric(lam)
    i, j = witness
    x, y = A23.monomial_element(MONOS[i]), A23.monomial_element(MONOS[j])
    assert lam(x * y) != lam(y * x)


def test_counit_is_symmetric():
    eps = F23.counit_functional()
    assert F23.is_symmetric(eps, mode="sampled", sample_size=400, seed=3)


def test_slf_count_and_rank():
    assert len(F23.slf_basis()) == 20
    assert all(c.passed for c in F23.slf_checks())


def test_slf_full_symmetry_scan():
    checks = F23.pairwise_scan(F23.slf_basis(), mode="exhaustive")
    assert len(checks) == 20
    assert all(c.passed for c in checks)


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


def test_qchar_twisted_symmetry_sampled():
    twisted = {f"qchar.{s.label()}": F23.q_character(s)
               for s in all_simple_specs(A23.params)}
    checks = F23.pairwise_scan({}, twisted, mode="sampled",
                               sample_size=1200, seed=41)
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
    check = F23.exhibit_invalid_sigma(_label("interior"), max_pairs=20000)
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
    dims = {label: F23.center_dimension(label)
            for label in B23.block_labels()}
    assert sum(dims.values()) == 20
    assert dims[_label("interior")] == 9


def test_functional_arithmetic():
    lam = F23.integral_functional("left")
    mu = F23.integral_functional("right")
    combo = lam * 3 + mu
    assert combo(F23.integral_element()) == A23.params.rational(4)
    assert (combo - combo).is_zero()
