"""Tests for the simple-module layer.

Matrix models of the 2*p1*p2 simple modules: generator actions, weight
diagonals, the phi ladder coefficients with their reflection identities,
and the pair of central scalars that tells apart modules whose K-weight
multisets collide.
"""

import pytest

from qpair import modules
from qpair.algebra import casimir
from qpair.cyclo import Params
from qpair.linalg import Matrix
from qpair.modules import (
    SimpleModuleSpec,
    all_simple_specs,
    casimir_eigenvalue,
    k_spectrum,
    phi,
    relation_target,
    simple_action,
    verify_simple_family,
    verify_simple_module,
    weight,
)

P23 = Params(2, 3)


def casimir_matrix_reference(params, i, spec):
    """The central element of copy i written out on the module's
    matrices, independently of `algebra.casimir`."""
    pj = params.other(i)
    K = simple_action(params, spec, "K")
    Kinv = Matrix(params.field, spec.dim,
                  columns={j: {j: K[j, j].inverse()} for j in range(spec.dim)})
    E = simple_action(params, spec, "e1" if i == 1 else "e2")
    F = simple_action(params, spec, "f1" if i == 1 else "f2")
    a = params.qi_pow(i, pj)
    gap = a - a.inverse()
    return (-(Kinv ** pj) * a) + (-(K ** pj) * a.inverse()) + (-(E * F) * (gap * gap))


def test_spec_enumeration_and_labels():
    specs = all_simple_specs(P23)
    assert len(specs) == 12
    assert len({s.label() for s in specs}) == 12
    top = SimpleModuleSpec(1, 2, 3)
    assert top.dim == 6
    assert top.index(1, 2) == 1 + 2 * 2
    with pytest.raises(ValueError):
        SimpleModuleSpec(1, 3, 1).validate(P23)
    with pytest.raises(ValueError):
        SimpleModuleSpec(2, 1, 1).validate(P23)


def test_phi_values_and_range_guard():
    assert phi(P23, 1, 1, 1, 2, 3).as_rational() == 1
    # ladder positions run strictly inside (0, r_i)
    with pytest.raises(ValueError):
        phi(P23, 1, 1, 0, 2, 3)
    with pytest.raises(ValueError):
        phi(P23, 1, 1, 2, 2, 3)
    with pytest.raises(ValueError):
        phi(P23, 2, 1, 3, 2, 3)
    with pytest.raises(ValueError):
        phi(P23, 3, 1, 1, 2, 3)


def test_weight_formula_top_vector():
    spec = SimpleModuleSpec(1, 2, 3)
    w = weight(P23, spec, 0, 0)
    assert w == P23.q1_pow(1) * P23.q2_pow(2)
    w_neg = weight(P23, SimpleModuleSpec(-1, 2, 3), 0, 0)
    assert w_neg == -w


def test_k_action_is_weight_diagonal():
    spec = SimpleModuleSpec(-1, 2, 2)
    mat = simple_action(P23, spec, "K")
    assert mat.is_diagonal()
    for n2 in range(2):
        for n1 in range(2):
            idx = spec.index(n1, n2)
            assert mat[idx, idx] == weight(P23, spec, n1, n2)


def test_lowering_vanishes_at_bottom_raising_at_top():
    spec = SimpleModuleSpec(1, 2, 3)
    e1 = simple_action(P23, spec, "e1")
    f1 = simple_action(P23, spec, "f1")
    # e1 kills the n1 = 0 column, f1 kills the n1 = r1 - 1 column
    for n2 in range(3):
        assert all(e1[r, spec.index(0, n2)].is_zero() for r in range(6))
        assert all(f1[r, spec.index(1, n2)].is_zero() for r in range(6))


def test_every_module_verifies_at_2_3():
    for spec in all_simple_specs(P23):
        checks = verify_simple_module(P23, spec)
        bad = [c for c in checks if not c.passed]
        assert not bad, f"{spec.label()}: {[c.check_id for c in bad]}"


def test_casimir_scalars_small_table():
    # the central elements act by these scalars on the named modules
    top = SimpleModuleSpec(1, 2, 3)
    assert casimir_eigenvalue(P23, 1, top).as_rational() == 2
    assert casimir_eigenvalue(P23, 2, top).as_rational() == 2
    low = SimpleModuleSpec(1, 1, 1)
    assert casimir_eigenvalue(P23, 1, low).is_zero()
    assert casimir_eigenvalue(P23, 2, low).as_rational() == 1
    # both scalars realized by the actual matrices
    for i, spec in ((1, top), (2, low)):
        mat = casimir(P23, i, relation_target(P23, spec))
        assert mat.scalar_of_identity() == casimir_eigenvalue(P23, i, spec)


@pytest.mark.parametrize("pair", [(2, 3), (3, 4)])
def test_presentation_casimir_matches_the_matrix_formula(pair):
    params = Params(*pair)
    for spec in all_simple_specs(params):
        target = relation_target(params, spec)
        for i in (1, 2):
            assert (casimir(params, i, target)
                    == casimir_matrix_reference(params, i, spec)), (spec, i)


def test_doubled_f1_fails_only_its_own_module(monkeypatch):
    # f1 scaled by 2 on one module breaks [e1, f1] there (and with it the
    # copy-1 Casimir, which contains e1 f1); every other module is untouched
    spoiled = SimpleModuleSpec(1, 2, 3)
    action = modules.simple_action

    def doubled_f1(params, spec, gen):
        out = action(params, spec, gen)
        return out * 2 if (spec, gen) == (spoiled, "f1") else out

    monkeypatch.setattr(modules, "simple_action", doubled_f1)
    failed = {c.check_id for c in verify_simple_family(P23) if not c.passed}
    label = spoiled.label()
    assert failed == {f"{label}: [e1, f1] = weight line",
                      f"{label}: central element 1 acts by its stated scalar"}


def test_module_checks_have_scopes():
    checks = verify_simple_family(P23)
    assert all(c.scope for c in checks)
    by_id = {c.check_id: c for c in checks}
    assert by_id["X+(1,2): K*Kinv = 1"].scope == (
        "presentation: 17 defining relations on the generator matrices "
        "of X+(1,2), dim 2")


def test_k_spectrum_collision_resolved_by_central_scalars():
    # with p1 = 2 the two signs of the width-2 modules share their K-weight
    # multisets, so the spectrum alone cannot separate them
    for r2 in (1, 2, 3):
        plus = SimpleModuleSpec(1, 2, r2)
        minus = SimpleModuleSpec(-1, 2, r2)
        assert k_spectrum(P23, plus) == k_spectrum(P23, minus)
        assert casimir_eigenvalue(P23, 1, plus) != casimir_eigenvalue(P23, 1, minus)


def test_family_report_green_at_2_3():
    checks = verify_simple_family(P23)
    bad = [c for c in checks if not c.passed]
    assert not bad, [c.row() for c in bad]


def test_family_report_green_at_3_4():
    checks = verify_simple_family(Params(3, 4))
    assert all(c.passed for c in checks)


def test_phi_reflection_identity_spot_values():
    # flipping the sign label together with one width reflection fixes phi
    for alpha in (1, -1):
        for r2 in (1, 2):
            lhs = phi(P23, 1, alpha, 1, 2, r2)
            rhs = phi(P23, 1, -alpha, 1, 2, 3 - r2)
            assert lhs == rhs
